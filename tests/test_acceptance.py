"""Acceptance gate: one test per shipped claim, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Wall-clock budgets are generous for desk hardware; everything
else is exact.
"""

import functools
import hashlib
import json
import math
import time
from collections import Counter

import pytest

from lemma_checks import mass, verify_jones, verify_reflection_parity
from qprim import oracle
from qprim.classgroup import ambiguous_classes, enumerate_classes
from qprim.intarith import kronecker, primes_up_to
from qprim.oracle import verify_classification_grid
from qprim.pprim import (
    ROUTE_ORDER_FOUR_SQUARE,
    TwoSquareSolution,
    build_isometry,
    classify_all,
    solve_two_square,
)
from qprim.qform import (
    BinaryForm,
    IntMap2,
    discriminants_in,
    is_ambiguous,
    transformed_coefficients,
)
from qprim.repcount import enumerate_solutions, rep_counts
from qprim.ternary import spectrum_identity_report


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def runner():
            try:
                fn()
            except BaseException:
                print(f"criterion {num} ({label}): FAIL")
                raise
            print(f"criterion {num} ({label}): PASS")

        return runner

    return wrap


@criterion(1, "class group of -56, exact and under 1 ms")
def test_criterion_1():
    def compute():
        enumerate_classes.cache_clear()
        group = enumerate_classes(-56)
        orders = [group.orders[c] for c in group.classes]
        return group, orders, ambiguous_classes(group)

    best = math.inf
    for _ in range(7):
        t0 = time.perf_counter()
        group, orders, ambiguous = compute()
        best = min(best, time.perf_counter() - t0)

    assert group.h == 4
    assert [c.triple() for c in group.classes] == [
        (1, 0, 14),
        (2, 0, 7),
        (3, -2, 5),
        (3, 2, 5),
    ]
    assert orders == [1, 2, 4, 4]
    assert 4 in orders  # cyclic of order 4
    assert [c.triple() for c in ambiguous] == [(1, 0, 14), (2, 0, 7)]
    assert best < 0.001, f"class group of -56 took {best * 1000:.3f} ms"


@criterion(2, "verdicts for D=-56, p=3 with checkable evidence")
def test_criterion_2():
    verdicts = classify_all(-56, 3)
    flags = {v.cls.triple(): v.completely_p_primitive for v in verdicts}
    assert flags == {
        (1, 0, 14): False,
        (2, 0, 7): False,
        (3, -2, 5): True,
        (3, 2, 5): True,
    }
    square = BinaryForm(2, 0, 7)
    for v in verdicts:
        if not v.completely_p_primitive:
            continue
        assert v.route == ROUTE_ORDER_FOUR_SQUARE
        assert v.evidence["order"] == 4
        assert v.evidence["square_form"] == [2, 0, 7]
        x, y = v.evidence["solution"]
        assert square.evaluate(x, y) == 9
        assert math.gcd(x, y) % 3 != 0  # 9 taken 3-primitively by [2,0,7]
    # 36 = 9 * 4 is also taken 3-primitively by the square class
    assert rep_counts(square, 36, 3).r_star_p > 0
    # the excluded prime is rejected loudly, not silently misclassified
    with pytest.raises(ValueError):
        classify_all(-56, 7)


@criterion(3, "brute-force grid D in [-400,-3], p <= 23, N = 5000")
def test_criterion_3():
    searches = Counter()
    calls = Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    real_search = oracle._smallest_witnesses

    def searching(f, bounds):
        searches.update(bounds.values())
        return real_search(f, bounds)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_smallest_witnesses", counting("pairs", searching))
        for name in ("rep_profile", "compose"):
            mp.setattr(oracle, name, counting(name, getattr(oracle, name)))
        t0 = time.perf_counter()
        report = verify_classification_grid(
            dmin=-400, dmax=-3, pmax=23, bound=5000, ceiling=250000
        )
        elapsed = time.perf_counter() - t0
    assert report.ok
    assert report.contradictions == ()
    assert report.unconfirmed == ()  # every negative verdict has a witness
    cells = {(c.D, c.form.triple(), c.p): c for c in report.cells}
    assert cells[(-56, (1, 0, 14), 3)].witness == 9
    assert cells[(-56, (2, 0, 7), 3)].witness == 18
    assert cells[(-56, (3, 2, 5), 3)].cpp
    assert cells[(-56, (3, 2, 5), 3)].witness is None
    # aggregates over all 8395 cells: a search that returned a larger
    # witness, or needed a higher rung, anywhere in the grid moves one
    assert Counter(c.route for c in report.cells) == {
        "symbol_minus_one": 3799,
        "order_four_square_failed": 3722,
        "principal_square": 528,
        "order_four_square": 346,
    }
    assert Counter(c.bound for c in report.cells) == {5000: 7947, 50000: 410, 250000: 38}
    witnesses = [c.witness for c in report.cells if c.witness is not None]
    assert max(witnesses) == 206839
    assert sum(witnesses) == 14919284
    # one search per negative cell, at the ceiling, and one per positive
    # cell, at the bound, each shared by the inverse pair [a, +-b, c]
    assert searches == {250000: 4967, 5000: 666}
    # the 5633 (pair, p) searches share one value sweep per inverse pair:
    # 754 pairs, swept in 2866 doubling windows; each class is squared once
    # for all of its route-3 primes
    assert calls == {"pairs": 754, "rep_profile": 2866, "compose": 969}
    # the whole report, every cell with its route, witness and rung
    payload = json.dumps(report.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "83612ea089dfd48b23fdd94db783cdb113810c526889fcdb7eadb8ddab64e8c1"
    )
    assert elapsed <= 120, f"grid sweep took {elapsed:.1f} s"


@criterion(4, "mass formula sweep, five discriminants, n <= 500")
def test_criterion_4():
    bound = 500
    for D in (-3, -4, -23, -31, -56):
        classes = enumerate_classes(D).classes
        for n in range(1, bound + 1):
            if math.gcd(n, D) != 1:
                continue
            total = sum(len(enumerate_solutions(c, n)) for c in classes)
            assert total == mass(n, D), (D, n)
    # spot values, both sides computed independently
    def total_reps(n, D):
        return sum(
            rep_counts(c, n, 2).r for c in enumerate_classes(D).classes
        )

    assert mass(3, -56) == total_reps(3, -56) == 4
    assert mass(9, -56) == total_reps(9, -56) == 6
    assert mass(5, -4) == total_reps(5, -4) == 8


@criterion(5, "scaling isometries across the grid, plus worked instances")
def test_criterion_5():
    checked = 0
    for D in discriminants_in(-400, -3):
        for p in primes_up_to(23):
            if D % p == 0 or kronecker(D, p) != 1:
                continue
            sols = solve_two_square(D, p)
            if not sols:
                continue
            p2 = p * p
            for f in enumerate_classes(D).classes:
                t = build_isometry(f, sols[0])
                assert t.det == p2
                assert transformed_coefficients(f, t) == (
                    p2 * f.a,
                    p2 * f.b,
                    p2 * f.c,
                )
                assert any(e % p for e in (t.m11, t.m12, t.m21, t.m22))
                assert (t.m11 + t.m22) % p != 0
                checked += 1
    assert checked > 500
    assert build_isometry(
        BinaryForm(1, 0, 1), TwoSquareSolution(6, 4, 5)
    ) == IntMap2(3, 4, -4, 3)
    assert build_isometry(
        BinaryForm(1, 1, 1), TwoSquareSolution(11, 5, 7)
    ) == IntMap2(8, 5, -5, 3)


@criterion(6, "reflection parity for ambiguous forms, |D| <= 400")
def test_criterion_6():
    checked = 0
    for D in discriminants_in(-400, -3):
        for f in enumerate_classes(D).classes:
            if not is_ambiguous(f):
                continue
            for q in (3, 5, 7, 11, 13):
                if D % q == 0:
                    continue
                assert verify_reflection_parity(f, q), (f, q)
                checked += 1
    assert checked > 1000


@criterion(7, "sums of squares witness search, N = 2000")
def test_criterion_7():
    for k, p in ((1, 5), (2, 3), (5, 29)):
        assert verify_jones(k, p, 2000) is None


@criterion(8, "ternary spectra identity up to 100000, under 5 s")
def test_criterion_8():
    t0 = time.perf_counter()
    report = spectrum_identity_report(100000)
    elapsed = time.perf_counter() - t0
    assert report.sets_match
    assert report.sym_diff == (1,)
    assert report.change_of_basis is not None
    assert report.change_det in (1, -1)
    assert elapsed <= 5, f"ternary report took {elapsed:.1f} s"
