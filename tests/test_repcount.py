"""Representation counts against a dumb box-scan oracle, plus the mass identity."""

import math
import random

import pytest

from helpers import discriminants_in, half_plane_solutions_unfiltered
from lemma_checks import mass
from qprim import repcount
from qprim.classgroup import enumerate_classes, inverse_class
from qprim.qform import BinaryForm
from qprim.repcount import (
    MAX_BOUND,
    _ROW_TABLE,
    RepRecord,
    enumerate_solutions,
    half_plane_solutions,
    rep_counts,
    rep_profile,
    spectrum,
)


def brute_solutions(f, n):
    """Independent enumeration: 4a*f = (2ax+by)^2 + |D|y^2 caps both
    coordinates at sqrt(4*max(a,c)*n / |D|) <= sqrt(4*max(a,c)*n)."""
    box = math.isqrt(4 * max(f.a, f.c) * n) + 2
    return sorted(
        (x, y)
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
        if f.evaluate(x, y) == n
    )


SAMPLE_FORMS = [
    BinaryForm(1, 0, 1),
    BinaryForm(1, 0, 14),
    BinaryForm(2, 0, 7),
    BinaryForm(3, 2, 5),
    BinaryForm(2, 1, 3),
    BinaryForm(1, 1, 1),
    BinaryForm(5, 3, 7),
    BinaryForm(3, -2, 5),
    BinaryForm(2, -1, 3),
]


def test_enumerate_solutions_examples():
    assert enumerate_solutions(BinaryForm(1, 0, 1), 5) == [
        (-2, -1),
        (-2, 1),
        (-1, -2),
        (-1, 2),
        (1, -2),
        (1, 2),
        (2, -1),
        (2, 1),
    ]
    assert enumerate_solutions(BinaryForm(1, 0, 14), 9) == [(-3, 0), (3, 0)]
    assert enumerate_solutions(BinaryForm(2, 0, 7), 9) == [
        (-1, -1),
        (-1, 1),
        (1, -1),
        (1, 1),
    ]
    assert enumerate_solutions(BinaryForm(1, 0, 14), 11) == []
    with pytest.raises(ValueError):
        enumerate_solutions(BinaryForm(1, 0, 1), 0)


def test_enumerate_solutions_matches_box_scan():
    # the row scan behind it returns the half-plane y >= 1 with x >= 1 on the
    # row y = 0, rows ascending
    for f in SAMPLE_FORMS:
        for n in range(1, 60):
            sols = brute_solutions(f, n)
            assert enumerate_solutions(f, n) == sols
            half = list(half_plane_solutions(f, n))
            assert sorted(half) == [(x, y) for x, y in sols if y > 0 or (y == 0 and x > 0)]
            assert [y for _, y in half] == sorted(y for _, y in half)
    assert list(half_plane_solutions(BinaryForm(3, 2, 5), 27)) == [(3, 0), (1, 2)]


def _compare_with_unfiltered_scan(queries) -> tuple[int, int]:
    """(queries, solutions) of the (f, n) in queries, each asserted to give
    the same solutions, in the same order, as the scan through every row."""
    count = solutions = 0
    for f, n in queries:
        half = list(half_plane_solutions(f, n))
        assert half == list(half_plane_solutions_unfiltered(f, n)), (f, n)
        count += 1
        solutions += len(half)
    return count, solutions


def test_half_plane_solutions_matches_unfiltered_scan():
    # the 2-adic classes of y that the scan skips hold no solution: every
    # class of every D in [-600, -3] at n = 1, 4, ..., 37 and at three
    # seeded n <= 10^6
    rng = random.Random("half_plane_solutions:-600")
    queries = [
        (f, n)
        for D in discriminants_in(-600, -3)
        for f in enumerate_classes(D).classes
        for n in [*range(1, 38, 3), *(rng.randint(1, 10**6) for _ in range(3))]
    ]
    assert _compare_with_unfiltered_scan(queries) == (32928, 6105)


#: the classes of y by 2-adic valuation, capped at 3, as (first y, step):
#: odd y, y = 2 mod 4, 4 mod 8 and 0 mod 8
TWO_ADIC_CLASSES = [(1, 2), (2, 4), (4, 8), (0, 8)]


def _kept_classes(k, d):
    """The (first y, step) of each class that `_ROW_TABLE[d]` keeps at
    4an = k mod 64."""
    return [(y, step) for y, step, _, _, mask in _ROW_TABLE[d] if mask >> k & 1]


def test_row_table_matches_its_definition():
    # at 4an = k and |D| = d mod 64, a class is kept iff some y < 64 in it
    # makes k - d*y^2 a square mod 64, which (y + 32)^2 = y^2 mod 64 makes
    # the same as some y in it at all; from y to y + step, 4an - |D|y^2
    # falls by |D|step(2y + step), and that decrement grows by 2|D|step^2
    squares = {s * s % 64 for s in range(64)}
    for d in range(64):
        assert [row[:4] for row in _ROW_TABLE[d]] == [
            (y, step, step * (2 * y + step), 2 * step * step) for y, step in TWO_ADIC_CLASSES
        ]
        for k in range(64):
            assert _kept_classes(k, d) == [
                (r, step) for r, step in TWO_ADIC_CLASSES
                if any((k - d * y * y) % 64 in squares for y in range(r, 64, step))
            ], (k, d)


def test_row_scan_two_adic_classes():
    # 4an - |D|y^2 is a square mod 64 in some classes of y by 2-adic
    # valuation (odd, 2 mod 4, 4 mod 8, 0 mod 8) and not in the others; each
    # class kept is one ascending range, and the solutions come by
    # ascending y across the classes
    cases = [
        (BinaryForm(1, 0, 1), 25, [range(1, 6, 2), range(4, 6, 8), range(0, 6, 8)],
         [(5, 0), (4, 3), (-4, 3), (3, 4), (-3, 4), (0, 5)]),
        (BinaryForm(2, 0, 7), 20286, [range(2, 54, 4)], [(63, 42), (-63, 42)]),
        (BinaryForm(1, 0, 14), 20286, [range(1, 39, 2)],
         [(140, 7), (-140, 7), (56, 35), (-56, 35)]),
        (BinaryForm(1, 0, 1), 3, [], []),
        # the even rows split: y = 2 mod 4 only; the odd rows and y = 4 mod
        # 8; y = 4 and y = 0 mod 8, of which only the row 0 is below the top
        (BinaryForm(1, 0, 14), 56, [range(2, 3, 4)], [(0, 2)]),
        (BinaryForm(1, 1, 1), 13, [range(1, 5, 2), range(4, 5, 8)],
         [(3, 1), (-4, 1), (1, 3), (-4, 3), (-1, 4), (-3, 4)]),
        (BinaryForm(1, 0, 14), 4, [range(4, 1, 8), range(0, 1, 8)], [(2, 0)]),
    ]
    for f, n, rows, half in cases:
        four_an = 4 * f.a * n
        end = math.isqrt(four_an // -f.D) + 1
        kept = _kept_classes(four_an % 64, -f.D % 64)
        assert [range(y, end, step) for y, step in kept] == rows
        assert half_plane_solutions(f, n) == half


def test_every_scan_goes_through_half_plane_solutions(monkeypatch):
    # the guards that patch this name to raise must intercept the scans of
    # both public entry points
    def no_scan(*args):
        raise AssertionError(f"scanned {args}")

    monkeypatch.setattr(repcount, "half_plane_solutions", no_scan)
    with pytest.raises(AssertionError, match="scanned"):
        rep_counts(BinaryForm(1, 0, 1), 25, 5)
    with pytest.raises(AssertionError, match="scanned"):
        enumerate_solutions(BinaryForm(1, 0, 1), 25)


@pytest.mark.slow
def test_half_plane_solutions_matches_unfiltered_scan_wide():
    # the represent_points domain: every class of every D in [-4000, -3],
    # at a seeded n <= 10^7 and at a seeded value f(x, y) <= 10^7
    rng = random.Random("half_plane_solutions:-4000")
    queries = []
    for D in discriminants_in(-4000, -3):
        for f in enumerate_classes(D).classes:
            xmax, ymax = (math.isqrt(4 * k * 10**7 // -D) for k in (f.c, f.a))
            while True:
                v = f.evaluate(rng.randint(-xmax, xmax), rng.randint(-ymax, ymax))
                if 0 < v <= 10**7:
                    break
            queries += [(f, rng.randint(1, 10**7)), (f, v)]
    count, solutions = _compare_with_unfiltered_scan(queries)
    assert (count, solutions) == (72276, 76188)


def test_rep_counts_examples():
    rec = rep_counts(BinaryForm(1, 0, 14), 9, 3)
    assert rec == RepRecord(9, 3, ((-3, 0), (3, 0)), 2, 0, 2)
    rec = rep_counts(BinaryForm(2, 0, 7), 9, 3)
    assert rec.r == 4 and rec.r_star_p == 4 and rec.r_flat_p == 0
    rec = rep_counts(BinaryForm(2, 0, 7), 18, 3)
    assert rec.r == 2 and rec.r_star_p == 0
    rec = rep_counts(BinaryForm(2, 0, 7), 36, 3)
    assert rec.r_star_p > 0 and (2, 2) in rec.solutions
    with pytest.raises(ValueError):
        rep_counts(BinaryForm(1, 0, 14), 9, 4)
    # n is checked after p, with a message that names n
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            rep_counts(BinaryForm(1, 0, 14), n, 3)
    with pytest.raises(ValueError, match="p must be prime, got 4"):
        rep_counts(BinaryForm(1, 0, 14), 0, 4)


def test_rep_counts_parity_and_split():
    # solutions come in (x, y) -> (-x, -y) pairs, so r is even; r = r* + r_flat,
    # and r* counts the solutions with gcd(x, y, p) = 1
    for f in SAMPLE_FORMS:
        for n in range(1, 200):
            rec = rep_counts(f, n, 3)
            assert rec.r % 2 == 0
            assert rec.r == rec.r_star_p + rec.r_flat_p
            assert rec.r == len(rec.solutions)
            assert rec.r_star_p == sum(1 for x, y in rec.solutions if math.gcd(x, y, 3) == 1)


def test_rep_counts_symmetric_under_inverse():
    # (x, y) -> (x, -y) maps solutions of f to solutions of the inverse form
    for D in (-23, -31, -56):
        for f in enumerate_classes(D).classes:
            g = inverse_class(f)
            for p in (2, 3, 5):
                for n in range(1, 500, 7):
                    rf = rep_counts(f, n, p)
                    rg = rep_counts(g, n, p)
                    assert rf.r == rg.r
                    assert rf.r_star_p == rg.r_star_p


def test_rep_profile_matches_per_value_enumeration():
    # bound 4 < a = 5 leaves the row y = 0 empty; bound 1 keeps only f = 1
    cases = [(f, 300) for f in SAMPLE_FORMS] + [(BinaryForm(5, 3, 7), 4)]
    cases += [(f, 1) for f in SAMPLE_FORMS]
    for f, bound in cases:
        counts = {n: len(enumerate_solutions(f, n)) for n in range(1, bound + 1)}
        assert rep_profile(f, bound) == {n: r for n, r in counts.items() if r}
    with pytest.raises(ValueError):
        rep_profile(BinaryForm(1, 0, 1), 0)


def test_edge_values_yield_nothing_or_count_as_zero():
    # n < 1 has no solution in the half-plane, not even (0, 0), and a
    # shell's lo < 0 is the full sweep
    for f in SAMPLE_FORMS:
        for n in (0, -1, -100):
            assert half_plane_solutions(f, n) == []
        for lo in (-1, -50):
            assert rep_profile(f, 60, lo) == rep_profile(f, 60)


def test_rep_profile_shell_matches_full_sweep():
    # the shell lo < n <= hi is the full sweep to hi without the values up
    # to lo: every class of every D in [-200, -3], with lo = 0 (the full
    # sweep itself), lo = hi (nothing), and lo on both sides of the first
    # row's least value a and inside the window
    shells = 0
    for D in discriminants_in(-200, -3):
        for f in enumerate_classes(D).classes:
            a = f.a
            for hi in (1, a, 2 * a + 1, 97):
                full = rep_profile(f, hi)
                for lo in {0, 1, a - 1, a, hi // 2, hi - 1, hi}:
                    if 0 <= lo <= hi:
                        expected = {n: r for n, r in full.items() if n > lo}
                        assert rep_profile(f, hi, lo) == expected, (f, hi, lo)
                        shells += 1
    assert shells > 5000


def test_spectrum_examples():
    spec = spectrum(BinaryForm(1, 0, 14), 15, 3)
    assert spec.q == [1, 4, 9, 14, 15]
    assert spec.q_star == [1, 14, 15]
    assert spec.qp_star == [1, 4, 14, 15]
    with pytest.raises(ValueError):
        spectrum(BinaryForm(1, 0, 14), 15, 6)
    # the limit is checked before any sweep, so MAX_BOUND + 1 costs nothing
    with pytest.raises(ValueError, match="bound must be at most"):
        spectrum(BinaryForm(1, 0, 14), MAX_BOUND + 1, 3)
    for bound in (0, -5):
        with pytest.raises(ValueError, match=f"bound must be >= 1, got {bound}"):
            spectrum(BinaryForm(3, 2, 5), bound, 3)


def test_spectrum_containments():
    for f in SAMPLE_FORMS:
        for p in (2, 3, 5, 7):
            spec = spectrum(f, 400, p)
            q, q_star, qp_star = (set(s) for s in spec)
            assert q_star <= qp_star <= q


def test_spectrum_matches_definitions():
    # Q^*: some solution has gcd(x, y) = 1; Q_p^*: some has p not | gcd(x, y)
    for f in SAMPLE_FORMS:
        sols = {n: enumerate_solutions(f, n) for n in range(1, 401)}
        gcds = {n: [math.gcd(x, y) for x, y in s] for n, s in sols.items()}
        for p in (2, 3, 5, 7):
            spec = spectrum(f, 400, p)
            assert spec.q == [n for n, gs in gcds.items() if gs]
            assert spec.q_star == [n for n, gs in gcds.items() if 1 in gs]
            assert spec.qp_star == [n for n, gs in gcds.items() if any(g % p for g in gs)]


def test_spectrum_imprimitive_example():
    # 49 is represented by [1,1,8] only as (+-7, 0): not 7-primitively
    f = BinaryForm(1, 1, 8)
    assert f.D == -31
    spec = spectrum(f, 49, 7)
    assert 49 in spec.q
    assert 49 not in spec.q_star
    assert 49 not in spec.qp_star
    # while the order-3 classes take 7 itself primitively
    assert 7 in spectrum(BinaryForm(2, 1, 4), 49, 7).qp_star
    assert 7 in spectrum(BinaryForm(2, -1, 4), 49, 7).qp_star


def test_mass_examples():
    assert mass(3, -56) == 4
    assert mass(9, -56) == 6
    assert mass(5, -4) == 8
    assert mass(1, -56) == 2
    assert mass(1, -3) == 6
    assert mass(1, -4) == 4
    with pytest.raises(ValueError):
        mass(0, -56)
    for D in (-5, 0, 8):
        with pytest.raises(ValueError, match="not a valid negative discriminant"):
            mass(5, D)


def test_mass_identity_sweep():
    # sum of r(n) over all classes equals the divisor-sum formula
    bound = 500
    for D in (-3, -4, -23, -31, -56):
        classes = enumerate_classes(D).classes
        for n in range(1, bound + 1):
            if math.gcd(n, D) != 1:
                continue
            total = sum(len(enumerate_solutions(c, n)) for c in classes)
            assert total == mass(n, D)
