"""The brute-force layer itself: witness sweeps, matrix search, parity,
product membership, and the classification grid."""

from collections import Counter

import pytest

from helpers import brute_force_cpp_full_sweep, discriminants_in, raw_form
from lemma_checks import (
    verify_isometry_matrix_search,
    verify_jones,
    verify_product_membership,
    verify_reflection_parity,
)
from qprim import oracle, pprim, repcount
from qprim.classgroup import MAX_ABS_D, enumerate_classes
from qprim.intarith import primes_up_to
from qprim.oracle import (
    MAX_CEILING,
    STATUS_AGREES,
    STATUS_CONTRADICTION,
    STATUS_UNCONFIRMED,
    _first_imprimitive,
    _p_primitive,
    _smallest_witnesses,
    revalidate_verdict,
    verify_classification_grid,
)
from qprim.pprim import (
    ROUTE_ORDER_FOUR_SQUARE,
    ROUTE_ORDER_FOUR_SQUARE_FAILED,
    ROUTE_PRINCIPAL_SQUARE,
    ROUTE_SYMBOL_MINUS_ONE,
    Verdict,
    classify_all,
)
from qprim.qform import BinaryForm, is_ambiguous
from qprim.repcount import rep_counts, rep_profile


def test_smallest_witnesses_witnesses():
    assert _smallest_witnesses(BinaryForm(1, 0, 14), {3: 5000})[3] == 9
    assert _smallest_witnesses(BinaryForm(2, 0, 7), {3: 5000})[3] == 18
    assert _smallest_witnesses(BinaryForm(3, 2, 5), {3: 5000})[3] is None


def test_smallest_witnesses_matches_full_sweep():
    # every class of every D in [-200, -3] with p <= 23, at bounds around
    # p^2, around the edges p^2 a 2^k (k = 0, 1, 3) of the ascending search's
    # windows, and at 3000; at 50000 the cells the grid escalates, negative
    # verdicts at p in {19, 23}.  The non-reduced equivalent
    # [a, b + 2a, a + b + c] is searched around p^2 and at the edges, and the
    # mirror form [a, -b, c], which the grid searches in place of the
    # inverse class, at every bound: [a, -b, c](x, -y) = [a, b, c](x, y).
    # Equivalent forms share their witnesses, and the smallest
    # witness up to any bound checked is read off one full sweep of the
    # reduced form: at 3000, or for a negative verdict without a witness by
    # 3000, at the largest bound checked.  A positive verdict has no witness
    # at any bound.
    turn = 0
    chosen = set()
    for D in discriminants_in(-200, -3):
        primes = [p for p in primes_up_to(23) if D % p]
        verdicts = {p: classify_all(D, p) for p in primes}
        for i, x in enumerate(enumerate_classes(D).classes):
            a, b, c = x.triple()
            g = BinaryForm(a, b + 2 * a, a + b + c)
            mirror = BinaryForm(a, -b, c)
            lists = {f: {} for f in (x, mirror, g)}
            for p in primes:
                p2 = p * p
                edges = [p2 * a * 2**k + d for k in (0, 1, 3) for d in (-1, 0, 1)]
                negative = not verdicts[p][i].completely_p_primitive
                large = [3000, 50000] if negative and p in (19, 23) else [3000]
                w = brute_force_cpp_full_sweep(x, p, 3000)
                if negative and w is None:
                    w = brute_force_cpp_full_sweep(x, p, max(edges + large))
                small = [1, p2 - 1, p2, *edges]
                for f, bounds in ((x, small + large), (mirror, small + large), (g, small)):
                    for bound in bounds:
                        found = w if w is not None and w <= bound else None
                        assert _smallest_witnesses(f, {p: bound})[p] == found
                    lists[f][p] = (bounds, w)
            # each form once more, all of its primes in one shared sweep, each
            # prime at its own bound, taken in turn from its list
            for f, per_prime in lists.items():
                bounds = {}
                for k, (p, (own, w)) in enumerate(per_prime.items()):
                    j = (turn + k) % len(own)
                    bounds[p] = own[j]
                    chosen.add((p, len(own), j))
                turn += 1
                found = _smallest_witnesses(f, bounds)
                for p, (own, w) in per_prime.items():
                    assert found[p] == (w if w is not None and w <= bounds[p] else None)
    # the turns reach every bound of every list a prime was given
    for p, n in {(p, n) for p, n, _ in chosen}:
        assert {j for q, m, j in chosen if (q, m) == (p, n)} == set(range(n)), (p, n)


def test_first_window_of_a_reduced_form_holds_a_alone():
    # the fact the search's unswept first window rests on: a reduced form
    # takes no value below a, so the values up to a are a alone
    for D in discriminants_in(-4000, -3):
        for f in enumerate_classes(D).classes:
            assert sorted(rep_profile(f, f.a)) == [f.a], f


def test_smallest_witnesses_sweeps_only_to_witness(monkeypatch):
    bounds = []
    windows = []
    checked = []
    real_scan = oracle._first_imprimitive

    def recording(f, hi, lo):
        bounds.append(hi)
        windows.append((lo, hi))
        return rep_profile(f, hi, lo)

    def read(values, top, p):
        # the candidates p^2 m the scan takes, one at a time, up to its top
        for m in values:
            if m <= top:
                checked.append(p * p * m)
            yield m

    def checking(scan, values, top, p):
        return real_scan(scan, read(values, top, p), top, p)

    monkeypatch.setattr(oracle, "rep_profile", recording)
    monkeypatch.setattr(oracle, "_first_imprimitive", checking)
    # the witness 9 = 3^2 * 1 lies in the first window, (0, a], which holds
    # a alone and is not swept
    assert _smallest_witnesses(BinaryForm(1, 0, 14), {3: 5000})[3] == 9
    assert bounds == []
    assert checked == [9]
    # no witness: after the unswept first window (0, 3], windows double from
    # a = 3 up to top = 5000 // 9, each sweeps only its own shell
    # lo < m <= hi, and every candidate 9m, m <= 555, is checked once, in
    # ascending order
    bounds.clear()
    windows.clear()
    checked.clear()
    f = BinaryForm(3, 2, 5)
    assert _smallest_witnesses(f, {3: 5000})[3] is None
    assert bounds == [6, 12, 24, 48, 96, 192, 384, 555]
    assert windows == list(zip([3, *bounds], bounds))
    assert sum(hi - lo for lo, hi in windows) == 555 - 3
    assert checked == [9 * m for m in sorted(rep_profile(f, 555))]
    # the witness 875 = 25 * 35 lies in the fourth window, (24, 48]: the
    # search checks the candidates below it in ascending order and stops
    bounds.clear()
    checked.clear()
    f = BinaryForm(6, 3, 17)
    assert _smallest_witnesses(f, {5: 5000})[5] == 875
    assert bounds == [12, 24, 48]
    assert checked == [25 * m for m in sorted(rep_profile(f, 35))]
    assert checked == [150, 425, 500, 600, 650, 875]
    # primes share the sweep: 2 takes its witness 24 = 4 * 6 in the first
    # window, and the windows then run up to the top 200 of 5, not 25000;
    # 5 checks the same candidates as alone, and 3, below 3^2, has none
    bounds.clear()
    checked.clear()
    assert _smallest_witnesses(f, {2: 10**5, 5: 5000, 3: 3}) == {2: 24, 5: 875, 3: None}
    assert bounds == [12, 24, 48]
    assert checked == [24, 150, 425, 500, 600, 650, 875]
    # a form with a value below a, here [c, -b, a] = [5, -2, 3], has its
    # first window swept like the rest
    bounds.clear()
    windows.clear()
    checked.clear()
    f = BinaryForm(5, -2, 3)
    assert _smallest_witnesses(f, {3: 5000})[3] is None
    assert windows[0] == (0, 5)
    assert checked == [9 * m for m in sorted(rep_profile(f, 555))]


def test_p_primitive_matches_rep_counts():
    # the early-stopping scan against the full count, for n = p m: every
    # class of every D in [-200, -3] as its reduced form, [c, -b, a] and
    # [a, b + 2a, a + b + c], each p <= 11 prime to D.  The shapes cover a
    # first coefficient divisible by p, and [2, 1, 2] at 2 and [3, 1, 3]
    # at 3 one whose a and c are both divisible by p.  The batched scan
    # takes the candidates n in ascending order, and again from just after
    # each n it returns, so it must return every n without a p-primitive
    # solution, in turn, and then None.
    both = set()
    for D in discriminants_in(-200, -3):
        primes = [p for p in primes_up_to(11) if D % p]
        for x in enumerate_classes(D).classes:
            a, b, c = x.triple()
            for f in (x, BinaryForm(c, -b, a), BinaryForm(a, b + 2 * a, a + b + c)):
                for p in primes:
                    if f.a % p == 0 and f.c % p == 0:
                        both.add((*f, p))
                    candidates = range(p, 30 * p + 1, p)
                    imprimitive = []
                    for n in candidates:
                        has = rep_counts(f, n, p).r_star_p > 0
                        assert _p_primitive(f, n, p) == has, (f, n, p)
                        if not has:
                            imprimitive.append(n)
                    returned = []
                    rest = candidates
                    scan = oracle._scan(f, p, 1)
                    while (n := _first_imprimitive(scan, rest, 30 * p, p)) is not None:
                        returned.append(n)
                        rest = range(n + p, 30 * p + 1, p)
                    assert returned == imprimitive, (f, p)
                    # a top below the first imprimitive n ends the scan before it
                    top = imprimitive[0] - 1 if imprimitive else 15 * p
                    assert _first_imprimitive(scan, candidates, top, p) is None
    assert {(2, 1, 2, 2), (3, 1, 3, 3)} <= both
    # 8 = [2, 1, 2](1, -2) is 2-primitive, and [2, 1, 2] does not take 4
    assert _p_primitive(BinaryForm(2, 1, 2), 8, 2)
    assert not _p_primitive(BinaryForm(2, 1, 2), 4, 2)
    scan = oracle._scan(BinaryForm(2, 1, 2), 2, 1)
    assert _first_imprimitive(scan, [8, 4, 6], 8, 2) == 4
    assert _first_imprimitive(scan, [], 8, 2) is None


@pytest.mark.slow
def test_smallest_witnesses_equals_full_sweep_wide():
    # every class of every D in [-500, -3] as its reduced form, [c, -b, a]
    # and [a, b + 2a, a + b + c], each p in {2, 3, 5, 7, 11, 13, 29} prime
    # to D, at bounds around p^2, p^2 a and the grid's scale; the reference
    # sweeps run bound by bound so that its cache serves every prime.  Each
    # form is then searched once more with all of its primes in one shared
    # sweep, each prime at its own bound, taken in turn from its set.
    calls = found = shared = shared_found = 0
    turn = 0
    for D in discriminants_in(-500, -3):
        primes = [p for p in (2, 3, 5, 7, 11, 13, 29) if D % p]
        for x in enumerate_classes(D).classes:
            a, b, c = x.triple()
            bounds = {
                p: sorted({1, p * p - 1, p * p, p * p * a, p * p * a + 1, 2 * p * p, 777, 5000})
                for p in primes
            }
            for f in (x, BinaryForm(c, -b, a), BinaryForm(a, b + 2 * a, a + b + c)):
                refs = {}
                for bound in sorted(set().union(*bounds.values())):
                    for p in primes:
                        if bound in bounds[p]:
                            w = _smallest_witnesses(f, {p: bound})[p]
                            refs[p, bound] = ref = brute_force_cpp_full_sweep(f, p, bound)
                            assert w == ref, (f, p, bound)
                            calls += 1
                            found += w is not None
                own = {p: bounds[p][(turn + k) % len(bounds[p])] for k, p in enumerate(primes)}
                turn += 1
                for p, w in _smallest_witnesses(f, own).items():
                    assert w == refs[p, own[p]], (f, p, own[p])
                    shared += 1
                    shared_found += w is not None
    assert (calls, found) == (204759, 84675)
    assert (shared, shared_found) == (26517, 11108)


def test_brute_matches_classifier_small():
    # independent sweep agrees with the decision routes cell by cell
    for D in (-23, -31, -56, -84, -120):
        for p in primes_up_to(13):
            if D % p == 0:
                continue
            for v in classify_all(D, p):
                witness = _smallest_witnesses(v.cls, {p: 3000})[p]
                assert (witness is None) == v.completely_p_primitive


def test_revalidate_verdicts():
    for D in (-23, -31, -56, -84, -120):
        for p in primes_up_to(13):
            if D % p == 0:
                continue
            for v in classify_all(D, p):
                assert revalidate_verdict(v)


def test_revalidate_rejects_doctored_evidence():
    good = classify_all(-56, 23)[0]
    bad = Verdict(good.cls, good.p, True, ROUTE_PRINCIPAL_SQUARE, {"m": 1, "n": 1})
    assert not revalidate_verdict(bad)
    unknown = Verdict(good.cls, good.p, True, "no_such_route", {})
    assert not revalidate_verdict(unknown)
    # routes 1 and 2 take their evidence as a whole: no extra key, none missing
    for p, route in ((11, ROUTE_SYMBOL_MINUS_ONE), (23, ROUTE_PRINCIPAL_SQUARE)):
        v = next(v for v in classify_all(-56, p) if v.route == route)
        assert revalidate_verdict(v)
        assert not revalidate_verdict(v._replace(evidence={**v.evidence, "bogus": 1}))
    assert not revalidate_verdict(good._replace(evidence={"m": good.evidence["m"]}))
    # a route-1 witness must be p^2 a = f(p, 0): 0 is not, nor 1, 14 and 15,
    # which p = 11 does not divide, nor 22, which [1, 0, 14] does not take,
    # nor 121 * 15, a witness all the same, nor p^2 c for [2, 0, 7]
    v = classify_all(-56, 11)[0]
    assert v.cls.triple() == (1, 0, 14) and v.evidence == {"witness": 121}
    assert revalidate_verdict(v)
    for witness in (0, 1, 14, 15, 22, 121 * 15):
        assert not revalidate_verdict(v._replace(evidence={"witness": witness})), witness
    w = classify_all(-56, 11)[1]
    assert w.cls.triple() == (2, 0, 7) and revalidate_verdict(w)
    assert not revalidate_verdict(w._replace(evidence={"witness": 121 * 7}))
    # a route-1 verdict is negative: True with the same evidence is rejected
    assert not revalidate_verdict(v._replace(completely_p_primitive=True))
    # (D/p) = -1 by Euler's criterion, D = 5 mod 8 at p = 2: 2 is inert in
    # D = -3 and splits in D = -7 = 1 mod 8, so p^2 a = 4 for -7's class
    # [1, 1, 2] is rejected; so is p^2 a = 121 at p = 11, where (-7/11) = 1
    (inert,) = classify_all(-3, 2)
    assert inert.route == ROUTE_SYMBOL_MINUS_ONE and inert.evidence == {"witness": 4}
    assert revalidate_verdict(inert)
    (split,) = classify_all(-7, 2)
    assert split.route != ROUTE_SYMBOL_MINUS_ONE
    for p in (2, 11):
        doctored = split._replace(p=p, completely_p_primitive=False,
                                  route=ROUTE_SYMBOL_MINUS_ONE, evidence={"witness": p * p})
        assert not revalidate_verdict(doctored), p
    # evidence of the wrong type or shape is rejected, never raised on
    for witness in (121.0, "121", None, [121]):
        assert not revalidate_verdict(v._replace(evidence={"witness": witness})), witness
    assert not revalidate_verdict(good._replace(evidence={"m": 10, "n": 6.0}))
    assert not revalidate_verdict(good._replace(evidence={"m": 10.0, "n": 6}))
    v = next(v for v in classify_all(-56, 3) if v.cls == (3, -2, 5))
    assert v.completely_p_primitive and revalidate_verdict(v)
    for solution in ([1], [1, 2, 3], None, [1, "2"], "ab", [-1.0, -1]):
        evidence = {**v.evidence, "solution": solution}
        assert not revalidate_verdict(v._replace(evidence=evidence)), solution
    # evidence that is not a dict is rejected on every route
    verdicts = [classify_all(-56, 11)[0], classify_all(-56, 23)[0], *classify_all(-56, 3)]
    assert {v.route for v in verdicts} == set(pprim.ROUTES)
    for v in verdicts:
        for evidence in ([1], None, "x", 0):
            assert not revalidate_verdict(v._replace(evidence=evidence)), (v.route, evidence)
    # p must be a prime <= MAX_P that does not divide D = -56; 100000007 is
    # a prime above the cap
    failed = [v for v in classify_all(-56, 3) if v.route == ROUTE_ORDER_FOUR_SQUARE_FAILED]
    assert [v.cls.triple() for v in failed] == [(1, 0, 14), (2, 0, 7)]
    for v in failed:
        assert revalidate_verdict(v)
        for p in (1, 2, 7, 100000007):
            assert not revalidate_verdict(v._replace(p=p)), (v.cls, p)
    # p must be an int and the class a BinaryForm, on every route: a float
    # or str p, or a tuple or list class, is rejected, never raised on.
    # Each route's evidence holds exactly its keys: one more, or one of
    # them renamed, is rejected
    for v in verdicts:
        assert revalidate_verdict(v)
        assert not revalidate_verdict(v._replace(evidence={**v.evidence, "bogus": 1}))
        for key in v.evidence:
            renamed = {("bogus" if k == key else k): x for k, x in v.evidence.items()}
            assert not revalidate_verdict(v._replace(evidence=renamed)), (v.route, key)
        for p in (float(v.p), str(v.p)):
            assert not revalidate_verdict(v._replace(p=p)), (v.route, p)
        for cls in (tuple(v.cls), list(v.cls)):
            assert not revalidate_verdict(v._replace(cls=cls)), (v.route, cls)
    # a bool is not an int, nor an int a bool, though each equals the other:
    # {"m": True, "n": True} solves 16 = m^2 + 15n^2, the principal class
    # has order True, and 0 and 1 stand for False and True
    v = classify_all(-15, 2)[0]
    assert v.evidence == {"m": 1, "n": 1} and revalidate_verdict(v)
    assert not revalidate_verdict(v._replace(evidence={"m": True, "n": True}))
    assert not revalidate_verdict(v._replace(completely_p_primitive=1))
    principal = failed[0]
    assert principal.evidence["order"] == 1
    assert not revalidate_verdict(principal._replace(completely_p_primitive=0))
    assert not revalidate_verdict(principal._replace(evidence={**principal.evidence,
                                                               "order": True}))
    assert not revalidate_verdict(principal._replace(evidence={**principal.evidence,
                                                               "square_form": [True, 0, 14]}))
    flagged = [(v, 0) for v in [*failed, *classify_all(-2604, 11)]
               if v.route == ROUTE_ORDER_FOUR_SQUARE_FAILED]
    # at D = -23 the prime class of 3 has order 3: [2, +-1, 3] fail with a
    # square that takes 9 3-primitively
    flagged += [(v, 1) for v in classify_all(-23, 3)
                if v.evidence.get("square_has_p_square") is True]
    assert [flag for _, flag in flagged].count(1) == 2
    for v, flag in flagged:
        assert revalidate_verdict(v)
        evidence = {**v.evidence, "square_has_p_square": flag}
        assert not revalidate_verdict(v._replace(evidence=evidence)), (v.cls, flag)
    # a route-3 class must be a reduced class of the census, within its limit
    v = next(v for v in classify_all(-56, 3) if v.route == ROUTE_ORDER_FOUR_SQUARE)
    assert not revalidate_verdict(v._replace(cls=BinaryForm(3, 8, 10)))
    beyond = BinaryForm(1, 1, MAX_ABS_D // 4 + 1)
    assert beyond.D < -MAX_ABS_D
    for route_v in (v, failed[0]):
        assert not revalidate_verdict(route_v._replace(cls=beyond))


def test_revalidate_rejects_witness_too_large_to_scan(monkeypatch):
    # route 1 is checked by Euler's criterion and scans no row, so every
    # inert verdict at the largest primes passes with each scan patched to
    # raise, and a witness too large to scan is rejected unscanned
    def no_scan(*args):
        raise AssertionError(f"scanned {args}")

    monkeypatch.setattr(repcount, "enumerate_solutions", no_scan)
    monkeypatch.setattr(oracle, "_first_imprimitive", no_scan)
    monkeypatch.setattr(oracle, "_p_primitive", no_scan)
    verdicts = [*classify_all(-3, 999983), *classify_all(-56, 999979)]
    assert len(verdicts) == 5
    for v in verdicts:
        assert v.route == ROUTE_SYMBOL_MINUS_ONE and revalidate_verdict(v), v
    v = classify_all(-56, 11)[0]
    assert v.cls.triple() == (1, 0, 14)
    assert not revalidate_verdict(v._replace(evidence={"witness": 121 * 10**30}))
    # 11 divides a, so a scan of [11, 1, 10^6] would read [10^6, 1, 11]:
    # about 10^8 rows where the rows of f number 331663.  The witness is not
    # 11^2 a, and 11 splits, since D = 1 mod 11
    doctored = Verdict(BinaryForm(11, 1, 10**6), 11, False, ROUTE_SYMBOL_MINUS_ONE,
                       {"witness": 11 * 10**16})
    assert not revalidate_verdict(doctored)


def test_grid_flags_evidence_that_is_not_a_dict(monkeypatch):
    # every route of D = -56 up to p = 23, each verdict's evidence None
    real = pprim.classify_all
    monkeypatch.setattr(
        pprim, "classify_all", lambda D, p: [v._replace(evidence=None) for v in real(D, p)]
    )
    report = verify_classification_grid(-56, -56, 23, 500)
    assert {c.route for c in report.cells} == set(pprim.ROUTES)
    assert report.contradictions == report.cells


def test_oracle_rederives_order_four_against_a_doctored_census(monkeypatch):
    # a census walk that gives the principal class order 4 reaches the
    # classifier and the oracle alike; the oracle re-derives ord(C) = 4 as
    # "C^2 is ambiguous and not principal", which fails for C = 1
    principal = BinaryForm(1, 0, 100)
    monkeypatch.setitem(enumerate_classes(-400).orders, principal, 4)
    v = next(v for v in classify_all(-400, 13) if v.cls == principal)
    assert v.evidence["order"] == 4
    assert not revalidate_verdict(v)
    report = verify_classification_grid(-400, -400, 13, 5000)
    statuses = {(c.form, c.p): c.status for c in report.cells}
    assert statuses[principal, 13] == STATUS_CONTRADICTION
    assert {c.form for c in report.contradictions} == {principal}


@pytest.mark.slow
def test_revalidate_every_verdict_of_wide_window():
    # every verdict of D in [-4000, -3] with p <= 53 re-derives its evidence
    routes = Counter()
    for D in discriminants_in(-4000, -3):
        for p in primes_up_to(53):
            if D % p == 0:
                continue
            for v in classify_all(D, p):
                assert revalidate_verdict(v), (D, p, v.cls)
                routes[v.route] += 1
    assert routes == {
        ROUTE_SYMBOL_MINUS_ONE: 241544,
        ROUTE_PRINCIPAL_SQUARE: 7278,
        ROUTE_ORDER_FOUR_SQUARE: 6158,
        ROUTE_ORDER_FOUR_SQUARE_FAILED: 266129,
    }


def test_matrix_search_sweep():
    for D in discriminants_in(-100, -3):
        for p in primes_up_to(23):
            if D % p == 0:
                continue
            assert verify_isometry_matrix_search(D, p)


def test_matrix_search_spot_cases():
    assert verify_isometry_matrix_search(-4, 5)
    assert verify_isometry_matrix_search(-3, 7)
    assert verify_isometry_matrix_search(-56, 3)  # no solution expected
    assert verify_isometry_matrix_search(-56, 11)  # inert
    assert verify_isometry_matrix_search(-56, 23)
    assert verify_isometry_matrix_search(-23, 2)
    with pytest.raises(ValueError):
        verify_isometry_matrix_search(-56, 7)


def test_reflection_parity_sweep():
    for D in discriminants_in(-120, -3):
        for f in enumerate_classes(D).classes:
            if not is_ambiguous(f):
                continue
            for q in (3, 5, 7):
                if D % q == 0:
                    continue
                assert verify_reflection_parity(f, q)


def test_reflection_parity_preconditions():
    with pytest.raises(ValueError):
        verify_reflection_parity(BinaryForm(3, 2, 5), 3)  # not ambiguous
    with pytest.raises(ValueError):
        verify_reflection_parity(BinaryForm(1, 0, 14), 7)  # q | D
    with pytest.raises(ValueError):
        verify_reflection_parity(BinaryForm(1, 0, 14), 9)


def test_product_membership():
    assert verify_product_membership(-56, 3)
    assert verify_product_membership(-56, 5)
    assert verify_product_membership(-31, 7)
    assert verify_product_membership(-23, 2)
    with pytest.raises(ValueError):
        verify_product_membership(-56, 7)


def test_verify_jones():
    for k, p in ((1, 5), (2, 3), (5, 29)):
        assert verify_jones(k, p, 2000) is None
    with pytest.raises(ValueError):
        verify_jones(1, 3, 100)  # 3 is not a sum of two squares
    with pytest.raises(ValueError):
        verify_jones(3, 3, 100)  # gcd(p, 2k) != 1
    with pytest.raises(ValueError):
        verify_jones(1, 2, 100)  # p must be odd
    with pytest.raises(ValueError):
        verify_jones(0, 5, 100)


def test_grid_labels_each_negative_cell_with_its_ceiling():
    # D = -56, p = 3: the negative classes [1,0,14] and [2,0,7] have the
    # witnesses 9 and 18; each is searched once, up to the ceiling, and
    # reports the ceiling as its bound, with or without a witness below it
    for bound, ceiling, witnesses, unconfirmed in [
        (1, 100, [9, 18], 0),
        (1, 12, [9, None], 1),
        (5, 12, [9, None], 1),
        (5, 5, [None, None], 2),
    ]:
        report = verify_classification_grid(-56, -56, 3, bound, ceiling)
        negatives = [c for c in report.cells if not c.cpp]
        assert [c.form.triple() for c in negatives] == [(1, 0, 14), (2, 0, 7)]
        assert [c.witness for c in negatives] == witnesses
        assert [c.bound for c in negatives] == [ceiling, ceiling]
        assert len(report.unconfirmed) == unconfirmed


def test_grid_small_window():
    report = verify_classification_grid(-120, -3, 13, 3000)
    assert report.ok
    assert not report.contradictions
    assert not report.unconfirmed
    assert report.cells == tuple(
        sorted(report.cells, key=lambda cell: (cell.D, cell.p, cell.form))
    )
    # the plain tuple sort of the cells stops at this unique prefix
    assert len({(c.D, c.p, c.form) for c in report.cells}) == len(report.cells)
    for cell in report.cells:
        assert cell.status == STATUS_AGREES
        if cell.cpp:
            assert cell.witness is None
        else:
            assert cell.witness is not None
    summary = report.summary_json()
    assert summary["ok"] is True and summary["cells"] == len(report.cells)
    full = report.to_json()
    assert len(full["all_cells"]) == len(report.cells)


def test_grid_spot_witnesses():
    report = verify_classification_grid(-56, -56, 3, 5000)
    cells = {(c.form.triple(), c.p): c for c in report.cells}
    assert cells[((1, 0, 14), 3)].witness == 9
    assert cells[((2, 0, 7), 3)].witness == 18
    assert cells[((3, 2, 5), 3)].witness is None
    assert cells[((3, 2, 5), 3)].cpp


def test_grid_flags_corrupted_classifier(monkeypatch):
    def lying_classifier(D, p):
        return [
            Verdict(x, p, True, ROUTE_PRINCIPAL_SQUARE, {"m": 0, "n": 0})
            for x in enumerate_classes(D).classes
        ]

    monkeypatch.setattr(pprim, "classify_all", lying_classifier)
    report = verify_classification_grid(-56, -56, 3, 100)
    assert not report.ok
    assert any(c.status == STATUS_CONTRADICTION for c in report.cells)


@pytest.mark.parametrize(
    "form, route, doctor",
    [
        # a made-up solution of f(x, y) = p^2
        ((3, 2, 5), pprim.ROUTE_ORDER_FOUR_SQUARE, lambda e: {**e, "solution": [0, 0]}),
        ((3, 2, 5), pprim.ROUTE_ORDER_FOUR_SQUARE, lambda e: {**e, "order": 7}),
        ((1, 0, 14), pprim.ROUTE_ORDER_FOUR_SQUARE_FAILED,
         lambda e: {**e, "square_form": [9, 9, 9]}),
        ((1, 0, 14), pprim.ROUTE_ORDER_FOUR_SQUARE_FAILED,
         lambda e: {k: v for k, v in e.items() if k != "square_form"}),
        # the classifier reads this flag off the group, not off a count
        ((2, 0, 7), pprim.ROUTE_ORDER_FOUR_SQUARE_FAILED,
         lambda e: {**e, "square_has_p_square": not e["square_has_p_square"]}),
    ],
    ids=["solution", "order", "square_form", "square_form_missing", "square_has_p_square"],
)
def test_grid_flags_doctored_evidence(monkeypatch, form, route, doctor):
    real = pprim.classify_all

    def doctoring_classifier(D, p):
        # right cpp flags and route, one doctored evidence dict
        verdicts = real(D, p)
        for i, v in enumerate(verdicts):
            if v.cls.triple() == form:
                assert v.route == route
                verdicts[i] = v._replace(evidence=doctor(v.evidence))
        return verdicts

    monkeypatch.setattr(pprim, "classify_all", doctoring_classifier)
    report = verify_classification_grid(-56, -56, 3, 5000)
    statuses = {c.form.triple(): c.status for c in report.cells}
    expected = dict.fromkeys([(1, 0, 14), (2, 0, 7), (3, -2, 5), (3, 2, 5)], STATUS_AGREES)
    expected[form] = STATUS_CONTRADICTION
    assert statuses == expected
    assert not report.ok


def test_grid_unconfirmed_when_ceiling_too_low():
    # the smallest witnesses at p = 3 are 9 and 18, above a ceiling of 8
    report = verify_classification_grid(-56, -56, 3, 5, ceiling=8)
    assert report.ok  # unconfirmed is not a contradiction
    statuses = {c.form.triple(): c.status for c in report.cells}
    assert statuses == {
        (1, 0, 14): STATUS_UNCONFIRMED,
        (2, 0, 7): STATUS_UNCONFIRMED,
        (3, -2, 5): STATUS_AGREES,
        (3, 2, 5): STATUS_AGREES,
    }
    assert all(c.bound == 8 and c.witness is None for c in report.unconfirmed)


def test_grid_default_ceiling_confirms_every_cell():
    # a 10x ceiling left two cells of D = -399 without a witness
    report = verify_classification_grid(-399, -399, 17, 5000)
    assert report.ceiling == 250000
    assert report.cells and not report.unconfirmed


def test_grid_rejects_ceiling_below_bound():
    # a negative cell would be checked against less than a positive one
    with pytest.raises(ValueError):
        verify_classification_grid(-20, -3, 3, 5000, ceiling=100)
    with pytest.raises(ValueError):
        verify_classification_grid(-20, -3, 3, 5000, ceiling=4999)
    assert verify_classification_grid(-20, -3, 3, 5000, ceiling=5000).ceiling == 5000


def test_grid_rejects_ceiling_above_cap(monkeypatch):
    # at the cap: the negative cells of -56 at p = 3 have the witnesses 9, 18
    report = verify_classification_grid(-56, -56, 3, 5000, ceiling=MAX_CEILING)
    assert report.ceiling == MAX_CEILING and report.ok and not report.unconfirmed

    def no_census(D, p):
        raise AssertionError("the ceiling is checked before any census")

    monkeypatch.setattr(pprim, "classify_all", no_census)
    message = f"ceiling must be at most {MAX_CEILING}, got {MAX_CEILING + 1}"
    with pytest.raises(ValueError, match=message):
        verify_classification_grid(-20, -3, 3, 5000, ceiling=MAX_CEILING + 1)
    # the default ceiling, 50x the bound, is held to the same cap
    bound = MAX_CEILING // 50 + 1
    with pytest.raises(ValueError, match=f"got {50 * bound} "):
        verify_classification_grid(-20, -3, 3, bound)


def test_grid_searches_each_inverse_pair_once(monkeypatch):
    # D = -56, p = 3: [3, 2, 5] and [3, -2, 5] share one search, up to their
    # smallest candidate 27 = 3^2 * 3 since the bound 5 lies below it, and
    # report 27 as their bound; the negatives [1, 0, 14] and [2, 0, 7] are
    # each searched once at the ceiling, which they report as their bound
    calls = []
    real = oracle._smallest_witnesses

    def recording(f, bounds):
        calls.extend((f.triple(), p, bound) for p, bound in bounds.items())
        return real(f, bounds)

    monkeypatch.setattr(oracle, "_smallest_witnesses", recording)
    report = verify_classification_grid(-56, -56, 3, 5, ceiling=100)
    assert calls == [((1, 0, 14), 3, 100), ((2, 0, 7), 3, 100), ((3, -2, 5), 3, 27)]
    cells = {c.form.triple(): (c.witness, c.bound, c.status) for c in report.cells}
    assert cells == {
        (1, 0, 14): (9, 100, STATUS_AGREES),
        (2, 0, 7): (18, 100, STATUS_AGREES),
        (3, -2, 5): (None, 27, STATUS_AGREES),
        (3, 2, 5): (None, 27, STATUS_AGREES),
    }


def test_grid_searches_positive_cells_up_to_their_smallest_candidate(monkeypatch):
    # a positive cell whose smallest candidate p^2 a lies above the bound is
    # searched up to p^2 a, which it reports as its bound: at bound 1 the
    # positives [3, +-2, 5] of D = -56 read 27 at p = 3 and 75 at p = 5
    report = verify_classification_grid(-56, -56, 5, 1)
    positives = {(c.form.triple(), c.p): (c.bound, c.status) for c in report.cells if c.cpp}
    assert positives == {
        ((3, -2, 5), 3): (27, STATUS_AGREES),
        ((3, 2, 5), 3): (27, STATUS_AGREES),
        ((3, -2, 5), 5): (75, STATUS_AGREES),
        ((3, 2, 5), 5): (75, STATUS_AGREES),
    }
    # [1, 0, 14] made positive at p = 3, with its evidence taken on trust so
    # that only the search judges it: its one candidate up to 9 = 3^2 * 1
    # is the witness 9, above the bound 5
    real = pprim.classify_all

    def flipping(D, p):
        return [v._replace(completely_p_primitive=True)
                if (p, v.cls) == (3, (1, 0, 14)) else v for v in real(D, p)]

    monkeypatch.setattr(pprim, "classify_all", flipping)
    monkeypatch.setattr(oracle, "_revalidate", lambda *args: True)
    report = verify_classification_grid(-56, -56, 3, 5)
    cell = next(c for c in report.cells if c.form == (1, 0, 14))
    assert (cell.cpp, cell.witness, cell.bound, cell.status) == (True, 9, 9, STATUS_CONTRADICTION)
    assert [c.form for c in report.contradictions] == [cell.form]


@pytest.mark.parametrize(
    "witness",
    [
        9,  # the search's own witness, p^2 a
        36,  # 6^2: another witness
        15,  # 1 + 14, taken 3-primitively
        22,  # not divisible by 3
    ],
)
def test_grid_rejects_route_one_evidence_at_a_split_prime(monkeypatch, witness):
    # [1, 0, 14] at D = -56, p = 3 given route-1 evidence: 3 splits, so
    # every witness is a contradiction, 9 = p^2 a included, and none is
    # scanned.  The one p-primitive scan left is route 3's, for [2, 0, 7],
    # whose square [1, 0, 14] takes 9
    real = pprim.classify_all
    calls = []
    real_scan = oracle._p_primitive

    def doctoring(D, p):
        return [v._replace(route=ROUTE_SYMBOL_MINUS_ONE, evidence={"witness": witness})
                if (p, v.cls) == (3, (1, 0, 14)) else v for v in real(D, p)]

    def scanning(f, n, p):
        calls.append((f.triple(), n))
        return real_scan(f, n, p)

    def no_scan(*args):
        raise AssertionError(f"scanned {args}")

    monkeypatch.setattr(pprim, "classify_all", doctoring)
    monkeypatch.setattr(oracle, "_p_primitive", scanning)
    monkeypatch.setattr(repcount, "enumerate_solutions", no_scan)
    report = verify_classification_grid(-56, -56, 3, 5000)
    cell = next(c for c in report.cells if c.form == (1, 0, 14))
    assert (cell.witness, cell.status) == (9, STATUS_CONTRADICTION)
    assert [c.form for c in report.contradictions] == [cell.form]
    assert calls == [((1, 0, 14), 9)]


@pytest.mark.parametrize("form", [(3, -2, 17), (3, 2, 17), (6, -4, 9), (6, 4, 9)])
def test_grid_flags_doctored_square_flag_among_shared_squares(monkeypatch, form):
    # D = -200, p = 3: [3, 2, 17] and [6, -4, 9] square to [6, 4, 9], and
    # [3, -2, 17] and [6, 4, 9] to its mirror [6, -4, 9]; a doctored flag on
    # any one of the four is caught, and only that one
    real = pprim.classify_all

    def doctoring(D, p):
        verdicts = real(D, p)
        for i, v in enumerate(verdicts):
            if v.cls == form:
                assert v.route == ROUTE_ORDER_FOUR_SQUARE_FAILED
                assert v.evidence["square_has_p_square"] is True
                verdicts[i] = v._replace(evidence={**v.evidence, "square_has_p_square": False})
        return verdicts

    honest = verify_classification_grid(-200, -200, 3, 5000)
    assert honest.ok
    monkeypatch.setattr(pprim, "classify_all", doctoring)
    report = verify_classification_grid(-200, -200, 3, 5000)
    assert [c.form for c in report.contradictions] == [form]
    squares = {tuple(v.evidence["square_form"]) for v in real(-200, 3) if v.cls in
               ((3, -2, 17), (3, 2, 17), (6, -4, 9), (6, 4, 9))}
    assert squares == {(6, -4, 9), (6, 4, 9)}


def _cells_changed_by_flipping(monkeypatch, D, form, p, bound):
    # a classifier that flips the verdict of one class at D and p, but not
    # of its mirror: the (p, form, witness, status) of each cell that moves
    honest = verify_classification_grid(D, D, 11, bound)
    real = pprim.classify_all

    def flipping(D, q):
        return [v._replace(completely_p_primitive=not v.completely_p_primitive)
                if (q, v.cls) == (p, form) else v for v in real(D, q)]

    monkeypatch.setattr(pprim, "classify_all", flipping)
    report = verify_classification_grid(D, D, 11, bound)
    return [(c.p, c.form, c.witness, c.status)
            for c, h in zip(report.cells, honest.cells) if c != h]


@pytest.mark.parametrize(
    "p, bound, witness",
    [
        (3, 5000, None),  # made negative: no witness up to the ceiling
        # made positive: searched up to its smallest candidate, the witness
        # 363 = 11^2 * 3, above the bound
        (11, 100, 363),
        (11, 1000, 363),  # made positive: 363 lies within the bound
    ],
)
def test_grid_checks_each_member_of_a_pair_at_its_own_bound(monkeypatch, p, bound, witness):
    # [3, 2, 5] at D = -56 flipped, but not its mirror [3, -2, 5]: the pair
    # is searched once, up to the larger bound the two verdicts need, and
    # each cell reads the search at its own bound, so the mirror's cell
    # does not change
    changed = _cells_changed_by_flipping(monkeypatch, -56, (3, 2, 5), p, bound)
    assert changed == [(p, (3, 2, 5), witness, STATUS_CONTRADICTION)]


def test_grid_keeps_a_pair_witness_above_the_cells_own_bound(monkeypatch):
    # [2, 1, 15] at D = -119 made positive at p = 3 and bound 100: the
    # pair's smallest witness 162 lies above the cell's own bound, found by
    # the search its negative mirror [2, -1, 15] needs up to the ceiling,
    # so the cell reads no witness
    changed = _cells_changed_by_flipping(monkeypatch, -119, (2, 1, 15), 3, 100)
    assert changed == [(3, (2, 1, 15), None, STATUS_CONTRADICTION)]
    assert _smallest_witnesses(BinaryForm(2, -1, 15), {3: 5000})[3] == 162


@pytest.mark.parametrize("bound", [0, -5])
def test_grid_rejects_bound_below_one(bound):
    with pytest.raises(ValueError, match=f"bound must be >= 1, got {bound}"):
        verify_classification_grid(-20, -3, 3, bound)


@pytest.mark.parametrize("dmin", [-MAX_ABS_D - 3, -(10**12)])
def test_grid_rejects_dmin_beyond_census_limit(dmin):
    # a one-discriminant window, so even an unchecked dmin stays cheap
    with pytest.raises(ValueError, match=f"at least {-MAX_ABS_D}, got {dmin}"):
        verify_classification_grid(dmin, dmin, 3, 100)


def test_grid_rejects_window_over_two_square_rows(monkeypatch):
    # the window D in [-60, -3], p <= 7 holds 217 two-square rows in all,
    # the isqrt(4p^2 / |D|) + 1 rows of p^2 by the principal form per
    # (D, p), which bound the grid's positive searches up to p^2 a; one
    # fewer is refused before any classification, and the last
    # discriminant tips the sum over
    calls = []
    monkeypatch.setattr(pprim, "classify_all", lambda D, p: calls.append((D, p)) or [])
    monkeypatch.setattr(oracle, "MAX_ROWS", 216)
    with pytest.raises(ValueError, match="need at least 217 two-square rows, more than 216"):
        verify_classification_grid(-60, -3, 7, 500)
    assert calls == []
    monkeypatch.setattr(oracle, "MAX_ROWS", 217)
    verify_classification_grid(-60, -3, 7, 500)
    assert len(calls) == 85  # every (D, p) pair, p not | D


def test_grid_rejects_window_over_census_work(monkeypatch):
    # a census of D costs O(|D|), so the window's sum of |D| is capped at
    # MAX_ABS_D: D = -10^7 alone is classified, and the next discriminant,
    # -9999999, tips the window over before any census
    report = verify_classification_grid(-MAX_ABS_D, -MAX_ABS_D, 3, 1, ceiling=1)
    assert len(report.cells) == enumerate_classes(-MAX_ABS_D).h and report.ok

    def no_census(*args):
        raise AssertionError("the window's census work is checked before any census")

    monkeypatch.setattr(pprim, "classify_all", no_census)
    monkeypatch.setattr(oracle, "enumerate_classes", no_census)
    message = f"sum to at least {2 * MAX_ABS_D - 1} in [|]D[|], more than {MAX_ABS_D}"
    with pytest.raises(ValueError, match=message):
        verify_classification_grid(-MAX_ABS_D, -MAX_ABS_D + 1, 3, 1, ceiling=1)


def test_grid_rejects_window_without_cells():
    with pytest.raises(ValueError):
        verify_classification_grid(-3, -20, 23, 100)
    with pytest.raises(ValueError):
        verify_classification_grid(-400, -3, 1, 100)
    with pytest.raises(ValueError):
        verify_classification_grid(-4, -4, 2, 100)  # the only prime divides D


def test_raw_form_is_unchecked():
    g = raw_form(2, 0, 2)
    assert g.a == 2 and g.b == 0 and g.c == 2
    with pytest.raises(ValueError):
        BinaryForm(2, 0, 2)
