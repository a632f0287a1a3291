"""The brute-force layer itself: witness sweeps, matrix search, parity,
product membership, and the classification grid."""

from collections import Counter

import pytest

from helpers import brute_force_cpp_full_sweep, raw_form
from lemma_checks import (
    verify_isometry_matrix_search,
    verify_jones,
    verify_product_membership,
    verify_reflection_parity,
)
from qprim import oracle, pprim
from qprim.classgroup import MAX_ABS_D, enumerate_classes
from qprim.intarith import primes_up_to
from qprim.oracle import (
    MAX_CEILING,
    STATUS_AGREES,
    STATUS_CONTRADICTION,
    STATUS_UNCONFIRMED,
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
from qprim.qform import BinaryForm, discriminants_in, is_ambiguous
from qprim.repcount import rep_counts, rep_profile


def test_brute_force_cpp_witnesses():
    assert _smallest_witnesses(BinaryForm(1, 0, 14), {3: 5000})[3] == 9
    assert _smallest_witnesses(BinaryForm(2, 0, 7), {3: 5000})[3] == 18
    assert _smallest_witnesses(BinaryForm(3, 2, 5), {3: 5000})[3] is None


def test_brute_force_cpp_matches_full_sweep():
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


def test_brute_force_cpp_sweeps_only_to_witness(monkeypatch):
    bounds = []
    checked = []

    def recording(f, bound):
        bounds.append(bound)
        return rep_profile(f, bound)

    def checking(f, n, p):
        checked.append(n)
        return _p_primitive(f, n, p)

    monkeypatch.setattr(oracle, "rep_profile", recording)
    monkeypatch.setattr(oracle, "_p_primitive", checking)
    # the witness 9 = 3^2 * 1 lies in the first window, (0, a]
    assert _smallest_witnesses(BinaryForm(1, 0, 14), {3: 5000})[3] == 9
    assert bounds == [1]
    assert checked == [9]
    # no witness: windows double from a = 3 up to top = 5000 // 9, and
    # every candidate 9m, m <= 555, is checked once, in ascending order
    bounds.clear()
    checked.clear()
    f = BinaryForm(3, 2, 5)
    assert _smallest_witnesses(f, {3: 5000})[3] is None
    assert bounds == [3, 6, 12, 24, 48, 96, 192, 384, 555]
    assert sum(bounds) < 3 * 555
    assert checked == [9 * m for m in sorted(rep_profile(f, 555))]
    # the witness 875 = 25 * 35 lies in the fourth window, (24, 48]: the
    # search checks the candidates below it in ascending order and stops
    bounds.clear()
    checked.clear()
    f = BinaryForm(6, 3, 17)
    assert _smallest_witnesses(f, {5: 5000})[5] == 875
    assert bounds == [6, 12, 24, 48]
    assert checked == [25 * m for m in sorted(rep_profile(f, 35))]
    assert checked == [150, 425, 500, 600, 650, 875]
    # primes share the sweep: 2 takes its witness 24 = 4 * 6 in the first
    # window, and the windows then run up to the top 200 of 5, not 25000;
    # 5 checks the same candidates as alone, and 3, below 3^2, has none
    bounds.clear()
    checked.clear()
    assert _smallest_witnesses(f, {2: 10**5, 5: 5000, 3: 3}) == {2: 24, 5: 875, 3: None}
    assert bounds == [6, 12, 24, 48]
    assert checked == [24, 150, 425, 500, 600, 650, 875]


def test_p_primitive_matches_rep_counts():
    # the early-stopping scan against the full count, for n = p m: every
    # class of every D in [-200, -3] as its reduced form, [c, -b, a] and
    # [a, b + 2a, a + b + c], each p <= 11 prime to D.  The shapes cover a
    # first coefficient divisible by p, and [2, 1, 2] at 2 and [3, 1, 3]
    # at 3 one whose a and c are both divisible by p.
    both = set()
    for D in discriminants_in(-200, -3):
        primes = [p for p in primes_up_to(11) if D % p]
        for x in enumerate_classes(D).classes:
            a, b, c = x.triple()
            for f in (x, BinaryForm(c, -b, a), BinaryForm(a, b + 2 * a, a + b + c)):
                for p in primes:
                    if f.a % p == 0 and f.c % p == 0:
                        both.add((*f, p))
                    for n in range(p, 30 * p + 1, p):
                        has = rep_counts(f, n, p).r_star_p > 0
                        assert _p_primitive(f, n, p) == has, (f, n, p)
    assert {(2, 1, 2, 2), (3, 1, 3, 3)} <= both
    # 8 = [2, 1, 2](1, -2) is 2-primitive, and [2, 1, 2] does not take 4
    assert _p_primitive(BinaryForm(2, 1, 2), 8, 2)
    assert not _p_primitive(BinaryForm(2, 1, 2), 4, 2)


@pytest.mark.slow
def test_brute_force_cpp_equals_full_sweep_wide():
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
    # a route-1 witness must be a value of the class that is divisible by p
    # and never p-primitive: 0 is not, nor 1, 14 and 15, which p = 11 does
    # not divide, nor 22, which [1, 0, 14] does not take
    v = classify_all(-56, 11)[0]
    assert v.cls.triple() == (1, 0, 14) and v.evidence == {"witness": 121}
    for witness in (121, 121 * 15):
        assert revalidate_verdict(v._replace(evidence={"witness": witness}))
    for witness in (0, 1, 14, 15, 22):
        assert not revalidate_verdict(v._replace(evidence={"witness": witness})), witness
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
    # p must be a prime that does not divide D = -56
    failed = [v for v in classify_all(-56, 3) if v.route == ROUTE_ORDER_FOUR_SQUARE_FAILED]
    assert [v.cls.triple() for v in failed] == [(1, 0, 14), (2, 0, 7)]
    for v in failed:
        assert revalidate_verdict(v)
        for p in (1, 2, 7):
            assert not revalidate_verdict(v._replace(p=p)), (v.cls, p)
    # a route-3 class must be a reduced class of the census, within its limit
    v = next(v for v in classify_all(-56, 3) if v.route == ROUTE_ORDER_FOUR_SQUARE)
    assert not revalidate_verdict(v._replace(cls=BinaryForm(3, 8, 10)))
    beyond = BinaryForm(1, 1, MAX_ABS_D // 4 + 1)
    assert beyond.D < -MAX_ABS_D
    for route_v in (v, failed[0]):
        assert not revalidate_verdict(route_v._replace(cls=beyond))


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


def test_escalation_ladder():
    # D = -56, p = 3: the negative classes [1,0,14] and [2,0,7] have the
    # witnesses 9 and 18; each is labelled with the first of bound,
    # 10x bound (capped by the ceiling) and ceiling that holds it
    for bound, ceiling, labels, unconfirmed in [
        (1, 100, [10, 100], 0),
        (1, 12, [10, 12], 1),
        (5, 12, [12, 12], 1),
        (5, 5, [5, 5], 2),
    ]:
        report = verify_classification_grid(-56, -56, 3, bound, ceiling)
        negatives = [c for c in report.cells if not c.cpp]
        assert [c.form.triple() for c in negatives] == [(1, 0, 14), (2, 0, 7)]
        assert [c.bound for c in negatives] == labels
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
    # no rung would lie above the bound, so the ceiling would go unused
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
    # D = -56, p = 3: [3, 2, 5] and [3, -2, 5] share one search at the bound;
    # the negatives [1, 0, 14] and [2, 0, 7] are each searched once at the
    # ceiling and labelled with the first rung that holds their witness
    calls = []
    real = oracle._smallest_witnesses

    def recording(f, bounds):
        calls.extend((f.triple(), p, bound) for p, bound in bounds.items())
        return real(f, bounds)

    monkeypatch.setattr(oracle, "_smallest_witnesses", recording)
    report = verify_classification_grid(-56, -56, 3, 5, ceiling=100)
    assert calls == [((1, 0, 14), 3, 100), ((2, 0, 7), 3, 100), ((3, -2, 5), 3, 5)]
    cells = {c.form.triple(): (c.witness, c.bound, c.status) for c in report.cells}
    assert cells == {
        (1, 0, 14): (9, 50, STATUS_AGREES),
        (2, 0, 7): (18, 50, STATUS_AGREES),
        (3, -2, 5): (None, 5, STATUS_AGREES),
        (3, 2, 5): (None, 5, STATUS_AGREES),
    }


@pytest.mark.parametrize(
    "p, bound, witness",
    [
        (3, 5000, None),  # made negative: no witness up to the ceiling
        (11, 100, None),  # made positive: 363 lies above its own bound
        (11, 1000, 363),  # made positive: 363 lies within it
    ],
)
def test_grid_checks_each_member_of_a_pair_at_its_own_bound(monkeypatch, p, bound, witness):
    # a classifier that flips the verdict of [3, 2, 5] at D = -56 and p, but
    # not of its mirror [3, -2, 5]: the pair is searched once, up to the
    # larger bound the two verdicts need, and each cell reads the search at
    # its own bound, so the mirror's cell does not change
    honest = verify_classification_grid(-56, -56, 11, bound)
    real = pprim.classify_all

    def flipping(D, q):
        return [v._replace(completely_p_primitive=not v.completely_p_primitive)
                if (q, v.cls) == (p, (3, 2, 5)) else v for v in real(D, q)]

    monkeypatch.setattr(pprim, "classify_all", flipping)
    report = verify_classification_grid(-56, -56, 11, bound)
    changed = [(c.p, c.form, c.witness, c.status)
               for c, h in zip(report.cells, honest.cells) if c != h]
    assert changed == [(p, (3, 2, 5), witness, STATUS_CONTRADICTION)]


@pytest.mark.parametrize("bound", [0, -5])
def test_grid_rejects_bound_below_one(bound):
    with pytest.raises(ValueError, match=f"bound must be >= 1, got {bound}"):
        verify_classification_grid(-20, -3, 3, bound)


@pytest.mark.parametrize("dmin", [-MAX_ABS_D - 3, -(10**12)])
def test_grid_rejects_dmin_beyond_census_limit(dmin):
    # a one-discriminant window, so even an unchecked dmin stays cheap
    with pytest.raises(ValueError, match=f"at least {-MAX_ABS_D}, got {dmin}"):
        verify_classification_grid(dmin, dmin, 3, 100)


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
