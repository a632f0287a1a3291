"""Two-square solutions, scaling isometries, and the classification routes."""

import ast
import math
import random
from pathlib import Path

import pytest

from helpers import discriminants_in, two_square_scan
from qprim import pprim, repcount
from qprim.classgroup import ambiguous_classes, enumerate_classes
from qprim.intarith import kronecker, primes_up_to
from qprim.pprim import (
    ROUTE_ORDER_FOUR_SQUARE,
    ROUTE_ORDER_FOUR_SQUARE_FAILED,
    ROUTE_PRINCIPAL_SQUARE,
    ROUTE_SYMBOL_MINUS_ONE,
    ROUTES,
    TwoSquareSolution,
    Verdict,
    build_isometry,
    classify_all,
    solve_two_square,
)
from qprim.qform import BinaryForm, IntMap2, transformed_coefficients
from qprim.repcount import enumerate_solutions, rep_counts, spectrum


def brute_two_square(D, p):
    """Oracle: scan the full (m, n) box instead of solving for m."""
    out = set()
    for m in range(0, 2 * p + 1):
        for n in range(0, 2 * p + 1):
            if m * m - D * n * n == 4 * p * p and math.gcd(math.gcd(m, n), p) == 1:
                out.add((m, n))
    return out


def test_solve_two_square_examples():
    assert solve_two_square(-56, 3) is None
    assert solve_two_square(-56, 5) is None
    assert solve_two_square(-56, 23) == TwoSquareSolution(10, 6, 23)
    # the least n of (13, 3), (11, 5) and (2, 8)
    assert solve_two_square(-3, 7) == TwoSquareSolution(13, 3, 7)
    # the least n of (8, 3) and (6, 4)
    assert solve_two_square(-4, 5) == TwoSquareSolution(8, 3, 5)


def test_solve_two_square_preconditions():
    with pytest.raises(ValueError):
        solve_two_square(-56, 7)  # p | D
    assert solve_two_square(-56, 11) is None  # inert: no solution, no error
    with pytest.raises(ValueError):
        solve_two_square(-56, 4)  # not prime
    for D in (-5, 0, 8):
        with pytest.raises(ValueError, match="not a valid negative discriminant"):
            solve_two_square(D, 3)


def test_solve_two_square_matches_box_scan():
    # the box scan's solution with the least n (m >= 0 is fixed by n), and
    # None exactly when the scan finds none, inert primes included
    for D in discriminants_in(-120, -3):
        for p in primes_up_to(23):
            if D % p == 0:
                continue
            scan = brute_two_square(D, p)
            got = solve_two_square(D, p)
            if not scan:
                assert got is None
                continue
            m, n = min(scan, key=lambda mn: mn[1])
            assert got == TwoSquareSolution(m, n, p)


def test_two_square_solvability_matches_principal_rep():
    # (m, n) exists iff the principal form takes p^2 p-primitively
    for D in discriminants_in(-1000, -3):
        ident = enumerate_classes(D).classes[0]
        for p in primes_up_to(50):
            if kronecker(D, p) != 1:
                continue
            solvable = solve_two_square(D, p) is not None
            rec = rep_counts(ident, p * p, p)
            assert solvable == (rec.r_star_p > 0)


def test_build_isometry_worked_instances():
    t = build_isometry(BinaryForm(1, 0, 1), TwoSquareSolution(6, 4, 5))
    assert t == IntMap2(3, 4, -4, 3)
    t = build_isometry(BinaryForm(1, 1, 1), TwoSquareSolution(11, 5, 7))
    assert t == IntMap2(8, 5, -5, 3)
    t = build_isometry(BinaryForm(1, 0, 14), TwoSquareSolution(10, 6, 23))
    assert t == IntMap2(5, 84, -6, 5)


def test_build_isometry_rejects_bad_solutions():
    with pytest.raises(ValueError):
        build_isometry(BinaryForm(1, 0, 14), TwoSquareSolution(6, 4, 5))
    with pytest.raises(ValueError):
        build_isometry(BinaryForm(1, 0, 1), TwoSquareSolution(10, 0, 5))


def test_build_isometry_properties_sweep():
    for D in discriminants_in(-200, -3):
        for p in primes_up_to(23):
            if kronecker(D, p) != 1:
                continue
            sol = solve_two_square(D, p)
            if sol is None:
                continue
            p2 = p * p
            for f in enumerate_classes(D).classes:
                t = build_isometry(f, sol)
                entries = (t.m11, t.m12, t.m21, t.m22)
                assert t.det == p2
                assert transformed_coefficients(f, t) == (p2 * f.a, p2 * f.b, p2 * f.c)
                assert any(e % p != 0 for e in entries)
                assert (t.m11 + t.m22) % p != 0


def test_p_square_in_class():
    # route 3 at D = -56, p = 3: the square class [2,0,7] takes 9
    # 3-primitively, the square class [1,0,14] does not
    evidence = {v.cls.triple(): v.evidence for v in classify_all(-56, 3)}
    rec = rep_counts(BinaryForm(2, 0, 7), 9, 3)
    xy = next(s for s in rec.solutions if math.gcd(*s) % 3 != 0)
    assert BinaryForm(2, 0, 7).evaluate(*xy) == 9
    assert evidence[(3, 2, 5)]["square_form"] == [2, 0, 7]
    assert evidence[(3, 2, 5)]["solution"] == list(xy)  # the first such solution
    assert rep_counts(BinaryForm(1, 0, 14), 9, 3).r_star_p == 0
    assert evidence[(2, 0, 7)]["square_form"] == [1, 0, 14]
    assert evidence[(2, 0, 7)]["square_has_p_square"] is False
    assert rep_counts(enumerate_classes(-3).classes[0], 49, 7).r_star_p > 0


def test_classify_examples_d56_p3():
    verdicts = classify_all(-56, 3)
    by_form = {v.cls.triple(): v for v in verdicts}
    assert [v.cls.triple() for v in verdicts] == [
        (1, 0, 14),
        (2, 0, 7),
        (3, -2, 5),
        (3, 2, 5),
    ]
    assert not by_form[(1, 0, 14)].completely_p_primitive
    assert not by_form[(2, 0, 7)].completely_p_primitive
    assert by_form[(3, -2, 5)].completely_p_primitive
    assert by_form[(3, 2, 5)].completely_p_primitive
    v = by_form[(3, 2, 5)]
    assert v.route == ROUTE_ORDER_FOUR_SQUARE
    assert v.evidence["order"] == 4
    assert v.evidence["square_form"] == [2, 0, 7]
    x, y = v.evidence["solution"]
    assert BinaryForm(2, 0, 7).evaluate(x, y) == 9
    assert math.gcd(x, y) % 3 != 0
    v = by_form[(1, 0, 14)]
    assert v.route == ROUTE_ORDER_FOUR_SQUARE_FAILED
    assert v.evidence["order"] == 1
    v = by_form[(2, 0, 7)]
    assert v.route == ROUTE_ORDER_FOUR_SQUARE_FAILED
    assert v.evidence["order"] == 2


def test_classify_examples_other_routes():
    # inert prime: everything fails, witness is p^2 * a
    for v in classify_all(-56, 11):
        assert not v.completely_p_primitive
        assert v.route == ROUTE_SYMBOL_MINUS_ONE
        assert v.evidence["witness"] == 121 * v.cls.a
    # split prime with a two-square solution: everything passes
    for v in classify_all(-56, 23):
        assert v.completely_p_primitive
        assert v.route == ROUTE_PRINCIPAL_SQUARE
        assert (v.evidence["m"], v.evidence["n"]) == (10, 6)
    for v in classify_all(-3, 7):
        assert v.completely_p_primitive
        assert v.route == ROUTE_PRINCIPAL_SQUARE
        assert (v.evidence["m"], v.evidence["n"]) == (13, 3)
    # p = 2 behaves like any other prime
    for v in classify_all(-7, 2):
        assert v.completely_p_primitive
        assert v.route == ROUTE_PRINCIPAL_SQUARE
    for v in classify_all(-3, 2):
        assert not v.completely_p_primitive
        assert v.route == ROUTE_SYMBOL_MINUS_ONE


def test_classify_d56_p5():
    verdicts = classify_all(-56, 5)
    flags = [v.completely_p_primitive for v in verdicts]
    assert flags == [False, False, True, True]
    assert verdicts[2].route == ROUTE_ORDER_FOUR_SQUARE
    assert verdicts[2].evidence["square_form"] == [2, 0, 7]


def test_classify_preconditions():
    with pytest.raises(ValueError):
        classify_all(-56, 7)  # p | D
    with pytest.raises(ValueError):
        classify_all(-56, 4)  # not prime
    with pytest.raises(ValueError):
        classify_all(-56, 1)  # not prime


def test_classify_checks_p_before_the_census(monkeypatch):
    # a bad p is rejected without building the class group, which costs
    # O(|D|) near the census limit
    censuses = []

    def recording(D):
        censuses.append(D)
        return enumerate_classes(D)

    monkeypatch.setattr(pprim, "enumerate_classes", recording)
    for p in (4, 7):
        with pytest.raises(ValueError):
            classify_all(-56, p)
    assert censuses == []
    assert len(classify_all(-56, 3)) == 4 and censuses == [-56]


@pytest.mark.parametrize(
    "D, p, route",
    [
        (-56, 11, ROUTE_SYMBOL_MINUS_ONE),  # inert
        (-56, 23, ROUTE_PRINCIPAL_SQUARE),  # 4 * 23^2 = 10^2 + 56 * 6^2
        (-2604, 11, ROUTE_ORDER_FOUR_SQUARE_FAILED),  # route 3, h = 24
    ],
)
def test_classify_all_settles_pair_facts_once(monkeypatch, D, p, route):
    # (D/p), P^2 and the two-square equation depend on (D, p), not on the
    # class: one `_prime_squares` settles (D/p) and P^2, and route 1 needs
    # no `_two_square`
    calls = {"kronecker_prime": 0, "_prime_squares": 0, "_two_square": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(pprim, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(pprim, name, counting)
    verdicts = classify_all(D, p)
    assert len(verdicts) == enumerate_classes(D).h
    assert route in {v.route for v in verdicts}
    assert calls == {"kronecker_prime": 1, "_prime_squares": 1,
                     "_two_square": 0 if route == ROUTE_SYMBOL_MINUS_ONE else 1}


def test_classify_all_builds_exact_verdicts():
    # the verdicts are built by tuple.__new__, not the NamedTuple
    # constructor: each must still be exactly a five-field Verdict, on
    # every route
    routes = set()
    for D, p in [(-56, 3), (-56, 5), (-56, 11), (-56, 23), (-2604, 11)]:
        for v in classify_all(D, p):
            assert type(v) is Verdict and len(v) == 5
            assert tuple(v._asdict()) == Verdict._fields
            assert Verdict(**v._asdict()) == v
            routes.add(v.route)
    assert routes == set(ROUTES)


def test_root_mod_4p():
    # route 3's prime form [p, b, (b^2 - D)/4p] needs b^2 = D (mod 4p):
    # every prime below 2000 and four of the largest below 10^6, each at
    # 20 sampled D with (D/p) = 1
    rng = random.Random(1)
    for p in [*primes_up_to(2000), 999953, 999961, 999979, 999983]:
        samples = 0
        while samples < 20:
            D = -rng.randrange(3, 10**7)
            if D % 4 in (0, 1) and kronecker(D, p) == 1:
                b = pprim._root_mod_4p(D, p)
                assert 0 <= b < 2 * p and (b * b - D) % (4 * p) == 0, (D, p)
                samples += 1


def no_scan(*args):
    raise AssertionError(f"scanned {args}")


def test_route_three_corollaries(monkeypatch):
    # with P the prime class of p, a class passes route 3 iff ord(P) = 4 and
    # it lies in P*Cl[2]; so the passing classes of a (D, p) number 0,
    # #Cl[2] or h, and P^4 = 1 puts |D| <= 4p^4 when any class passes.
    # Routes 2 and 3 come from P o P without a row scan
    route_three_passes = 0
    for D in discriminants_in(-1500, -3):
        group = enumerate_classes(D)
        sizes = {0, len(ambiguous_classes(group)), group.h}
        for p in primes_up_to(23):
            if D % p == 0:
                continue
            with monkeypatch.context() as m:
                m.setattr(repcount, "enumerate_solutions", no_scan)
                verdicts = classify_all(D, p)
                solve_two_square(D, p)
            passing = sum(v.completely_p_primitive for v in verdicts)
            assert passing in sizes
            assert passing == 0 or -D <= 4 * p**4
            routed = [v for v in verdicts if v.route == ROUTE_ORDER_FOUR_SQUARE]
            route_three_passes += bool(routed)
            # P^2 has order 2, so it does not represent 1 and every solution
            # of p^2 by it is p-primitive; the evidence is the least of them
            for v in routed:
                square = BinaryForm(*v.evidence["square_form"])
                sols = enumerate_solutions(square, p * p)
                assert all(math.gcd(x, y) % p != 0 for x, y in sols)
                assert v.evidence["solution"] == list(sols[0])
    assert route_three_passes > 0


def test_classify_all_scans_no_rows_near_max_p(monkeypatch):
    # at the largest prime below MAX_P every route is still decided from
    # P o P, and its evidence holds
    p = 999983
    monkeypatch.setattr(repcount, "enumerate_solutions", no_scan)
    routes = set()
    for D in discriminants_in(-1500, -3):
        verdicts = classify_all(D, p)
        sol = solve_two_square(D, p)
        routes |= {v.route for v in verdicts}
        assert (verdicts[0].route == ROUTE_PRINCIPAL_SQUARE) == (sol is not None)
        for v in verdicts:
            if v.route == ROUTE_PRINCIPAL_SQUARE:
                assert (v.evidence["m"], v.evidence["n"]) == sol[:2]
                assert 4 * p * p == sol.m**2 - D * sol.n**2 and sol.m % p != 0
            elif v.route == ROUTE_ORDER_FOUR_SQUARE:
                x, y = v.evidence["solution"]
                assert BinaryForm(*v.evidence["square_form"]).evaluate(x, y) == p * p
    assert routes == set(ROUTES)


@pytest.mark.parametrize(
    "largest",
    [
        pytest.param(False, id="below_10^4"),
        # the reference scans about 1.15 * 10^6 rows for each: 5 s in all
        pytest.param(True, id="largest_12", marks=pytest.mark.slow),
    ],
)
def test_solve_two_square_matches_row_scan(largest):
    # the reduced point of P^2 against the principal form's row scan at
    # D = -3 and -4, whose six and four units give three and two images of
    # the point: every p below 10^4, and the twelve largest primes below 10^6
    primes = primes_up_to(10**6)[-12:] if largest else primes_up_to(10**4)
    for D in (-3, -4):
        for p in primes:
            if D % p:
                assert solve_two_square(D, p) == two_square_scan(D, p), (D, p)


def test_pprim_imports_nothing_from_repcount():
    tree = ast.parse(Path(pprim.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported and not any("repcount" in name for name in imported), imported


def test_routes_are_exhaustive():
    for D in discriminants_in(-200, -3):
        for p in primes_up_to(13):
            if D % p == 0:
                continue
            for v in classify_all(D, p):
                assert v.route in ROUTES
                assert v.p == p and v.cls.D == D


def test_verdict_json_shape():
    v = classify_all(-56, 3)[3]
    payload = v.to_json()
    assert payload["form"] == [3, 2, 5]
    assert payload["p"] == 3
    assert payload["cpp"] is True
    assert payload["route"] == ROUTE_ORDER_FOUR_SQUARE
    assert set(payload) == {"cpp", "evidence", "form", "p", "route"}


def test_ambiguous_true_forces_principal_square():
    # positive verdicts on ambiguous classes carry the principal_square
    # route, whose evidence certifies p^2 in Q_p^*(identity)
    for D in discriminants_in(-300, -3):
        group = enumerate_classes(D)
        for p in primes_up_to(13):
            if D % p == 0:
                continue
            for v in classify_all(D, p):
                if v.completely_p_primitive and group.orders[v.cls] <= 2:
                    assert v.route == ROUTE_PRINCIPAL_SQUARE
                    assert rep_counts(group.classes[0], p * p, p).r_star_p > 0


def test_positive_classes_closed_under_p_squared_scaling():
    # if a is p-primitively represented, so is a*p^2, for passing classes
    cases = [(-56, 3), (-56, 5), (-23, 2), (-31, 7)]
    bound = 5000
    for D, p in cases:
        for v in classify_all(D, p):
            if not v.completely_p_primitive:
                continue
            spec = spectrum(v.cls, bound, p)
            qp = set(spec.qp_star)
            q = set(spec.q)
            for a in qp:
                if a * p * p > bound:
                    continue
                assert a * p * p in qp
                assert a * p * p in q
