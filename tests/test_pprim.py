"""Two-square solutions, scaling isometries, and the classification routes."""

import math

import pytest

from qprim import pprim
from qprim.classgroup import ambiguous_classes, enumerate_classes
from qprim.intarith import kronecker, primes_up_to
from qprim.pprim import (
    ROUTE_ORDER_FOUR_SQUARE,
    ROUTE_ORDER_FOUR_SQUARE_FAILED,
    ROUTE_PRINCIPAL_SQUARE,
    ROUTE_SYMBOL_MINUS_ONE,
    ROUTES,
    TwoSquareSolution,
    build_isometry,
    classify_all,
    solve_two_square,
)
from qprim.qform import BinaryForm, IntMap2, discriminants_in, transformed_coefficients
from qprim.repcount import rep_counts, spectrum


def brute_two_square(D, p):
    """Oracle: scan the full (m, n) box instead of solving for m."""
    out = set()
    for m in range(0, 2 * p + 1):
        for n in range(0, 2 * p + 1):
            if m * m - D * n * n == 4 * p * p and math.gcd(math.gcd(m, n), p) == 1:
                out.add((m, n))
    return out


def test_solve_two_square_examples():
    assert solve_two_square(-56, 3) == []
    assert solve_two_square(-56, 5) == []
    assert solve_two_square(-56, 23) == [TwoSquareSolution(10, 6, 23)]
    assert solve_two_square(-3, 7) == [
        TwoSquareSolution(13, 3, 7),
        TwoSquareSolution(11, 5, 7),
        TwoSquareSolution(2, 8, 7),
    ]
    assert solve_two_square(-4, 5) == [
        TwoSquareSolution(8, 3, 5),
        TwoSquareSolution(6, 4, 5),
    ]


def test_solve_two_square_preconditions():
    with pytest.raises(ValueError):
        solve_two_square(-56, 7)  # p | D
    assert solve_two_square(-56, 11) == []  # inert: no solution, no error
    with pytest.raises(ValueError):
        solve_two_square(-56, 4)  # not prime
    for D in (-5, 0, 8):
        with pytest.raises(ValueError, match="not a valid negative discriminant"):
            solve_two_square(D, 3)


def test_solve_two_square_matches_box_scan():
    for D in discriminants_in(-120, -3):
        for p in primes_up_to(23):
            if kronecker(D, p) != 1:
                continue
            got = {(s.m, s.n) for s in solve_two_square(D, p)}
            assert got == brute_two_square(D, p)
            for s in solve_two_square(D, p):
                assert s.p == p and s.m >= 0 and s.n >= 0


def test_two_square_solvability_matches_principal_rep():
    # (m, n) exists iff the principal form takes p^2 p-primitively
    for D in discriminants_in(-1000, -3):
        ident = enumerate_classes(D).identity
        for p in primes_up_to(50):
            if kronecker(D, p) != 1:
                continue
            solvable = bool(solve_two_square(D, p))
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
            sols = solve_two_square(D, p)
            if not sols:
                continue
            p2 = p * p
            for f in enumerate_classes(D).classes:
                t = build_isometry(f, sols[0])
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
    assert rep_counts(enumerate_classes(-3).identity, 49, 7).r_star_p > 0


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


@pytest.mark.parametrize(
    "D, p, route",
    [
        (-56, 11, ROUTE_SYMBOL_MINUS_ONE),  # inert
        (-56, 23, ROUTE_PRINCIPAL_SQUARE),  # 4 * 23^2 = 10^2 + 56 * 6^2
        (-2604, 11, ROUTE_ORDER_FOUR_SQUARE_FAILED),  # route 3, h = 24
    ],
)
def test_classify_all_settles_pair_facts_once(monkeypatch, D, p, route):
    # (D/p) and the two-square equation depend on (D, p), not on the class
    calls = {"kronecker": 0, "solve_two_square": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(pprim, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(pprim, name, counting)
    verdicts = classify_all(D, p)
    assert len(verdicts) == enumerate_classes(D).h
    assert route in {v.route for v in verdicts}
    assert calls["kronecker"] <= 1 and calls["solve_two_square"] <= 1


def test_route_three_corollaries(monkeypatch):
    # with P the prime class of p, a class passes route 3 iff ord(P) = 4 and
    # it lies in P*Cl[2]; so the passing classes of a (D, p) number 0,
    # #Cl[2] or h, and P^4 = 1 puts |D| <= 4p^4 when any class passes
    calls = []

    def counting(*args):
        calls.append(args)
        return rep_counts(*args)

    monkeypatch.setattr(pprim, "rep_counts", counting)
    route_three_passes = 0
    for D in discriminants_in(-1500, -3):
        group = enumerate_classes(D)
        sizes = {0, len(ambiguous_classes(group)), group.h}
        for p in primes_up_to(23):
            if D % p == 0:
                continue
            calls.clear()
            verdicts = classify_all(D, p)
            passing = sum(v.completely_p_primitive for v in verdicts)
            assert passing in sizes
            assert passing == 0 or -D <= 4 * p**4
            # one count of p^2 by P^2, made only when some class passes route 3
            routed = any(v.route == ROUTE_ORDER_FOUR_SQUARE for v in verdicts)
            assert len(calls) == routed
            route_three_passes += routed
    assert route_three_passes > 0


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
                    assert rep_counts(group.identity, p * p, p).r_star_p > 0


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
