"""Class enumeration and Dirichlet composition, cross-checked two ways."""

import math
import random

import pytest

from helpers import composition_table, discriminants_in
from qprim import classgroup
from qprim.classgroup import (
    CACHED_GROUPS,
    MAX_ABS_D,
    ClassGroup,
    ambiguous_classes,
    compose,
    enumerate_classes,
    inverse_class,
)
from qprim.intarith import kronecker, prime_factors
from qprim.pprim import classify_all
from qprim.qform import BinaryForm, is_discriminant, is_reduced, reduce


def brute_compose(f, g):
    """All composites obtained from every solution B in [0, 2A) of the
    congruence system.  With e > 1 the first two congruences and the
    square one leave more than one class (D = -76: B = 2 and 6 for
    [4, 2, 5] with itself); the beta congruence picks out one."""
    a1, b1 = f.a, f.b
    a2, b2 = g.a, g.b
    D = f.D
    beta = (b1 + b2) // 2
    e = math.gcd(a1, math.gcd(a2, beta))
    A = a1 // e * (a2 // e)
    out = set()
    for B in range(2 * A):
        if (B - b1) % (2 * a1 // e):
            continue
        if (B - b2) % (2 * a2 // e):
            continue
        if (beta * B - (b1 * b2 + D) // 2) % (2 * a1 * a2 // e):
            continue
        if (B * B - D) % (4 * A):
            continue
        out.add(reduce(BinaryForm(A, B, (B * B - D) // (4 * A))))
    return out


def test_census_identity_orders_and_squares():
    # the principal form is the only reduced form with a = 1, so it sorts
    # first; the power walk keys every class once
    for D in discriminants_in(-4000, -3):
        g = enumerate_classes(D)
        assert g.classes[0] == BinaryForm(1, D % 2, (D % 2 - D) // 4)
        assert g.orders.keys() == g.squares.keys() == set(g.classes)
        assert g.orders[g.classes[0]] == 1


def test_enumerate_classes_examples():
    g = enumerate_classes(-56)
    assert g.h == 4
    assert [c.triple() for c in g.classes] == [
        (1, 0, 14),
        (2, 0, 7),
        (3, -2, 5),
        (3, 2, 5),
    ]
    assert g.classes[0] == BinaryForm(1, 0, 14)

    assert [c.triple() for c in enumerate_classes(-23).classes] == [
        (1, 1, 6),
        (2, -1, 3),
        (2, 1, 3),
    ]
    assert enumerate_classes(-3).h == 1
    assert enumerate_classes(-4).h == 1
    assert enumerate_classes(-47).h == 5
    assert enumerate_classes(-163).h == 1
    for D in (-5, 0, 8):
        with pytest.raises(ValueError, match="not a valid negative discriminant"):
            enumerate_classes(D)


def test_enumerate_classes_rejects_d_beyond_limit():
    # the next discriminants past the limit: 1 and 0 mod 4; rejected
    # before the O(|D|) loop
    for D in (-MAX_ABS_D - 3, -MAX_ABS_D - 4):
        with pytest.raises(ValueError, match=f"at most {MAX_ABS_D}, got D = {D}"):
            enumerate_classes(D)


def test_enumerate_classes_wellformed():
    for D in discriminants_in(-2000, -3):
        g = enumerate_classes(D)
        assert g.D == D
        assert len(set(g.classes)) == g.h >= 1
        for f in g.classes:
            assert type(f) is BinaryForm
            assert f.D == D
            assert is_reduced(f)
        assert list(g.classes) == sorted(g.classes)


def triple_loop_census(dmin, dmax):
    """{D: sorted triples} of the primitive reduced forms [a, b, c] with D in
    [dmin, dmax], from a loop over a, b and c: |b| <= a <= c, b >= 0 when
    |b| = a or a = c, and gcd(a, b, c) = 1."""
    census = {}
    a = 1
    while 3 * a * a <= -dmin:  # |D| = 4ac - b^2 >= 3a^2
        for b in range(-a, a + 1):
            # b^2 - 4ac lies in [dmin, dmax] for c in [c_lo, c_hi]
            c_lo = max(a, -((dmax - b * b) // (4 * a)))
            c_hi = (b * b - dmin) // (4 * a)
            for c in range(c_lo, c_hi + 1):
                if b < 0 and (-b == a or a == c):
                    continue
                if math.gcd(math.gcd(a, b), c) == 1:
                    census.setdefault(b * b - 4 * a * c, []).append((a, b, c))
        a += 1
    return {D: sorted(forms) for D, forms in census.items()}


def assert_census_matches_triple_loop(dmin, dmax):
    # uncached, so a wide window does not fill the census cache
    census = triple_loop_census(dmin, dmax)
    for D in discriminants_in(dmin, dmax):
        g = enumerate_classes.__wrapped__(D)
        assert [c.triple() for c in g.classes] == census.pop(D)
    assert census == {}  # no form of a D that is not a discriminant


def test_census_matches_triple_loop():
    assert_census_matches_triple_loop(-4000, -3)


@pytest.mark.slow
def test_census_matches_triple_loop_wide():
    for dmax in range(-3, -10**5, -5000):
        assert_census_matches_triple_loop(max(dmax - 4999, -10**5), dmax)


def full_walk_census(D):
    """Reference census with no mirror logic: every b in [-a, a] of D's
    parity is tested, and each power walk composes its way around the
    whole cycle x, x^2, ..., x^k = 1."""
    forms = []
    for a in range(1, math.isqrt(-D // 3) + 1):
        for b in range(-a + (a + D) % 2, a + 1, 2):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or b < 0 and (-b == a or a == c):
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                forms.append(BinaryForm(a, b, c))
    classes = tuple(forms)
    orders, squares = {}, {}
    for x in classes:
        if x in orders:
            continue
        powers = [x]
        while powers[-1] != classes[0]:
            powers.append(compose(powers[-1], x))
        k = len(powers)
        for j, y in enumerate(powers, 1):
            if y not in orders:
                orders[y] = k // math.gcd(j, k)
                squares[y] = powers[(2 * j - 1) % k]
    return ClassGroup(D, classes, orders, squares)


@pytest.mark.parametrize(
    "ds", [discriminants_in(-4000, -3), [-9999991, -(10**7)]], ids=["to_4000", "at_limit"]
)
def test_census_matches_full_power_walk(ds):
    # the half walk and the b >= 0 loop give the same group as walking
    # every cycle in full; uncached, so the window does not fill the cache
    for D in ds:
        assert enumerate_classes.__wrapped__(D) == full_walk_census(D)


@pytest.mark.slow
def test_census_matches_full_power_walk_large():
    # ten seeded D in [-10^7, -10^6], where the sieve of first
    # coefficients strikes out the most a
    rng = random.Random(31)
    ds = []
    while len(ds) < 10:
        D = rng.randint(-(10**7), -(10**6))
        if is_discriminant(D):
            ds.append(D)
    for D in ds:
        assert enumerate_classes.__wrapped__(D) == full_walk_census(D)


def test_skipped_first_coefficients_hold_no_form():
    # the census skips exactly the a that a prime q with (D/q) = -1
    # divides, and a plain loop finds no b in [0, a] with 4a | b^2 - D
    # for any of them
    for D in discriminants_in(-4000, -3):
        top = math.isqrt(-D // 3)
        tried = classgroup._first_coefficients(D)
        assert tried == sorted(set(tried))
        skipped = set(range(1, top + 1)).difference(tried)
        assert skipped == {
            a
            for a in range(1, top + 1)
            if any(kronecker(D, q) == -1 for q in prime_factors(a))
        }
        for a in skipped:
            assert all((b * b - D) % (4 * a) for b in range(a + 1))


def test_census_inversion_invariants():
    # a class and its inverse, the mirror, share their order, and the
    # square of the inverse is the inverse of the square
    for D in discriminants_in(-4000, -3):
        g = enumerate_classes.__wrapped__(D)
        for x in g.classes:
            x_inv = inverse_class(x)
            assert x_inv in g.orders
            assert g.orders[x_inv] == g.orders[x]
            assert g.squares[x_inv] == inverse_class(g.squares[x])


def test_census_composes_half_of_each_cycle(monkeypatch):
    # 5988 compositions over D in [-2000, -3]; the full walk takes 14200.
    # The walk reads each power's inverse off the mirrors its forms loop
    # built, and never calls inverse_class
    calls = 0

    def counting(x, z):
        nonlocal calls
        calls += 1
        return compose(x, z)

    def no_inverse(x):
        raise AssertionError("the census walk reads its own mirrors")

    monkeypatch.setattr(classgroup, "compose", counting)
    monkeypatch.setattr(classgroup, "inverse_class", no_inverse)
    for D in discriminants_in(-2000, -3):
        assert enumerate_classes.__wrapped__(D) == full_walk_census(D)
    assert calls == 5988


def test_census_complete_under_reduction():
    # every primitive definite form with small coefficients reduces into the census
    for a in range(1, 13):
        for b in range(-12, 13):
            for c in range(1, 13):
                if b * b - 4 * a * c >= 0:
                    continue
                if math.gcd(math.gcd(a, b), c) != 1:
                    continue
                f = BinaryForm(a, b, c)
                red = reduce(f)
                assert red in enumerate_classes(f.D).classes


def test_compose_examples():
    f = BinaryForm(3, 2, 5)
    assert compose(f, f) == BinaryForm(2, 0, 7)
    assert compose(f, BinaryForm(3, -2, 5)) == BinaryForm(1, 0, 14)
    assert compose(BinaryForm(2, 0, 7), BinaryForm(2, 0, 7)) == BinaryForm(1, 0, 14)
    assert compose(BinaryForm(2, 0, 7), f) == BinaryForm(3, -2, 5)
    assert compose(BinaryForm(2, 1, 3), BinaryForm(2, 1, 3)) == BinaryForm(2, -1, 3)


# pairs whose Bezout step is not the coprime one, by D: gcd(a1, a2) > 1
# with e = gcd(a1, a2, (b1 + b2)/2) = 1, and e > 1 below and at gcd(a1, a2),
# (b1 + b2)/2 zero and negative among them
BEZOUT_PAIRS = {
    "-55_gcd2_e1": ((2, -1, 7), (4, 3, 4), 2, 1),
    "-455_gcd6_e1": ((6, -1, 19), (12, 11, 12), 6, 1),
    "-1007_gcd9_e1": ((9, -1, 28), (18, 17, 18), 9, 1),
    "-1775_gcd12_e1": ((12, -1, 37), (24, 23, 24), 12, 1),
    "-20_square_e2": ((2, 2, 3), (2, 2, 3), 2, 2),
    "-56_mirrors_e3": ((3, -2, 5), (3, 2, 5), 3, 3),
    "-76_square_gcd4_e2": ((4, 2, 5), (4, 2, 5), 4, 2),
    "-455_gcd6_e2": ((6, 5, 20), (12, 11, 12), 6, 2),
    "-455_gcd6_e3": ((6, -5, 20), (12, 11, 12), 6, 3),
    "-455_gcd6_e6": ((6, 1, 19), (12, 11, 12), 6, 6),
    "-1143_gcd9_e3": ((9, -3, 32), (18, 15, 19), 9, 3),
    "-1775_gcd12_e3": ((12, 7, 38), (24, 23, 24), 12, 3),
    "-1775_gcd12_e4": ((12, -7, 38), (24, 23, 24), 12, 4),
    "-1775_gcd12_e12": ((12, 1, 37), (24, 23, 24), 12, 12),
    "-2000_gcd12_e2_negative": ((12, -8, 43), (24, -20, 25), 12, 2),
}


@pytest.mark.parametrize("x, z, g, e", BEZOUT_PAIRS.values(), ids=BEZOUT_PAIRS.keys())
def test_compose_bezout_pairs_match_congruence_scan(x, z, g, e):
    x, z = BinaryForm(*x), BinaryForm(*z)
    assert math.gcd(x.a, z.a) == g
    assert math.gcd(g, (x.b + z.b) // 2) == e
    assert brute_compose(x, z) == {compose(x, z)}
    assert brute_compose(z, x) == {compose(z, x)}


def test_compose_rejects_mixed_discriminants():
    with pytest.raises(ValueError):
        compose(BinaryForm(1, 0, 14), BinaryForm(1, 1, 6))


def test_compose_matches_congruence_scan():
    # any solution of the congruence system lands in the same class
    for D in (-23, -56, -71, -84):
        group = enumerate_classes(D)
        for x in group.classes:
            for y in group.classes:
                expected = compose(x, y)
                scanned = brute_compose(x, y)
                assert scanned == {expected}


def test_group_axioms_full_range():
    for D in discriminants_in(-2000, -3):
        group = enumerate_classes(D)
        table = composition_table(group)
        h = group.h
        e = 0  # the principal class sorts first
        rng = range(h)
        for i in rng:
            row = table[i]
            assert table[e][i] == i and row[e] == i
            for j in range(i, h):
                assert row[j] == table[j][i]
        for i, cls in enumerate(group.classes):
            inv = group.classes.index(inverse_class(cls))
            assert table[i][inv] == e
            assert sum(1 for j in rng if table[i][j] == e) == 1
        for i in rng:
            row_i = table[i]
            for j in rng:
                row_ij = table[row_i[j]]
                row_j = table[j]
                for k in rng:
                    assert row_ij[k] == row_i[row_j[k]]


def test_compose_class_level():
    g = enumerate_classes(-56)
    a = BinaryForm(3, 2, 5)
    assert compose(a, a) == BinaryForm(2, 0, 7)
    assert compose(a, inverse_class(a)) == g.classes[0]
    with pytest.raises(ValueError):
        compose(a, BinaryForm(1, 1, 6))


def test_orders_examples():
    g = enumerate_classes(-56)
    orders = {c.triple(): k for c, k in g.orders.items()}
    assert orders == {(1, 0, 14): 1, (2, 0, 7): 2, (3, -2, 5): 4, (3, 2, 5): 4}
    g23 = enumerate_classes(-23)
    assert g23.orders[BinaryForm(2, 1, 3)] == 3
    assert g23.orders[g23.classes[0]] == 1


def test_orders_divide_h():
    # the census table against a plain walk: x^ord is the identity and no
    # smaller power is
    for D in discriminants_in(-800, -3):
        g = enumerate_classes(D)
        for cls in g.classes:
            k = g.orders[cls]
            assert g.h % k == 0
            power = cls
            for _ in range(k - 1):
                assert power != g.classes[0]
                power = compose(power, cls)
            assert power == g.classes[0]


def test_squares_match_compose():
    # the walk's squaring map against one composition per class
    for D in discriminants_in(-2000, -3):
        g = enumerate_classes(D)
        assert g.squares.keys() == set(g.classes)
        for cls in g.classes:
            assert g.squares[cls] == compose(cls, cls)


def test_ambiguous_classes_examples():
    g = enumerate_classes(-56)
    assert [c.triple() for c in ambiguous_classes(g)] == [(1, 0, 14), (2, 0, 7)]
    g23 = enumerate_classes(-23)
    assert ambiguous_classes(g23) == [g23.classes[0]]


def test_ambiguous_matches_syntactic_test():
    # order <= 2 exactly when the reduced form has b == 0, a == b, or a == c
    for D in discriminants_in(-2000, -3):
        g = enumerate_classes(D)
        by_shape = ambiguous_classes(g)
        by_order = [c for c in g.classes if compose(c, c) == g.classes[0]]
        assert by_shape == by_order


def test_classes_key_and_sort_like_triples():
    g = enumerate_classes(-56)
    assert repr(g.classes[0]) == "BinaryForm(a=1, b=0, c=14)"
    assert str(g.classes[0]) == "[1,0,14]"
    assert sorted(reversed(g.classes)) == list(g.classes)
    index = {x: i for i, x in enumerate(g.classes)}
    assert len(index) == g.h == 4
    for i, abc in enumerate([(1, 0, 14), (2, 0, 7), (3, -2, 5), (3, 2, 5)]):
        x = BinaryForm(*abc)  # a fresh key equal to the census's
        assert x == g.classes[i] and hash(x) == hash(g.classes[i])
        assert index[x] == i
    with pytest.raises(AttributeError):
        g.classes[0].a = 2


def test_classgroup_record():
    g = enumerate_classes(-56)
    assert isinstance(g, ClassGroup)
    assert g.h == len(g.classes)
    table = composition_table(g)
    assert len(table) == g.h and all(len(row) == g.h for row in table)


def test_census_caches_stay_bounded():
    # a sweep over more discriminants than the caches hold evicts the
    # oldest groups; rebuilding one gives the same group and verdicts
    enumerate_classes.cache_clear()
    ds = [D for D in discriminants_in(-1200, -3) if D % 3]
    assert CACHED_GROUPS == 256 < len(ds)
    first = {D: [v.to_json() for v in classify_all(D, 3)] for D in ds}
    info = enumerate_classes.cache_info()
    assert info.maxsize == CACHED_GROUPS and info.currsize <= CACHED_GROUPS
    misses = enumerate_classes.cache_info().misses
    for D in ds[:10]:
        assert [v.to_json() for v in classify_all(D, 3)] == first[D]
        assert enumerate_classes(D) == enumerate_classes.__wrapped__(D)
    assert enumerate_classes.cache_info().misses == misses + 10
