"""Class enumeration and Dirichlet composition, cross-checked two ways."""

import math

import pytest

from helpers import composition_table
from qprim.classgroup import (
    MAX_ABS_D,
    ClassGroup,
    ProperClass,
    ambiguous_classes,
    compose,
    element_order,
    enumerate_classes,
    identity_form,
    inverse_class,
)
from qprim.qform import BinaryForm, discriminants_in, is_reduced, reduce


def brute_compose(f, g):
    """All composites obtained from every solution of the congruence system."""
    a1, b1 = f.a, f.b
    a2, b2 = g.a, g.b
    D = f.D
    e = math.gcd(a1, math.gcd(a2, (b1 + b2) // 2))
    A = a1 // e * (a2 // e)
    out = set()
    for B in range(2 * A):
        if (B - b1) % (2 * a1 // e):
            continue
        if (B - b2) % (2 * a2 // e):
            continue
        if (B * B - D) % (4 * A):
            continue
        out.add(reduce(BinaryForm(A, B, (B * B - D) // (4 * A))))
    return out


def test_identity_form():
    assert identity_form(-56).rep == BinaryForm(1, 0, 14)
    assert identity_form(-4).rep == BinaryForm(1, 0, 1)
    assert identity_form(-23).rep == BinaryForm(1, 1, 6)
    assert identity_form(-3).rep == BinaryForm(1, 1, 1)
    assert identity_form(-7).rep == BinaryForm(1, 1, 2)
    for D in (-5, 0, 8):
        with pytest.raises(ValueError, match="not a valid negative discriminant"):
            identity_form(D)


def test_enumerate_classes_examples():
    g = enumerate_classes(-56)
    assert g.h == 4
    assert [c.rep.triple() for c in g.classes] == [
        (1, 0, 14),
        (2, 0, 7),
        (3, -2, 5),
        (3, 2, 5),
    ]
    assert g.identity == ProperClass(BinaryForm(1, 0, 14))

    assert [c.rep.triple() for c in enumerate_classes(-23).classes] == [
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
        assert g.identity == identity_form(D)
        for cls in g.classes:
            f = cls.rep
            assert f.D == D
            assert is_reduced(f)
        assert list(g.classes) == sorted(g.classes)


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
                assert ProperClass(red) in enumerate_classes(f.D).classes


def test_compose_examples():
    def rep(f, g):
        return compose(ProperClass(f), ProperClass(g)).rep

    f = BinaryForm(3, 2, 5)
    assert rep(f, f) == BinaryForm(2, 0, 7)
    assert rep(f, BinaryForm(3, -2, 5)) == BinaryForm(1, 0, 14)
    assert rep(BinaryForm(2, 0, 7), BinaryForm(2, 0, 7)) == BinaryForm(1, 0, 14)
    assert rep(BinaryForm(2, 0, 7), f) == BinaryForm(3, -2, 5)
    assert rep(BinaryForm(2, 1, 3), BinaryForm(2, 1, 3)) == BinaryForm(2, -1, 3)


def test_compose_rejects_mixed_discriminants():
    with pytest.raises(ValueError):
        compose(ProperClass(BinaryForm(1, 0, 14)), ProperClass(BinaryForm(1, 1, 6)))


def test_compose_matches_congruence_scan():
    # any solution of the congruence system lands in the same class
    for D in (-23, -56, -71, -84):
        group = enumerate_classes(D)
        for x in group.classes:
            for y in group.classes:
                expected = compose(x, y).rep
                scanned = brute_compose(x.rep, y.rep)
                assert scanned == {expected}


def test_group_axioms_full_range():
    for D in discriminants_in(-2000, -3):
        group = enumerate_classes(D)
        table = composition_table(group)
        h = group.h
        e = group.classes.index(group.identity)
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
    a = ProperClass(BinaryForm(3, 2, 5))
    assert compose(a, a) == ProperClass(BinaryForm(2, 0, 7))
    assert compose(a, inverse_class(a)) == g.identity
    with pytest.raises(ValueError):
        compose(a, ProperClass(BinaryForm(1, 1, 6)))


def test_element_order_examples():
    g = enumerate_classes(-56)
    orders = {c.rep.triple(): element_order(c) for c in g.classes}
    assert orders == {(1, 0, 14): 1, (2, 0, 7): 2, (3, -2, 5): 4, (3, 2, 5): 4}
    g23 = enumerate_classes(-23)
    assert element_order(ProperClass(BinaryForm(2, 1, 3))) == 3
    assert element_order(g23.identity) == 1


def test_element_order_divides_h():
    # the cached table against a plain walk: x^ord is the identity and no
    # smaller power is
    for D in discriminants_in(-800, -3):
        g = enumerate_classes(D)
        for cls in g.classes:
            k = element_order(cls)
            assert g.h % k == 0
            power = cls
            for _ in range(k - 1):
                assert power != g.identity
                power = compose(power, cls)
            assert power == g.identity


def test_squares_match_compose():
    # the walk's squaring map against one composition per class
    for D in discriminants_in(-2000, -3):
        g = enumerate_classes(D)
        assert g.squares.keys() == set(g.classes)
        for cls in g.classes:
            assert g.squares[cls] == compose(cls, cls)


def test_ambiguous_classes_examples():
    g = enumerate_classes(-56)
    assert [c.rep.triple() for c in ambiguous_classes(g)] == [(1, 0, 14), (2, 0, 7)]
    g23 = enumerate_classes(-23)
    assert ambiguous_classes(g23) == [g23.identity]


def test_ambiguous_matches_syntactic_test():
    # order <= 2 exactly when the reduced form has b == 0, a == b, or a == c
    for D in discriminants_in(-2000, -3):
        g = enumerate_classes(D)
        by_shape = ambiguous_classes(g)
        by_order = [c for c in g.classes if compose(c, c) == g.identity]
        assert by_shape == by_order


def test_classgroup_record():
    g = enumerate_classes(-56)
    assert isinstance(g, ClassGroup)
    assert g.h == len(g.classes)
    table = composition_table(g)
    assert len(table) == g.h and all(len(row) == g.h for row in table)
