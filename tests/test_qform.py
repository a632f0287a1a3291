"""Binary forms, the unimodular action, and Gauss reduction."""

import math
import random

import pytest

from helpers import discriminants_in, raw_form, reduce_carrying_validating
from lemma_checks import apply_map, improper_automorph, omega
from qprim.classgroup import enumerate_classes, inverse_class
from qprim.oracle import verify_classification_grid
from qprim.pprim import classify_all
from qprim.qform import (
    BinaryForm,
    IntMap2,
    is_ambiguous,
    is_discriminant,
    is_reduced,
    reduce,
    reduce_carrying,
    transformed_coefficients,
)


def transformed_by_evaluation(f, m):
    """Coefficients of f(m11*x + m12*y, m21*x + m22*y), read off pointwise
    at (x, y) = (1, 0), (0, 1) and (1, 1)."""
    a = f.evaluate(m.m11, m.m21)
    c = f.evaluate(m.m12, m.m22)
    b = f.evaluate(m.m11 + m.m12, m.m21 + m.m22) - a - c
    return a, b, c


def product(m, n):
    """The matrix product m * n."""
    return IntMap2(
        m.m11 * n.m11 + m.m12 * n.m21,
        m.m11 * n.m12 + m.m12 * n.m22,
        m.m21 * n.m11 + m.m22 * n.m21,
        m.m21 * n.m12 + m.m22 * n.m22,
    )


def random_unimodular(rng, span=5):
    while True:
        m = IntMap2(*(rng.randint(-span, span) for _ in range(4)))
        if m.det == 1:
            return m


def test_constructor_validation():
    for abc, message in (
        ((1, 0, -1), "form [1,0,-1] has non-negative discriminant 4"),
        ((1, 2, 1), "form [1,2,1] has non-negative discriminant 0"),
        ((2, 0, 2), "form [2,0,2] is not primitive"),
        ((-1, 0, -1), "form [-1,0,-1] is negative definite (a <= 0)"),
        ((0, 1, 1), "form [0,1,1] has non-negative discriminant 1"),
    ):
        with pytest.raises(ValueError) as err:
            BinaryForm(*abc)
        assert str(err.value) == message


def test_form_basics():
    f = BinaryForm(3, 2, 5)
    assert f.D == -56
    assert f.evaluate(1, 0) == 3
    assert f.evaluate(0, 1) == 5
    assert f.evaluate(1, 1) == 10
    assert f.evaluate(-2, 1) == 13
    assert f.triple() == (3, 2, 5)
    assert str(f) == "[3,2,5]"
    assert repr(f) == "BinaryForm(a=3, b=2, c=5)"


def test_forms_hash_compare_and_sort_as_triples():
    f = BinaryForm(3, 2, 5)
    assert f == BinaryForm(3, 2, 5) and hash(f) == hash(BinaryForm(3, 2, 5))
    assert f != BinaryForm(3, -2, 5)
    assert {f: 1, BinaryForm(3, -2, 5): 2}[BinaryForm(3, 2, 5)] == 1
    forms = [BinaryForm(3, 2, 5), BinaryForm(1, 0, 14), BinaryForm(3, -2, 5), BinaryForm(2, 0, 7)]
    assert [g.triple() for g in sorted(forms)] == sorted(g.triple() for g in forms)
    with pytest.raises(AttributeError):
        f.a = 4


def test_is_discriminant():
    assert is_discriminant(-3) and is_discriminant(-4)
    assert is_discriminant(-56) and is_discriminant(-23)
    assert not is_discriminant(-5)  # -5 % 4 == 3
    assert not is_discriminant(-6)
    assert not is_discriminant(0)
    assert not is_discriminant(5)


def test_discriminants_in():
    ds = discriminants_in(-40, -3)
    assert ds[0] == -40 and ds[-1] == -3
    assert all(is_discriminant(D) for D in ds)
    assert -5 not in ds and -38 not in ds
    assert -39 in ds  # -39 = 1 mod 4
    assert len(discriminants_in(-2000, -3)) == 1000


def test_apply_map_examples():
    swap = IntMap2(0, -1, 1, 0)
    assert apply_map(BinaryForm(9, 14, 7), swap) == BinaryForm(7, -14, 9)
    assert apply_map(BinaryForm(2, 0, 7), IntMap2(1, 3, 0, 1)) == BinaryForm(2, 12, 25)


def test_transformed_coefficients_matches_evaluation():
    rng = random.Random(17)
    forms = [BinaryForm(1, 0, 14), BinaryForm(3, 2, 5), BinaryForm(2, 1, 3), BinaryForm(1, 1, 1)]
    for f in forms:
        for _ in range(300):
            m = IntMap2(*(rng.randint(-7, 7) for _ in range(4)))
            assert transformed_coefficients(f, m) == transformed_by_evaluation(f, m)


def test_apply_map_composes():
    rng = random.Random(23)
    for f in (BinaryForm(1, 0, 14), BinaryForm(2, 1, 3)):
        for _ in range(200):
            m = random_unimodular(rng)
            n = random_unimodular(rng)
            assert apply_map(f, product(m, n)) == apply_map(apply_map(f, m), n)


def test_apply_map_improper_and_scaled():
    # det -1 lands in the inverse class; non-unimodular maps generally
    # break primitivity and are rejected at construction time
    assert apply_map(BinaryForm(3, 2, 5), IntMap2(1, 0, 0, -1)) == BinaryForm(3, -2, 5)
    with pytest.raises(ValueError):
        apply_map(BinaryForm(1, 0, 14), IntMap2(2, 0, 0, 2))


def test_is_reduced():
    assert is_reduced(BinaryForm(1, 0, 14))
    assert is_reduced(BinaryForm(3, 2, 5))
    assert is_reduced(BinaryForm(2, 1, 3))
    assert is_reduced(BinaryForm(3, -2, 5))  # |b| < a < c, either sign allowed
    assert not is_reduced(BinaryForm(9, 14, 7))
    assert is_reduced(BinaryForm(2, -1, 3))  # |b| < a: either sign is fine
    assert not is_reduced(BinaryForm(2, -2, 3))  # |b| == a needs b >= 0
    assert not is_reduced(BinaryForm(3, -1, 3))  # a == c needs b >= 0


def test_reduce_examples():
    assert reduce(BinaryForm(9, 14, 7)) == BinaryForm(2, 0, 7)
    assert reduce(BinaryForm(7, -14, 9)) == BinaryForm(2, 0, 7)
    assert reduce(BinaryForm(1, -1, 6)) == BinaryForm(1, 1, 6)
    assert reduce(BinaryForm(3, 4, 6)) == BinaryForm(3, -2, 5)
    # ties: a = c and |b| = a both need b >= 0
    assert reduce(BinaryForm(3, -2, 3)) == BinaryForm(3, 2, 3)
    assert reduce(BinaryForm(2, -2, 3)) == BinaryForm(2, 2, 3)


def test_reduce_fixed_point():
    for f in (BinaryForm(1, 0, 14), BinaryForm(3, 2, 5), BinaryForm(1, 1, 1)):
        assert reduce(f) == f


def test_rep_is_the_class_reduced_form():
    assert BinaryForm(7, 0, 2).rep == BinaryForm(2, 0, 7)
    for f in (BinaryForm(1, 0, 14), BinaryForm(3, -2, 5), BinaryForm(2, 2, 3)):
        assert f.rep == f
    # a fresh form of D = -56 finds its census class's entry
    orders = enumerate_classes(-56).orders
    assert orders[BinaryForm(7, 0, 2).rep] == 2
    assert orders[BinaryForm(3, 8, 10).rep] == 4


def _outcome(kernel, f, x, y):
    """The result of `kernel(f, x, y)`, or the type and text of its error."""
    try:
        g, u, v = kernel(f, x, y)
    except (ValueError, TypeError) as err:
        return type(err), str(err)
    assert type(g) is BinaryForm
    return g, u, v


def test_reduce_carrying_matches_validating_reference():
    # every triple 1 <= a, c <= 40, |b| <= 80 of negative discriminant,
    # imprimitive ones included, with a seeded point carried along: the
    # same reduced form, point and error text as the loop that ends in
    # the validating constructor
    rng = random.Random(20261020)
    points = [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(16)]
    checked = imprimitive = 0
    for a in range(1, 41):
        for c in range(1, 41):
            for b in range(-80, 81):
                if b * b >= 4 * a * c:
                    continue
                x, y = points[checked % 16]
                got = _outcome(reduce_carrying, (a, b, c), x, y)
                assert got == _outcome(reduce_carrying_validating, (a, b, c), x, y)
                imprimitive += got[0] is ValueError
                checked += 1
    assert checked > 100000 and imprimitive > 10000


def test_reduce_carrying_errors_match_the_constructor():
    for f, error, message in (
        ((2, 2, 2), ValueError, "form [2,2,2] is not primitive"),
        ((6, 4, 10), ValueError, "form [6,4,10] is not primitive"),
        ((4, 0, 4), ValueError, "form [4,0,4] is not primitive"),
        ((10, 4, 6), ValueError, "form [6,-4,10] is not primitive"),
        ((1, 0, -1), ValueError, "cannot reduce non positive definite form (1, 0, -1)"),
        ((-2, 1, -3), ValueError, "cannot reduce non positive definite form (-2, 1, -3)"),
        ((0, 1, 1), ValueError, "cannot reduce non positive definite form (0, 1, 1)"),
        ((1.0, 0, 1), TypeError, "'float' object cannot be interpreted as an integer"),
        ((2, 1, 3.0), TypeError, "'float' object cannot be interpreted as an integer"),
    ):
        for kernel in (reduce_carrying, reduce_carrying_validating):
            assert _outcome(kernel, f, 1, 0) == (error, message), (kernel, f)
        with pytest.raises(error) as err:
            reduce(f)
        assert str(err.value) == message


def test_no_validating_constructor_inside_the_library(monkeypatch):
    # the census, the verdicts, every reduction and the grid build their
    # forms by `tuple.__new__`; the validating constructor is for input
    # from outside only
    calls = []

    def counting_new(cls, a, b, c):
        calls.append((a, b, c))
        return tuple.__new__(cls, (a, b, c))

    discriminants = random.Random(34).sample(discriminants_in(-10000, -1000), 20)
    monkeypatch.setattr(BinaryForm, "__new__", counting_new)
    enumerate_classes.cache_clear()
    verdicts = sum(len(classify_all(D, p)) for D in discriminants
                   for p in (2, 3, 5, 7, 11, 13) if D % p != 0)
    assert verdicts > 1000 and calls == []
    enumerate_classes.cache_clear()
    report = verify_classification_grid(-400, -3, 23, 5000)
    assert report.cells and calls == []
    assert BinaryForm(2, 0, 7) == (2, 0, 7) and calls == [(2, 0, 7)]


def test_reduce_invariant_under_unimodular_action():
    # the reduced representative is a class invariant, and the point that
    # `reduce_carrying` carries keeps its value and its gcd
    rng = random.Random(20260815)
    for D in discriminants_in(-2000, -3):
        for f in enumerate_classes(D).classes:
            for _ in range(2):
                m = random_unimodular(rng)
                g = apply_map(f, m)
                assert reduce(g) == f
                x, y = rng.randint(-9, 9), rng.randint(-9, 9)
                reduced, u, v = reduce_carrying(g, x, y)
                assert reduced == f and f.evaluate(u, v) == g.evaluate(x, y)
                assert math.gcd(u, v) == math.gcd(x, y)


def test_reduced_coefficient_bound():
    # reduced implies a <= sqrt(|D| / 3)
    for D in discriminants_in(-2000, -3):
        for f in enumerate_classes(D).classes:
            assert 3 * f.a * f.a <= -D


def test_inverse_rep():
    assert inverse_class(BinaryForm(3, 2, 5)) == BinaryForm(3, -2, 5)
    assert inverse_class(BinaryForm(3, -2, 5)) == BinaryForm(3, 2, 5)
    assert inverse_class(BinaryForm(2, 0, 7)) == BinaryForm(2, 0, 7)
    assert inverse_class(BinaryForm(1, 1, 6)) == BinaryForm(1, 1, 6)
    assert inverse_class(BinaryForm(2, 1, 3)) == BinaryForm(2, -1, 3)
    assert inverse_class(BinaryForm(2, 2, 3)) == BinaryForm(2, 2, 3)  # b = a
    assert inverse_class(BinaryForm(3, 1, 3)) == BinaryForm(3, 1, 3)  # a = c
    # an unreduced input: the mirror is reduced, [5, -2, 3] ~ [3, 2, 5]
    assert inverse_class(BinaryForm(5, 2, 3)) == BinaryForm(3, 2, 5)
    assert inverse_class(BinaryForm(3, 8, 10)) == reduce(BinaryForm(3, -8, 10))
    assert inverse_class(BinaryForm(3, -3, 5)) == BinaryForm(3, 3, 5)
    # involution
    for D in discriminants_in(-500, -3):
        for cls in enumerate_classes(D).classes:
            assert inverse_class(inverse_class(cls)) == cls


def test_is_ambiguous():
    assert is_ambiguous(BinaryForm(1, 0, 14))
    assert is_ambiguous(BinaryForm(2, 0, 7))
    assert is_ambiguous(BinaryForm(2, 2, 3))
    assert is_ambiguous(BinaryForm(3, 2, 3))
    assert not is_ambiguous(BinaryForm(3, 2, 5))
    assert not is_ambiguous(BinaryForm(2, 1, 3))
    with pytest.raises(ValueError):
        is_ambiguous(BinaryForm(9, 14, 7))  # not reduced


def test_omega():
    assert omega(-3) == 6
    assert omega(-4) == 4
    assert omega(-7) == 2
    assert omega(-56) == 2
    for D in (-5, 0, 4, 8):
        with pytest.raises(ValueError, match="not a valid negative discriminant"):
            omega(D)


def test_improper_automorph_examples():
    assert improper_automorph(BinaryForm(2, 0, 7)) == IntMap2(1, 0, 0, -1)
    assert improper_automorph(BinaryForm(1, 1, 1)) == IntMap2(1, 1, 0, -1)
    assert improper_automorph(BinaryForm(3, 2, 3)) == IntMap2(0, 1, 1, 0)
    with pytest.raises(ValueError):
        improper_automorph(BinaryForm(3, 2, 5))  # not ambiguous


def test_improper_automorph_properties():
    # det -1, fixes the form, and is an involution
    for D in discriminants_in(-2000, -3):
        for f in enumerate_classes(D).classes:
            if not is_ambiguous(f):
                continue
            s = improper_automorph(f)
            assert s.det == -1
            assert transformed_coefficients(f, s) == f.triple()
            assert product(s, s) == IntMap2(1, 0, 0, 1)


def test_raw_form_bypasses_validation():
    g = raw_form(2, 0, 2)
    assert g.triple() == (2, 0, 2)
    with pytest.raises(ValueError):
        reduce(raw_form(1, 0, -1))  # reduce still rejects indefinite input
