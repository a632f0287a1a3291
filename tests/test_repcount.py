"""Representation counts against a dumb box-scan oracle, plus the mass identity."""

import math

import pytest

from lemma_checks import mass
from qprim.classgroup import enumerate_classes, inverse_class
from qprim.qform import BinaryForm
from qprim.repcount import (
    MAX_BOUND,
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
    # the lazy row scan behind it yields the half-plane y >= 1 with x >= 1 on
    # the row y = 0, rows ascending
    for f in SAMPLE_FORMS:
        for n in range(1, 60):
            sols = brute_solutions(f, n)
            assert enumerate_solutions(f, n) == sols
            half = list(half_plane_solutions(f, n))
            assert sorted(half) == [(x, y) for x, y in sols if y > 0 or (y == 0 and x > 0)]
            assert [y for _, y in half] == sorted(y for _, y in half)
    assert list(half_plane_solutions(BinaryForm(3, 2, 5), 27)) == [(3, 0), (1, 2)]


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


def test_rep_counts_parity_and_split():
    # solutions come in (x, y) -> (-x, -y) pairs, so r is even; r = r* + r_flat
    for f in SAMPLE_FORMS:
        for n in range(1, 200):
            rec = rep_counts(f, n, 3)
            assert rec.r % 2 == 0
            assert rec.r == rec.r_star_p + rec.r_flat_p
            assert rec.r == len(rec.solutions)


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
