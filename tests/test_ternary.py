"""Ternary forms and the 1 mod 3 spectra identity demo."""

import json
import random
from fractions import Fraction

import pytest

from lemma_checks import det3, rep_count_table
from qprim.ternary import (
    CHANGE_OF_BASIS,
    MAX_BOUND,
    REDUCED_SHAPE,
    TernaryForm,
    build_fm,
    build_tilde_fm,
    one_mod_three_values,
    spectrum_identity_report,
    substitute,
)


def brute_value_counts(f, bound, box):
    out = {}
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            for z in range(-box, box + 1):
                v = f.evaluate(x, y, z)
                if 1 <= v <= bound:
                    out[v] = out.get(v, 0) + 1
    return out


def test_constructor_requires_positive_definite():
    with pytest.raises(ValueError):
        TernaryForm(1, 1, 1, 0, 0, 5)  # indefinite in the xy plane
    with pytest.raises(ValueError):
        TernaryForm(0, 1, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        TernaryForm(1, 1, -1, 0, 0, 0)
    with pytest.raises(ValueError, match="not positive definite"):
        TernaryForm(-1, -3, -5, -2, 0, 0)  # negative definite


def test_build_fm():
    f = build_fm(1)
    assert tuple(f) == (1, 3, 5, 2, 0, 0)
    assert tuple(build_fm(2)) == (4, 3, 5, 2, 0, 0)
    assert f.evaluate(1, 0, 0) == 1
    assert f.evaluate(0, 1, 1) == 10
    for bad in (0, -1, 3, 6):
        with pytest.raises(ValueError):
            build_fm(bad)


def test_tilde_closed_form():
    # f_m(3x + y - z, y, z) expands to these six coefficients
    for m in (1, 2, 4, 5):
        tilde = build_tilde_fm(m)
        m2 = m * m
        assert tuple(tilde) == (
            9 * m2,
            m2 + 3,
            m2 + 5,
            2 - 2 * m2,
            -6 * m2,
            6 * m2,
        )
    assert tuple(build_tilde_fm(1)) == (9, 4, 6, 0, -6, 6)


def test_tilde_is_the_substitution_pointwise():
    rng = random.Random(31)
    for m in (1, 2):
        f = build_fm(m)
        tilde = build_tilde_fm(m)
        for _ in range(300):
            x, y, z = (rng.randint(-6, 6) for _ in range(3))
            assert tilde.evaluate(x, y, z) == f.evaluate(3 * x + y - z, y, z)


def test_polar_is_the_cross_pairing():
    f = build_fm(1)
    rng = random.Random(37)
    for _ in range(200):
        u = tuple(rng.randint(-5, 5) for _ in range(3))
        v = tuple(rng.randint(-5, 5) for _ in range(3))
        lhs = f.polar(u, v)
        rhs = f.evaluate(u[0] + v[0], u[1] + v[1], u[2] + v[2]) - f.evaluate(*u) - f.evaluate(*v)
        assert lhs == rhs


def gram_det(f):
    """det of the (half-integral) Gram matrix, det(2G)/8."""
    return Fraction(det3(f.doubled_gram()), 8)


def test_gram_determinants():
    assert gram_det(build_fm(1)) == Fraction(14)
    # index-3 sublattice multiplies the determinant by 3^2, and the change
    # of basis to the reduced shape keeps it
    assert gram_det(build_tilde_fm(1)) == Fraction(126)
    assert gram_det(TernaryForm(*REDUCED_SHAPE)) == Fraction(126)
    assert gram_det(TernaryForm(1, 1, 1, 1, 0, 0)) == Fraction(3, 4)


def test_substitute_identity():
    f = build_fm(2)
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert substitute(f, ident) == f


def test_residues_mod_3():
    # residue classes (x, y, z) mod 3 where f_m is 1 mod 3, any m with 3 not | m
    expected = {
        (0, 1, 1),
        (0, 2, 2),
        (1, 0, 0),
        (2, 0, 0),
        (1, 1, 0),
        (2, 1, 0),
        (1, 2, 0),
        (2, 2, 0),
        (1, 2, 1),
        (2, 2, 1),
        (1, 1, 2),
        (2, 1, 2),
    }
    for m in (1, 2):
        f = build_fm(m)
        got = {
            (x, y, z)
            for x in range(3)
            for y in range(3)
            for z in range(3)
            if f.evaluate(x, y, z) % 3 == 1
        }
        assert got == expected


def test_rep_count_table_matches_box_scan():
    for f in (build_fm(1), build_tilde_fm(1), TernaryForm(*REDUCED_SHAPE)):
        small = brute_value_counts(f, 60, 12)
        saturated = brute_value_counts(f, 60, 15)
        assert small == saturated  # the box has stopped growing
        assert rep_count_table(f, 60) == saturated
    with pytest.raises(ValueError):
        rep_count_table(build_fm(1), 0)


def test_ternary_spectrum_basics():
    f1 = build_fm(1)
    assert {1, 3, 4, 5, 9, 16, 25, 49} <= rep_count_table(f1, 50).keys()
    tilde = build_tilde_fm(1)
    assert min(rep_count_table(tilde, 50)) == 4
    assert 1 not in rep_count_table(tilde, 50)


def test_unimodular_match_finds_change_of_basis():
    tilde = build_tilde_fm(1)
    target = TernaryForm(*REDUCED_SHAPE)
    rows = CHANGE_OF_BASIS
    assert det3(rows) in (1, -1)
    # columns of U substitute tilde into the target, checked pointwise
    cols = tuple(tuple(rows[i][j] for i in range(3)) for j in range(3))
    assert substitute(tilde, cols) == target
    rng = random.Random(41)
    for _ in range(100):
        v = tuple(rng.randint(-8, 8) for _ in range(3))
        image = tuple(sum(rows[i][j] * v[j] for j in range(3)) for i in range(3))
        assert tilde.evaluate(*image) == target.evaluate(*v)
    # so the two have the same theta series, here its prefix up to 200
    assert rep_count_table(tilde, 200) == rep_count_table(target, 200)


def test_spectrum_identity_report():
    report = spectrum_identity_report(300)
    assert report.ok
    assert report.sets_match
    assert report.sym_diff == (1,)
    assert report.change_of_basis is not None
    assert report.change_det in (1, -1)
    payload = report.to_json()
    assert payload["sym_diff"] == [1]
    assert payload["sets_match"] is True
    with pytest.raises(ValueError):
        spectrum_identity_report(5)
    # the limit is checked before any work, so MAX_BOUND + 1 costs nothing
    with pytest.raises(ValueError, match="bound must be in"):
        spectrum_identity_report(MAX_BOUND + 1)


def test_spectrum_identity_report_without_change_of_basis():
    report = spectrum_identity_report(1000)
    unproved = report._replace(change_of_basis=None, change_det=None)
    assert report.ok and not unproved.ok
    payload = unproved.to_json()
    assert payload["change_of_basis"] is None and payload["change_det"] is None
    json.dumps(payload)
    full = report.to_json()
    assert full["change_of_basis"] is not None
    del full["change_of_basis"], full["change_det"]
    del payload["change_of_basis"], payload["change_det"]
    assert payload == full


def one_mod_three_keys(table, bound):
    return {n for n in table if n % 3 == 1 and n <= bound}


def test_one_mod_three_values_match_lattice_count():
    # every bound from 10 to 600 (each residue of the bound mod 3, and the
    # top bit of the bitset) and 5000; rep_count_table(f, 600) restricted
    # to n <= bound is rep_count_table(f, bound)
    forms = (build_fm(1), build_tilde_fm(1))
    tables = [rep_count_table(f, 600) for f in forms]
    for bound in range(10, 601):
        assert one_mod_three_values(bound) == tuple(
            one_mod_three_keys(t, bound) for t in tables
        ), bound
    assert one_mod_three_values(5000) == tuple(
        one_mod_three_keys(rep_count_table(f, 5000), 5000) for f in forms
    )


def test_spectrum_identity_lhs_rhs_congruent():
    # each compared value really is 1 mod 3, and 1 itself only appears left
    report = spectrum_identity_report(200)
    f1_vals = {n for n in rep_count_table(build_fm(1), 200) if n % 3 == 1}
    tilde_vals = {n for n in rep_count_table(build_tilde_fm(1), 200) if n % 3 == 1}
    assert 1 in f1_vals and 1 not in tilde_vals
    assert f1_vals - {1} == tilde_vals
    assert report.sets_match
