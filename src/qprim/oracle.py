"""Brute-force cross-checks for every classifier claim.

Nothing here trusts the decision routes: verdicts are re-derived from
exhaustive enumeration (value sweeps, matrix searches, valuation scans)
and compared.  A disagreement is reported as a contradiction, never
suppressed.

A witness against complete p-primitivity is an n that f represents only
with p | x and p | y, so n = p^2 f(x/p, y/p): every witness up to N lies
in p^2 * Q(f, N/p^2).  The witness search therefore sweeps the values of
f up to N/p^2 and checks each candidate p^2 m by enumerating its
solutions.  The classification grid runs that search at the sweep bound,
escalates a negative verdict without a witness to 10x the bound, then to
a ceiling that defaults to 50x, and re-derives every verdict's evidence.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import pprim
from .classgroup import (
    compose,
    element_order,
    enumerate_classes,
    identity_form,
    inverse_class,
)
from .intarith import check_prime_not_dividing, is_prime, primes_up_to, valuation
from .qform import (
    BinaryForm,
    IntMap2,
    discriminants_in,
    improper_automorph,
    transformed_coefficients,
)
from .pprim import (
    ROUTE_ORDER_FOUR_SQUARE,
    ROUTE_ORDER_FOUR_SQUARE_FAILED,
    ROUTE_PRINCIPAL_SQUARE,
    ROUTE_SYMBOL_MINUS_ONE,
    Verdict,
    build_isometry,
    p_square_in_class,
    solve_two_square,
)
from .repcount import enumerate_solutions, rep_counts, rep_profile, spectrum

STATUS_WITNESS = "witness_found"
STATUS_NO_WITNESS = "no_witness_up_to_bound"

STATUS_AGREES = "agrees"
STATUS_CONTRADICTION = "contradiction"
STATUS_UNCONFIRMED = "unconfirmed"

#: coordinate bound of the vectors verify_reflection_parity checks
REFLECTION_SAMPLE_BOUND = 15
#: trials of verify_product_membership, and the largest value it samples
PRODUCT_TRIALS = 40
PRODUCT_VALUE_CAP = 200


@dataclass(frozen=True)
class BruteVerdict:
    """Result of an exhaustive witness search up to a bound."""

    form: BinaryForm
    p: int
    bound: int
    witness: int | None
    status: str

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "form": list(self.form.triple()),
            "p": self.p,
            "status": self.status,
            "witness": self.witness,
        }


def brute_force_cpp(f: BinaryForm, p: int, bound: int) -> BruteVerdict:
    """Smallest n <= bound represented by f but never p-primitively, if any.

    Such an n has only solutions with p | x and p | y, so n = p^2 m with
    m = f(x/p, y/p) <= bound/p^2.  The candidates p^2 m are taken in
    ascending order from one sweep up to bound // p^2, and the first whose
    solutions all lie in pZ^2 is the witness.  The search is exhaustive;
    below p^2 there is nothing to sweep and no witness.
    """
    check_prime_not_dividing(p, f.D)
    if bound < 1:
        raise ValueError(f"brute_force_cpp requires bound >= 1, got {bound}")
    p2 = p * p
    if bound >= p2:
        for m in sorted(rep_profile(f, bound // p2)):
            n = p2 * m
            if all(x % p == 0 and y % p == 0 for x, y in enumerate_solutions(f, n)):
                return BruteVerdict(f, p, bound, n, STATUS_WITNESS)
    return BruteVerdict(f, p, bound, None, STATUS_NO_WITNESS)


def _matrix_search(f: BinaryForm, p: int, entry_bound: int) -> list[IntMap2]:
    """All T with f o T = p^2 f, det T = p^2, T != 0 mod p, entries within bound.

    The first column (u, v) must satisfy f(u, v) = p^2 a (the x^2
    coefficient of f o T), and for fixed (u, v) the cross-coefficient and
    determinant equations form a linear system in the second column with
    determinant 2p^2a != 0, so (r, s) = (-cv/a, u + bv/a) is forced.  The
    enumeration is therefore exhaustive; every candidate is still checked
    against the defining equations directly.
    """
    a, b, c = f.a, f.b, f.c
    p2 = p * p
    target = (p2 * a, p2 * b, p2 * c)
    found = []
    for u, v in enumerate_solutions(f, p2 * a):
        if max(abs(u), abs(v)) > entry_bound:
            continue
        if (c * v) % a != 0 or (b * v) % a != 0:
            continue
        r = -(c * v) // a
        s = u + (b * v) // a
        if max(abs(r), abs(s)) > entry_bound:
            continue
        if u % p == 0 and v % p == 0 and r % p == 0 and s % p == 0:
            continue
        t = IntMap2(u, r, v, s)
        if t.det != p2:
            continue
        if transformed_coefficients(f, t) != target:
            continue
        found.append(t)
    return found


def verify_isometry_matrix_search(D: int, p: int) -> bool:
    """Matrix-level oracle: a scaling isometry of the principal form exists
    iff the two-square equation 4p^2 = m^2 + |D|n^2 has a p-primitive
    solution.  Entries up to 2p*sqrt(max(a, c)) suffice; the constructed
    isometry must itself land inside that box.
    """
    check_prime_not_dividing(p, D)
    f = identity_form(D).rep
    entry_bound = 2 * p * (math.isqrt(max(f.a, f.c)) + 1)
    found = _matrix_search(f, p, entry_bound)
    sols = solve_two_square(D, p)
    if not sols:
        return not found
    t = build_isometry(f, sols[0])
    inside = all(abs(e) <= entry_bound for e in (t.m11, t.m12, t.m21, t.m22))
    return bool(found) and inside and t in found


def verify_reflection_parity(f: BinaryForm, q: int) -> bool:
    """For the reflection sigma of an ambiguous reduced form and q not | D:
    ord_q f(v +- sigma v) is even whenever the value is nonzero, and a
    vector outside qZ^2 whose value q divides is never fixed up to sign.
    Checked on every v with coordinates in [-REFLECTION_SAMPLE_BOUND,
    REFLECTION_SAMPLE_BOUND].
    """
    check_prime_not_dividing(q, f.D)
    sigma = improper_automorph(f)  # raises for non-ambiguous forms
    span = range(-REFLECTION_SAMPLE_BOUND, REFLECTION_SAMPLE_BOUND + 1)
    for x in span:
        for y in span:
            sx, sy = sigma(x, y)
            for wx, wy in ((x - sx, y - sy), (x + sx, y + sy)):
                val = f.evaluate(wx, wy)
                if val != 0 and valuation(q, val) % 2 != 0:
                    return False
            if (x % q, y % q) != (0, 0) and f.evaluate(x, y) % q == 0:
                if (sx, sy) in ((x, y), (-x, -y)):
                    return False
    return True


def verify_product_membership(D: int, p: int) -> bool:
    """Sampled product check: for a p-primitively represented by class X and
    alpha by class Z with gcd(a, alpha, D) = 1, the product a*alpha is
    p-primitively represented by X*Z or by X*Z^-1.

    Sampling is deterministic (seeded by D and p): PRODUCT_TRIALS pairs
    with a, alpha <= PRODUCT_VALUE_CAP, in at most 50 attempts per trial.
    Returns True only if every performed trial succeeds and at least one
    trial ran.
    """
    check_prime_not_dividing(p, D)
    rng = random.Random(f"product:{D}:{p}")
    group = enumerate_classes(D)
    pools = {x: spectrum(x.rep, PRODUCT_VALUE_CAP, p).qp_star for x in group.classes}
    checked = 0
    attempts = 0
    while checked < PRODUCT_TRIALS and attempts < PRODUCT_TRIALS * 50:
        attempts += 1
        x = rng.choice(group.classes)
        z = rng.choice(group.classes)
        if not pools[x] or not pools[z]:
            continue
        a = rng.choice(pools[x])
        alpha = rng.choice(pools[z])
        if math.gcd(math.gcd(a, alpha), D) != 1:
            continue
        n = a * alpha
        xz = compose(x, z)
        xz_inv = compose(x, inverse_class(z))
        if rep_counts(xz.rep, n, p).r_star_p == 0 and rep_counts(xz_inv.rep, n, p).r_star_p == 0:
            return False
        checked += 1
    return checked > 0


def verify_jones(k: int, p: int, bound: int) -> BruteVerdict:
    """Witness search for x^2 + k*y^2 at an odd prime p it represents,
    with gcd(p, 2k) = 1; the classical criterion predicts no witness."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not is_prime(p) or p == 2 or math.gcd(p, 2 * k) != 1:
        raise ValueError(f"p must be an odd prime coprime to 2k, got p = {p}, k = {k}")
    f = BinaryForm(1, 0, k)
    if not enumerate_solutions(f, p):
        raise ValueError(f"hypothesis not met: {p} is not represented by {f}")
    return brute_force_cpp(f, p, bound)


@dataclass(frozen=True)
class GridCell:
    """One (D, p, class) verdict checked against brute force."""

    D: int
    p: int
    form: BinaryForm
    cpp: bool
    route: str
    status: str
    witness: int | None
    bound: int

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "bound": self.bound,
            "cpp": self.cpp,
            "form": list(self.form.triple()),
            "p": self.p,
            "route": self.route,
            "status": self.status,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class GridReport:
    """Aggregate of a classification sweep, sorted by (D, p, form)."""

    dmin: int
    dmax: int
    pmax: int
    bound: int
    ceiling: int
    cells: tuple[GridCell, ...]

    @property
    def contradictions(self) -> tuple[GridCell, ...]:
        return tuple(c for c in self.cells if c.status == STATUS_CONTRADICTION)

    @property
    def unconfirmed(self) -> tuple[GridCell, ...]:
        return tuple(c for c in self.cells if c.status == STATUS_UNCONFIRMED)

    @property
    def ok(self) -> bool:
        return not self.contradictions

    def summary_json(self) -> dict:
        return {
            "bound": self.bound,
            "ceiling": self.ceiling,
            "cells": len(self.cells),
            "contradictions": [c.to_json() for c in self.contradictions],
            "dmax": self.dmax,
            "dmin": self.dmin,
            "ok": self.ok,
            "pmax": self.pmax,
            "unconfirmed": [c.to_json() for c in self.unconfirmed],
        }

    def to_json(self) -> dict:
        full = self.summary_json()
        full["all_cells"] = [c.to_json() for c in self.cells]
        return full


def _escalation_ladder(bound: int, ceiling: int) -> list[int]:
    """Witness-search bounds beyond the base bound: 10x first (capped by the
    ceiling), then the ceiling itself."""
    return sorted({b for b in (min(bound * 10, ceiling), ceiling) if b > bound})


def verify_classification_grid(
    dmin: int = -400,
    dmax: int = -3,
    pmax: int = 23,
    bound: int = 5000,
    ceiling: int | None = None,
) -> GridReport:
    """Classify every (D, p, class) cell in the window and re-check it by
    exhaustive witness searches and by re-deriving its evidence.

    Positive verdicts must show no witness <= bound.  Negative verdicts
    must produce a witness; the search escalates to 10x bound, then to
    `ceiling` (default 50x bound), and cells still lacking one are
    reported as unconfirmed rather than contradictions.  A verdict whose
    evidence fails `revalidate_verdict` is a contradiction.  A window with no
    (D, p) cell raises ValueError.  The cells are checked one after another
    in this process.
    """
    if ceiling is None:
        ceiling = bound * 50
    primes = primes_up_to(pmax)
    pairs = [(D, p) for D in discriminants_in(dmin, dmax) for p in primes if D % p]
    if not pairs:
        raise ValueError(f"no (D, p) cell with D in [{dmin}, {dmax}] and p <= {pmax}")
    rungs = [bound] + _escalation_ladder(bound, ceiling)
    cells = []
    for D, p in pairs:
        for v in pprim.classify_all(D, p):
            f = v.cls.rep
            for used in [bound] if v.completely_p_primitive else rungs:
                witness = brute_force_cpp(f, p, used).witness
                if witness is not None:
                    break
            if v.completely_p_primitive:
                status = STATUS_CONTRADICTION if witness is not None else STATUS_AGREES
            else:
                status = STATUS_AGREES if witness is not None else STATUS_UNCONFIRMED
            if not revalidate_verdict(v):
                status = STATUS_CONTRADICTION
            cells.append(
                GridCell(D, p, f, v.completely_p_primitive, v.route, status, witness, used)
            )
    cells.sort(key=lambda cell: (cell.D, cell.p, cell.form))
    return GridReport(dmin, dmax, pmax, bound, ceiling, tuple(cells))


def revalidate_verdict(v: Verdict) -> bool:
    """Re-derive from scratch every fact a verdict's evidence claims."""
    f = v.cls.rep
    p = v.p
    if v.route == ROUTE_SYMBOL_MINUS_ONE:
        rec = rep_counts(f, v.evidence["witness"], p)
        return not v.completely_p_primitive and rec.r > 0 and rec.r_star_p == 0
    if v.route == ROUTE_PRINCIPAL_SQUARE:
        m, n = v.evidence["m"], v.evidence["n"]
        return (
            v.completely_p_primitive
            and 4 * p * p == m * m - f.D * n * n
            and math.gcd(math.gcd(m, n), p) == 1
        )
    square = compose(v.cls, v.cls)
    if v.route == ROUTE_ORDER_FOUR_SQUARE:
        x, y = v.evidence["solution"]
        return (
            v.completely_p_primitive
            and v.evidence["square_form"] == list(square.rep.triple())
            and square.rep.evaluate(x, y) == p * p
            and math.gcd(math.gcd(x, y), p) == 1
            and element_order(v.cls) == 4
        )
    if v.route == ROUTE_ORDER_FOUR_SQUARE_FAILED:
        has_sq, _ = p_square_in_class(square, p)
        order = v.evidence["order"]
        return (
            not v.completely_p_primitive
            and v.evidence["square_has_p_square"] == has_sq
            and element_order(v.cls) == order
            and (order != 4 or not has_sq)
        )
    return False
