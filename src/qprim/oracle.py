"""Brute-force cross-checks for every classifier claim.

Nothing here trusts the decision routes: verdicts are re-derived from
exhaustive enumeration (value sweeps and solution counts) and compared.
A disagreement is reported as a contradiction, never suppressed.

A witness against complete p-primitivity is an n that f represents only
with p | x and p | y; `_smallest_witnesses` finds the smallest one for
several primes from one sweep of the values of f.

The classification grid works one discriminant at a time.  It classifies
every prime of D, then searches each inverse pair [a, +-b, c] once for
all of them, because [a, -b, c](x, -y) = [a, b, c](x, y).  A positive
verdict needs the search up to the sweep bound, and a negative one up to
a ceiling that defaults to 50x the bound; the pair is searched at each
prime up to the larger need of its two members, and each cell reads the
result at its own.  A negative cell is labelled with the first rung of
the ladder bound, 10x bound, ceiling that holds its witness.  The grid
re-derives every verdict's evidence with the same scan: a route-1 witness
must be a value of the class that `_p_primitive` rejects.  Route-3
evidence is compared as a whole, key for key, against facts derived here:
the square by `compose`, once per class of the discriminant,
`square_has_p_square` by `_p_primitive` of p^2 by that square, and a
passing class's solution by evaluating the square at it.  The order is
read from the census, `enumerate_classes(D).orders`, the same power walk
that `classify_all` reads, but the fact route 3 turns on is re-derived:
ord(C) = 4 iff C^2 is ambiguous and not the principal form
[1, D mod 2, (D mod 2 - D)/4], which is built from D, not read from the
census.  A claimed order that disagrees with that fact is rejected.
"""

from __future__ import annotations

import math
from itertools import takewhile
from typing import NamedTuple

from . import pprim
from .classgroup import MAX_ABS_D, compose, enumerate_classes
from .intarith import is_prime, primes_up_to
from .qform import BinaryForm, discriminants_in, is_ambiguous
from .pprim import (
    ROUTE_ORDER_FOUR_SQUARE,
    ROUTE_ORDER_FOUR_SQUARE_FAILED,
    ROUTE_PRINCIPAL_SQUARE,
    ROUTE_SYMBOL_MINUS_ONE,
    Verdict,
)
from .repcount import half_plane_solutions, rep_profile

STATUS_AGREES = "agrees"
STATUS_CONTRADICTION = "contradiction"
STATUS_UNCONFIRMED = "unconfirmed"

#: largest witness-search ceiling the grid accepts: one search without a
#: witness at the smallest prime,
#: _smallest_witnesses(BinaryForm(1, 1, 2), {2: 10**6}), takes about
#: 0.55 s (2-vCPU VM)
MAX_CEILING = 10**6


def _p_primitive(f: BinaryForm, n: int, p: int) -> bool:
    """Whether f(x, y) = n, for p | n, has a solution with gcd(x, y, p) = 1.

    The scan needs a first coefficient prime to p.  If p divides a, it
    uses f(y, x) = [c, b, a], or if p divides c too, f(x, x + y) =
    [a + b + c, b + 2c, c], whose first coefficient is b mod p, prime to p
    since p does not divide D = b^2 - 4ac; both maps are bijections of Z^2
    that keep gcd(x, y, p).  With p prime to a and dividing n, a solution
    with p | y has a x^2 = 0 mod p, so p | x too, and every solution with
    y prime to p is p-primitive.  So only those rows y >= 1 are scanned,
    by 4an = (2ax + by)^2 + |D|y^2, and the scan stops at the first row
    that holds a solution.  It runs from the top row down: a row near the
    top of the ellipse f = n covers a longer arc of it than a row near
    y = 0, so a solution tends to come sooner (on the acceptance grid,
    122717 rows tested instead of 183095 from the bottom up).
    """
    a, b, c = f
    if a % p == 0:
        a, b, c = (c, b, a) if c % p else (a + b + c, b + 2 * c, c)
    abs_d = 4 * a * c - b * b
    four_an = 4 * a * n
    two_a = 2 * a
    isqrt = math.isqrt
    for y in range(isqrt(four_an // abs_d), 0, -1):
        if y % p:
            disc = four_an - abs_d * y * y
            s = isqrt(disc)
            if s * s == disc and ((s - b * y) % two_a == 0 or (s + b * y) % two_a == 0):
                return True
    return False


def _smallest_witnesses(f: BinaryForm, bounds: dict[int, int]) -> dict[int, int | None]:
    """Smallest witness n <= bounds[p] of f for each prime p, or None, from
    one sweep of the values of f.

    A witness for p is an n that f represents, but only with p | x and
    p | y, so n = p^2 m with m = f(x/p, y/p) <= top = bounds[p] // p^2;
    below p^2 there is nothing to sweep and no witness.  The values m of f
    are swept in windows lo < m <= hi, from hi = a (capped by the largest
    open top) with hi doubling up to it.  Within a window each open prime
    checks its candidates p^2 m in ascending order with `_p_primitive`,
    which scans only the rows whose solutions are p-primitive and stops at
    the first that holds one; that rejects the candidate, and a candidate
    whose rows hold none is the witness.  A prime closes at its first
    witness or once the window covers its top, and the sweep stops when
    every prime has closed.  Every value up to hi is checked before any
    value above it, so each prime's witness is the smallest, and each prime
    checks the same candidates, in the same order, as a search of its own.
    For a reduced form, whose least value is a, a search that stops at
    p^2 m sweeps a total bound below 4m, and one without a witness below
    3 top.  The search is exhaustive for any form.
    """
    found = dict.fromkeys(bounds)
    tops = {p: bound // (p * p) for p, bound in bounds.items() if bound >= p * p}
    lo, hi = 0, min(f.a, max(tops.values(), default=0))
    while tops:
        values = sorted(filter(lo.__lt__, rep_profile(f, hi)))
        for p, top in list(tops.items()):
            p2 = p * p
            found[p] = next((p2 * m for m in takewhile(top.__ge__, values)
                             if not _p_primitive(f, p2 * m, p)), None)
            if found[p] is not None or hi >= top:
                del tops[p]
        lo, hi = hi, min(2 * hi, max(tops.values(), default=0))
    return found


class GridCell(NamedTuple):
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
        return {**self._asdict(), "form": list(self.form)}


class GridReport(NamedTuple):
    """Aggregate of a classification sweep, sorted by (D, p, form): the
    (D, p) pairs ascend, and `classify_all` keeps the census order."""

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
            **self._asdict(),
            "cells": len(self.cells),
            "contradictions": [c.to_json() for c in self.contradictions],
            "ok": self.ok,
            "unconfirmed": [c.to_json() for c in self.unconfirmed],
        }

    def to_json(self) -> dict:
        return {**self.summary_json(), "all_cells": [c.to_json() for c in self.cells]}


def verify_classification_grid(
    dmin: int, dmax: int, pmax: int, bound: int, ceiling: int | None = None
) -> GridReport:
    """Classify every (D, p, class) cell in the window and re-check it by
    an exhaustive witness search and by re-deriving its evidence.

    Positive verdicts must show no witness <= bound.  Negative verdicts
    must produce a witness <= `ceiling` (default 50x bound); the cell's
    `bound` is the first of bound, 10x bound and ceiling that holds the
    witness, and cells without one are reported as unconfirmed at the
    ceiling rather than as contradictions.  The window is checked one
    discriminant at a time: the forms [a, b, c] and [a, -b, c] share one
    `_smallest_witnesses` sweep for all primes of D, each prime searched
    up to the larger bound its two verdicts need, and each cell keeps the
    witness only if it lies within its own.  A verdict whose evidence
    fails revalidation is a contradiction; each class's square is composed
    once per discriminant.  A bound below 1, a ceiling below the bound or
    above MAX_CEILING, a dmin below -MAX_ABS_D (the census limit), or a
    window with no (D, p) cell raises ValueError before any search.  The
    cells are checked one after another in this process.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if ceiling is None:
        ceiling = bound * 50
    if ceiling < bound:
        raise ValueError(f"ceiling {ceiling} is below the bound {bound}")
    if ceiling > MAX_CEILING:
        raise ValueError(
            f"ceiling must be at most {MAX_CEILING}, got {ceiling} (default 50x the bound)"
        )
    if dmin < -MAX_ABS_D:
        raise ValueError(f"dmin must be at least {-MAX_ABS_D}, got {dmin}")
    primes = primes_up_to(pmax)
    discriminants = [D for D in discriminants_in(dmin, dmax) if any(D % p for p in primes)]
    if not discriminants:
        raise ValueError(f"no (D, p) cell with D in [{dmin}, {dmax}] and p <= {pmax}")
    rungs = sorted({bound, min(10 * bound, ceiling), ceiling})
    cells = []
    for D in discriminants:
        verdicts = {p: pprim.classify_all(D, p) for p in primes if D % p}
        # [a, -b, c](x, -y) = [a, b, c](x, y): an inverse pair shares its
        # witnesses, searched up to the larger bound its members' verdicts need
        searches = {}
        for p, vs in verdicts.items():
            for f, _, cpp, _, _ in vs:
                a, b, c = f
                _, need = searches.setdefault((a, abs(b), c), (f, {}))
                need[p] = max(need.get(p, 0), bound if cpp else ceiling)
        found = {key: _smallest_witnesses(f, need) for key, (f, need) in searches.items()}
        squares = {}
        for p, vs in verdicts.items():
            for v in vs:
                f, _, cpp, route, _ = v
                a, b, c = f
                top = bound if cpp else ceiling
                witness = found[a, abs(b), c][p]
                if witness is not None and witness > top:
                    witness = None
                used = next((r for r in rungs if witness is not None and witness <= r), top)
                if cpp:
                    status = STATUS_CONTRADICTION if witness is not None else STATUS_AGREES
                else:
                    status = STATUS_AGREES if witness is not None else STATUS_UNCONFIRMED
                if not _revalidate(v, squares):
                    status = STATUS_CONTRADICTION
                cells.append(GridCell(D, p, f, cpp, route, status, witness, used))
    return GridReport(dmin, dmax, pmax, bound, ceiling, tuple(cells))


def revalidate_verdict(v: Verdict) -> bool:
    """Re-derive every fact a verdict's evidence claims.  p must be a prime
    that does not divide D.  A route-3 class's order is read from the
    census, so the class must be a reduced form of a discriminant within
    MAX_ABS_D, and the order must be 4 exactly when the square is
    ambiguous and not principal.

    Every route's evidence must carry exactly the route's keys, and its
    numbers must be ints; evidence of another type or shape is rejected,
    never raised on.  A route-1 witness n >= 1 must be divisible by p,
    represented by the class and never p-primitively (`_p_primitive`).
    Route-3 evidence must equal the derived facts key for key, with
    `square_has_p_square` from `_p_primitive` of p^2 by the square; a
    passing verdict's solution, a list of two ints, is checked by
    evaluating the square class at it.
    """
    return is_prime(v.p) and v.cls.D % v.p != 0 and _revalidate(v, {})


def _revalidate(v: Verdict, squares: dict[BinaryForm, BinaryForm]) -> bool:
    """`revalidate_verdict`, reading and filling `squares`, the squares of
    the classes composed so far; the grid keeps one per discriminant, so
    each class is squared once for all of its route-3 primes.  p is not
    checked here: the grid's primes are primes that do not divide D."""
    f, p, cpp, route, evidence = v
    if route == ROUTE_SYMBOL_MINUS_ONE:
        if evidence.keys() != {"witness"}:
            return False
        n = evidence["witness"]
        return (
            not cpp
            and isinstance(n, int)
            and n >= 1
            and n % p == 0
            and next(half_plane_solutions(f, n), None) is not None
            and not _p_primitive(f, n, p)
        )
    if route == ROUTE_PRINCIPAL_SQUARE:
        if evidence.keys() != {"m", "n"}:
            return False
        m, n = evidence["m"], evidence["n"]
        return (
            cpp
            and isinstance(m, int) and isinstance(n, int)
            and 4 * p * p == m * m - f.D * n * n
            and math.gcd(math.gcd(m, n), p) == 1
        )
    D = f.D
    order = enumerate_classes(D).orders.get(f) if D >= -MAX_ABS_D else None
    if order is None:
        return False
    square = squares.get(f)
    if square is None:
        square = squares[f] = compose(f, f)
    # ord(C) = 4 iff C^2 is not principal and has order 2; the principal
    # form comes from D, not from the census that supplied `order`
    if (order == 4) != (square != (1, D % 2, (D % 2 - D) // 4) and is_ambiguous(square)):
        return False
    facts = {"order": order, "square_form": list(square)}
    if route == ROUTE_ORDER_FOUR_SQUARE:
        xy = evidence.get("solution")
        return (
            cpp
            and order == 4
            and evidence == {**facts, "solution": xy}
            and isinstance(xy, list) and len(xy) == 2
            and all(isinstance(t, int) for t in xy)
            and square.evaluate(*xy) == p * p
            and math.gcd(*xy) % p != 0
        )
    if route == ROUTE_ORDER_FOUR_SQUARE_FAILED:
        has_sq = _p_primitive(square, p * p, p)
        return (
            not cpp
            and (order != 4 or not has_sq)
            and evidence == {**facts, "square_has_p_square": has_sq}
        )
    return False
