"""Brute-force cross-checks for every classifier claim.

Nothing here trusts the decision routes: verdicts are re-derived from
exhaustive enumeration (value sweeps and row scans), or for route 1 from
Euler's criterion, and compared.
A disagreement is reported as a contradiction, never suppressed.

A witness against complete p-primitivity is an n that f represents only
with p | x and p | y; `_smallest_witnesses` finds the smallest one for
several primes from one sweep of the values of f.  It sets up each
prime's row scan once, and takes the first window of a reduced form,
which holds a alone, without a sweep.

The classification grid works one discriminant at a time, and derives
each brute-force fact once for it, for every cell to read.  It classifies
every prime of D, then searches each inverse pair [a, +-b, c] once for
all of them, because [a, -b, c](x, -y) = [a, b, c](x, y).  A positive
verdict needs the search up to the sweep bound, or up to its smallest
candidate p^2 a if that lies above, and a negative one up to a ceiling
that defaults to 50x the bound; the pair is searched at each prime up to
the larger need of its two members, and each cell reads the result at
its own, which it reports as its `bound`.  The grid then re-derives
every verdict's evidence.  A route-1 witness must be p^2 a = f(p, 0),
and (D/p) = -1 by Euler's criterion, D^((p-1)/2) = -1 mod p, or
D = 5 mod 8 for p = 2.  For odd p, p then divides neither a nor c, and
4a f = (2ax + by)^2 - D y^2 shows that p | f(x, y) forces p | x and
p | y; for p = 2, a, b and c are odd, and f = x^2 + xy + y^2 mod 2 does
the same.  So f represents p^2 a only imprimitively,
and no row is scanned.  Route-3 evidence is compared key by key
against facts derived once per class: its order, its square by
`compose`, and the order-4 test.  The order is read from the census,
`enumerate_classes(D).orders`, the same power walk that `classify_all`
reads, but the fact route 3 turns on is re-derived: ord(C) = 4 iff C^2
is ambiguous and not the principal form [1, D mod 2, (D mod 2 - D)/4],
which is built from D, not read from the census.  A claimed order that
disagrees with that fact is rejected.  `square_has_p_square` is
`_p_primitive` of p^2 by the square, scanned for each cell that claims
it, and a passing class's solution is checked by evaluating the square
at it.  `revalidate_verdict` alone derives every fact afresh.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import NamedTuple

from . import pprim
from .classgroup import MAX_ABS_D, compose, enumerate_classes
from .intarith import MAX_P, is_prime, primes_up_to
from .qform import BinaryForm, is_ambiguous, is_discriminant
from .pprim import (
    ROUTE_ORDER_FOUR_SQUARE,
    ROUTE_ORDER_FOUR_SQUARE_FAILED,
    ROUTE_PRINCIPAL_SQUARE,
    ROUTE_SYMBOL_MINUS_ONE,
    Verdict,
)
from .repcount import MAX_ROWS, rep_profile

STATUS_AGREES = "agrees"
STATUS_CONTRADICTION = "contradiction"
STATUS_UNCONFIRMED = "unconfirmed"

#: largest witness-search ceiling the grid accepts: one search without a
#: witness at the smallest prime,
#: _smallest_witnesses(BinaryForm(1, 1, 2), {2: 10**6}), takes 0.39-0.60 s
#: (2-vCPU VM)
MAX_CEILING = 10**6


def _p_primitive(f: BinaryForm, n: int, p: int) -> bool:
    """Whether f(x, y) = n, for p | n, has a solution with gcd(x, y, p) = 1:
    the scan of `_first_imprimitive` for the one candidate n."""
    return _first_imprimitive(_scan(f, p, 1), (n,), n, p) is None


def _scan(f: BinaryForm, p: int, scale: int) -> tuple[int, int, int, int]:
    """The coefficients (b, |D|, 2a, 4a scale) of the scans of f at p.

    The scan needs a first coefficient prime to p.  If p divides a, it
    uses f(y, x) = [c, b, a], or if p divides c too, f(x, x + y) =
    [a + b + c, b + 2c, c], whose first coefficient is b mod p, prime to p
    since p does not divide D = b^2 - 4ac; both maps are bijections of Z^2
    that keep gcd(x, y, p)."""
    a, b, c = f
    if a % p == 0:
        a, b, c = (c, b, a) if c % p else (a + b + c, b + 2 * c, c)
    return b, 4 * a * c - b * b, 2 * a, 4 * a * scale


def _first_imprimitive(scan: tuple[int, int, int, int], values: Iterable[int], top: int,
                       p: int) -> int | None:
    """The first m of the ascending `values`, up to top, for which f does
    not represent n = scale m, divisible by p, with gcd(x, y, p) = 1, or
    None; `scan` is `_scan(f, p, scale)`, worked out once for all of them.

    With p prime to a and dividing n, a solution with p | y has
    a x^2 = 0 mod p, so p | x too, and every solution with y prime to p is
    p-primitive.  So only those rows y >= 1 are scanned, by
    4an = (2ax + by)^2 + |D|y^2, and the scan of n stops at the first row
    that holds a solution.  It runs from the top row down: a row near the
    top of the ellipse f = n covers a longer arc of it than a row near
    y = 0, so a solution tends to come sooner (the acceptance grid's
    searches test 91179 rows instead of 151070 from the bottom up).  The
    values are read one at a time, and none after the first returned or
    the first above top.
    """
    b, abs_d, two_a, k = scan
    isqrt = math.isqrt
    for m in values:
        if m > top:
            break
        four_an = k * m
        # every row is tested: the default verify grid's 14027 rejected
        # candidates stop after 60250 rows, about 4.3 each, which cost less
        # than the mod-64 test of the row classes in
        # `repcount.half_plane_solutions`
        for y in range(isqrt(four_an // abs_d), 0, -1):
            if y % p:
                disc = four_an - abs_d * y * y
                s = isqrt(disc)
                if s * s == disc and ((s - b * y) % two_a == 0 or (s + b * y) % two_a == 0):
                    break
        else:
            return m
    return None


def _smallest_witnesses(f: BinaryForm, bounds: dict[int, int]) -> dict[int, int | None]:
    """Smallest witness n <= bounds[p] of f for each prime p, or None, from
    one sweep of the values of f.

    A witness for p is an n that f represents, but only with p | x and
    p | y, so n = p^2 m with m = f(x/p, y/p) <= top = bounds[p] // p^2;
    below p^2 there is nothing to sweep and no witness.  The values m of f
    are taken in windows lo < m <= hi, from hi = a (capped by the largest
    open top) with hi doubling up to it.  A form with |b| <= a <= c, such
    as a reduced one, takes no value below a, so its first window holds a
    alone and is not swept; every other window is a shell that
    `rep_profile` walks without the points below lo.  Each prime's scan is
    set up once by `_scan`, and within a window each open prime reads its
    candidates p^2 m straight off the window's sorted values, up to its
    top, in one `_first_imprimitive` call, which rejects a candidate at
    the first row that holds a p-primitive solution and returns the first
    whose rows hold none: the witness.  A prime closes at its first
    witness or once the window covers its top, and the sweep stops when
    every prime has closed.  Every value up to hi is checked before any
    value above it, so each prime's witness is the smallest, and each prime
    checks the same candidates, in the same order, as a search of its own.
    The windows tile (0, hi], so each value point is visited at most once:
    for a reduced form, whose least value is a, a search that stops at
    p^2 m sweeps up to hi < 2m, and one without a witness up to top.  The
    search is exhaustive for any form.
    """
    found = dict.fromkeys(bounds)
    tops = {p: bound // (p * p) for p, bound in bounds.items() if bound >= p * p}
    scans = {p: _scan(f, p, p * p) for p in tops}
    a, b, c = f
    lo, hi = 0, min(a, max(tops.values(), default=0))
    while tops:
        # the first window of a form with |b| <= a <= c holds a alone, which
        # no prime takes if every top lies below a
        values = sorted(rep_profile(f, hi, lo)) if lo or not abs(b) <= a <= c else [a]
        for p, top in list(tops.items()):
            m = _first_imprimitive(scans[p], values, top, p)
            if m is not None:
                found[p] = p * p * m
            if m is not None or hi >= top:
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

    Each cell is checked against one bound, which it reports as its
    `bound`: max(bound, p^2 a) for a positive verdict, since below the
    smallest candidate p^2 a there is nothing to search, and `ceiling`
    (default 50x bound) for a negative one.  A cell is a contradiction if
    its evidence fails revalidation or it is positive with a witness up to
    its bound; otherwise it agrees if it is positive or has such a
    witness, and is unconfirmed if not.  The window is checked one
    discriminant at a time: the forms [a, b, c] and [a, -b, c] share one
    `_smallest_witnesses` sweep for all primes of D, each prime searched
    up to the larger bound its two verdicts need, and each cell keeps the
    witness only if it lies within its own.  The facts the evidence is
    checked against are derived once per discriminant, as the module
    docstring says.  A bound below 1, a ceiling below the bound or above
    MAX_CEILING, a dmin below -MAX_ABS_D (the census limit), a pmax above
    `intarith.MAX_P`, a window whose discriminants sum to more than
    MAX_ABS_D in |D| (each costs a census and witness searches, and one
    census at the limit is the most the window may cost), a window with
    no (D, p) cell, or one whose (D, p) pairs hold more than
    `repcount.MAX_ROWS` two-square rows in all raises ValueError before any
    classification.  The two-square rows of a pair are the
    isqrt(4p^2/|D|) + 1 rows of p^2 by the principal form; a positive
    cell's search reaches its smallest candidate p^2 a, whose scan reads
    up to 2pa/sqrt|D| of its rows.  The cells are checked one after
    another in this process.
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
    if pmax > MAX_P:
        raise ValueError(f"pmax must be at most {MAX_P}, got {pmax}")
    primes = primes_up_to(pmax)
    # a census of D runs O(|D|) steps, so the window's census work is the
    # sum of |D| over its discriminants, capped at one census at the limit;
    # summed one discriminant at a time, a window far over the cap is
    # refused after a few thousand steps, and the list stays that short
    work, discriminants = 0, []
    for D in range(dmin, min(dmax, -3) + 1):
        if is_discriminant(D):
            work -= D
            if work > MAX_ABS_D:
                raise ValueError(f"the window's discriminants sum to at least {work} in |D|, "
                                 f"more than {MAX_ABS_D}, the census work at the limit")
            if any(D % p for p in primes):
                discriminants.append(D)
    if not discriminants:
        raise ValueError(f"no (D, p) cell with D in [{dmin}, {dmax}] and p <= {pmax}")
    # p^2 by the principal form has isqrt(4p^2 / |D|) + 1 rows; a positive
    # cell's search scans its candidate p^2 a over up to 2pa/sqrt|D| rows
    # of it: 34-101 ms for each of the three classes of D = -23 at
    # p = 999377 (2-vCPU VM).  The sum is checked one discriminant at a
    # time, so a window far over the cap is refused after little more than
    # MAX_ROWS steps
    rows = 0
    for D in discriminants:
        rows += sum(math.isqrt(4 * p * p // -D) + 1 for p in primes if D % p)
        if rows > MAX_ROWS:
            raise ValueError(f"the window's (D, p) pairs need at least {rows} "
                             f"two-square rows, more than {MAX_ROWS}")
    cells = []
    new = tuple.__new__  # as `pprim.classify_all` builds each Verdict
    for D in discriminants:
        verdicts = {p: pprim.classify_all(D, p) for p in primes if D % p}
        # [a, -b, c](x, -y) = [a, b, c](x, y): an inverse pair shares its
        # witnesses, searched up to the larger bound its members' verdicts
        # need; a positive one needs at least its smallest candidate p^2 a
        checks, searches = [], {}
        for p, vs in verdicts.items():
            p2 = p * p
            for v in vs:
                f, _, cpp, _, _ = v
                a, b, c = f
                top = max(bound, p2 * a) if cpp else ceiling
                key = a, abs(b), c
                _, need = searches.setdefault(key, (f, {}))
                if need.get(p, 0) < top:
                    need[p] = top
                checks.append((v, top, key))
        found = {key: _smallest_witnesses(f, need) for key, (f, need) in searches.items()}
        squares = {}
        for v, top, key in checks:
            f, p, cpp, route, _ = v
            searched = found[key][p]
            witness = searched if searched is not None and searched <= top else None
            if not _revalidate(v, squares) or cpp and witness is not None:
                status = STATUS_CONTRADICTION
            elif cpp or witness is not None:
                status = STATUS_AGREES
            else:
                status = STATUS_UNCONFIRMED
            cells.append(new(GridCell, (D, p, f, cpp, route, status, witness, top)))
    return GridReport(dmin, dmax, pmax, bound, ceiling, tuple(cells))


def revalidate_verdict(v: Verdict) -> bool:
    """Re-derive every fact a verdict's evidence claims.  The class must be
    a `BinaryForm`, the verdict a bool, and p an int that is a prime
    <= `intarith.MAX_P` and does not divide D, with the cap checked first;
    any other is rejected, never raised on.  An int is of type `int`
    exactly, so a bool is not one.  A route-3 class's order is read from
    the census, so the class must be a reduced form of a discriminant
    within MAX_ABS_D, and the order must be 4 exactly when the square is
    ambiguous and not principal.

    Every route's evidence must carry exactly the route's keys, and its
    numbers must be ints; evidence of another type or shape is rejected,
    never raised on.  A route-1 witness must be p^2 a = f(p, 0), with
    (D/p) = -1 by Euler's criterion, computed here; no row is scanned, and
    any other witness is rejected.  Route-3 evidence must equal the
    derived facts key for key, with `square_has_p_square` the bool
    `_p_primitive` gives for p^2 by the square, not an int equal to it; a
    passing verdict's solution, a list of two ints, is checked by
    evaluating the square class at it.
    """
    f, p = v.cls, v.p
    return (isinstance(f, BinaryForm) and type(v.completely_p_primitive) is bool
            and type(p) is int and p <= MAX_P and is_prime(p) and f.D % p != 0
            and _revalidate(v, {}))


def _revalidate(
    v: Verdict, squares: dict[BinaryForm, tuple[int, BinaryForm, list[int]] | None]
) -> bool:
    """`revalidate_verdict`, reading and filling the facts that the grid
    derives once per discriminant.  `squares` maps a route-3 class to its
    `_order_and_square`: its census order and its square, or None if the
    class is not in the census or its order fails the order-4 test; the
    evidence is compared with them key by key.  p is not checked here: the
    grid's primes are primes that do not divide D."""
    f, p, cpp, route, evidence = v
    if not isinstance(evidence, dict):
        return False
    # each route's evidence holds its keys and no other: as many keys, each
    # read by `get`, whose None no check accepts
    if route == ROUTE_SYMBOL_MINUS_ONE:
        n, D = evidence.get("witness"), f.D
        return (
            not cpp
            and len(evidence) == 1
            and type(n) is int
            and n == p * p * f.a
            and (D % 8 == 5 if p == 2 else pow(D % p, (p - 1) // 2, p) == p - 1)
        )
    if route == ROUTE_PRINCIPAL_SQUARE:
        m, n = evidence.get("m"), evidence.get("n")
        return (
            cpp
            and len(evidence) == 2
            and type(m) is int and type(n) is int
            and 4 * p * p == m * m - f.D * n * n
            and math.gcd(math.gcd(m, n), p) == 1
        )
    if f not in squares:
        squares[f] = _order_and_square(f)
    facts = squares[f]
    claimed_order, square_form = evidence.get("order"), evidence.get("square_form")
    if not (facts and len(evidence) == 3 and type(claimed_order) is int
            and claimed_order == facts[0] and square_form == facts[2]
            and type(square_form[0]) is type(square_form[1]) is type(square_form[2]) is int):
        return False
    order, square, _ = facts
    if route == ROUTE_ORDER_FOUR_SQUARE:
        xy = evidence.get("solution")
        return (
            cpp
            and order == 4
            and isinstance(xy, list) and len(xy) == 2
            and all(type(t) is int for t in xy)
            and square.evaluate(*xy) == p * p
            and math.gcd(*xy) % p != 0
        )
    if route == ROUTE_ORDER_FOUR_SQUARE_FAILED:
        has_sq = _p_primitive(square, p * p, p)
        return (
            not cpp
            and (order != 4 or not has_sq)
            and evidence.get("square_has_p_square") is has_sq
        )
    return False


def _order_and_square(f: BinaryForm) -> tuple[int, BinaryForm, list[int]] | None:
    """The census order of the class f, its square C^2 by `compose` and the
    square as a list, or None if f is not a class of the census or its
    order fails the test: ord(C) = 4 iff C^2 is not principal and has order
    2, with the principal form built from D, not read from the census that
    supplied the order."""
    D = f.D
    order = enumerate_classes(D).orders.get(f) if D >= -MAX_ABS_D else None
    if order is None:
        return None
    square = compose(f, f)
    if (order == 4) != (square != (1, D % 2, (D % 2 - D) // 4) and is_ambiguous(square)):
        return None
    return order, square, list(square)
