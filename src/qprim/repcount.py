"""Exhaustive representation counts for positive definite binary forms.

The key identity 4a*f(x, y) = (2ax + by)^2 + |D|*y^2 bounds |y| by
sqrt(4an/|D|) for f(x, y) = n, so solution sets are finite and cheap to
enumerate exactly at desk scale.  Every definite form has the automorph -I,
so (x, y) and (-x, -y) share their value, and both lattice sweeps walk only
the half-plane y >= 0.  The row scan behind the point queries splits the
rows by the 2-adic valuation of y, capped at 3 (odd y, y = 2 mod 4, 4 mod
8 and 0 mod 8, a half, a quarter and two eighths of the rows), and keeps
a class only if 4an - |D|y^2 can be a square mod 64 for some y in it: a
table built at import, indexed by |D| mod 64, holds one bit per 4an mod
64 and class.  It walks each class kept as one arithmetic progression of
rows, steps 4an - |D|y^2 by subtraction, adds each point found with
its negative, and sorts the list once.
The value sweep `rep_profile` returns the counts r(n) and nothing else:
each point it visits stands for itself and its negative, so it adds 2.
Primitivity is read off the counts, because the solutions of n in dZ^2
are d times the solutions of n/d^2.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import or_
from typing import NamedTuple

from .intarith import ceil_div, check_prime
from .qform import BinaryForm

#: largest bound spectrum accepts (about 1 s and 45 MB at [1,1,1], 2-vCPU VM)
MAX_BOUND = 10**6

#: largest number of rows the `represent` command sweeps, summed over the
#: classes: `enumerate_solutions(f, n)` walks at most isqrt(4an // |D|) + 1
#: rows y >= 0, and the cap counts all of them (2-vCPU VM: 0.28-0.31 s of
#: scan, 0.4 s for the process, for `represent -3 6749999999999` or
#: `represent -4 8999999999997` at the limit, with three quarters of the
#: rows kept, the odd y and y = 2 mod 4; 0.10 s of scan with a quarter kept)
MAX_ROWS = 3 * 10**6


def _row_table() -> tuple:
    """_ROW_TABLE[|D| % 64]: per class of y (odd, 2 mod 4, 4 mod 8, 0 mod
    8), the row (first y, step, dec / |D|, inc / |D|, mask).  From y to
    y + step, 4an - |D|y^2 falls by dec = |D|step(2y + step), and dec grows
    by inc = 2|D|step^2.  Bit k of the mask is set iff k - |D|t is a square
    mod 64 for some t = y^2 mod 64 of the class (y < 64 give every t)."""
    squares = sum(1 << k for k in {s * s % 64 for s in range(32)})
    # the squares mod 64 rotated left by j: bits 64 - j to 127 - j of them twice
    rotated = [(squares << 64 | squares) >> 64 - j & (1 << 64) - 1 for j in range(64)]
    classes = [(r, m, {y * y % 64 for y in range(r, 64, m)})
               for r, m in ((1, 2), (2, 4), (4, 8), (0, 8))]
    return tuple(tuple((r, m, m * (2 * r + m), 2 * m * m,
                        reduce(or_, [rotated[d * t % 64] for t in ts]))
                       for r, m, ts in classes) for d in range(64))


_ROW_TABLE = _row_table()


def enumerate_solutions(f: BinaryForm, n: int) -> list[tuple[int, int]]:
    """All integer (x, y) with f(x, y) = n, sorted lexicographically.

    A solution has 4an - |D|y^2 = (2ax + by)^2, so the scan tests only the
    classes of y >= 0 that `_ROW_TABLE` keeps for |D| and 4an mod 64, each
    with 4an - |D|y^2 updated by subtraction.  Its rows hold one point of
    each pair (x, y), (-x, -y): y >= 1, or y = 0 and x >= 1; each point
    found is added with its negative."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a, b, c = f
    abs_d = 4 * a * c - b * b
    isqrt = math.isqrt
    four_an = 4 * a * n
    end = isqrt(four_an // abs_d) + 1
    out = []
    for r, step, dec1, inc1, mask in _ROW_TABLE[abs_d % 64]:
        if mask >> four_an % 64 & 1:
            disc, dec, inc = four_an - abs_d * r * r, abs_d * dec1, abs_d * inc1
            for y in range(r, end, step):
                s = isqrt(disc)
                if s * s == disc:
                    # the row y = 0 has s > 0 and keeps the root x = s / 2a > 0
                    for root in (s, -s) if s and y else (s,):
                        num = root - b * y
                        if num % (2 * a) == 0:
                            x = num // (2 * a)
                            out += ((x, y), (-x, -y))
                disc -= dec
                dec += inc
    out.sort()
    return out


class RepRecord(NamedTuple):
    """Counts of f(x, y) = n: total r, p-primitive r_star_p, rest r_flat_p."""

    n: int
    p: int
    solutions: tuple[tuple[int, int], ...]
    r: int
    r_star_p: int
    r_flat_p: int


def rep_counts(f: BinaryForm, n: int, p: int) -> RepRecord:
    """RepRecord for f(x, y) = n; a solution is p-primitive iff gcd(x, y, p) = 1.
    p must be a prime <= `intarith.MAX_P` and then n must be >= 1, both
    checked before any row."""
    check_prime(p)
    sols = tuple(enumerate_solutions(f, n))
    # gcd(x, y, p) > 1 iff p divides both x and y
    r_flat = len([0 for x, y in sols if x % p == 0 == y % p])
    return tuple.__new__(RepRecord, (n, p, sols, len(sols), len(sols) - r_flat, r_flat))


def rep_profile(f: BinaryForm, bound: int, lo: int = 0) -> dict[int, int]:
    """{n: r(n)} for every lo < n <= bound that f represents, from one sweep.

    The sweep visits one point of each pair (x, y), (-x, -y): the row
    y = 0 with x >= 1, and the rows y >= 1.  Each point therefore adds 2,
    and the count of n equals len(enumerate_solutions(f, n)).  A row y
    holds the values <= bound where |2ax + by| <= s = isqrt(4a bound -
    |D|y^2), and of those the values > lo where |2ax + by| > t =
    isqrt(4a lo - |D|y^2), if that radicand is >= 0; so the sweep walks
    the shell lo < n <= bound, at most two runs of x per row, and never
    the points inside it.  A lo below 0 counts as 0.
    """
    if bound < 1:
        raise ValueError(f"rep_profile requires bound >= 1, got {bound}")
    lo = max(lo, 0)
    a, b, c = f
    abs_d = 4 * a * c - b * b
    two_a = 2 * a
    # the row y = 0 holds (+-x, 0) with value a*x^2
    counts = {a * x * x: 2
              for x in range(math.isqrt(lo // a) + 1, math.isqrt(bound // a) + 1)}
    get = counts.get
    ymax = math.isqrt(4 * a * bound // abs_d)
    for y in range(1, ymax + 1):
        dyy = abs_d * y * y
        s = math.isqrt(4 * a * bound - dyy)
        by = b * y
        xlo = ceil_div(-by - s, two_a)
        xhi = (-by + s) // two_a
        inner = 4 * a * lo - dyy
        if inner >= 0:
            # skip the run -t <= 2ax + by <= t of values <= lo
            t = math.isqrt(inner)
            runs = (range(xlo, ceil_div(-by - t, two_a)), range((t - by) // two_a + 1, xhi + 1))
        else:
            runs = (range(xlo, xhi + 1),)
        cyy = c * y * y
        # |2ax + by| <= s keeps 1 <= v <= bound without a test
        for xs in runs:
            for x in xs:
                v = (a * x + by) * x + cyy
                counts[v] = get(v, 0) + 2
    return counts


class Spectrum(NamedTuple):
    """Represented values up to a bound: all, primitively, p-primitively."""

    q: list[int]
    q_star: list[int]
    qp_star: list[int]


def spectrum(f: BinaryForm, bound: int, p: int) -> Spectrum:
    """Sorted value sets Q, Q^*, Q_p^* of f up to bound; Q^* and Q_p^* sit inside Q.

    Both subsets are read off the counts r of one sweep.  The solutions of
    n in pZ^2 are p times the solutions of n/p^2, so n is p-primitively
    represented iff r(n) > r(n/p^2).  A solution with gcd(x, y) = g is g
    times a primitive solution of n/g^2, so the primitive counts follow
    from r by subtracting, in ascending n, those of each n/d^2 with d >= 2.
    A bound below 1 or above MAX_BOUND, or a p that is not a prime <=
    `intarith.MAX_P`, raises ValueError before any sweep."""
    check_prime(p)
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if bound > MAX_BOUND:
        raise ValueError(f"bound must be at most {MAX_BOUND}, got {bound}")
    r = rep_profile(f, bound)
    q = sorted(r)
    p2 = p * p
    qp_star = [n for n in q if r[n] > (r.get(n // p2, 0) if n % p2 == 0 else 0)]
    prim = dict(r)
    for m in q:
        for d in range(2, math.isqrt(bound // m) + 1):
            prim[m * d * d] -= prim[m]
    return Spectrum(q, [n for n in q if prim[n]], qp_star)
