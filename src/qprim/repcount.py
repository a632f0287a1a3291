"""Exhaustive representation counts for positive definite binary forms.

The key identity 4a*f(x, y) = (2ax + by)^2 + |D|*y^2 bounds |y| by
sqrt(4an/|D|) for f(x, y) = n, so solution sets are finite and cheap to
enumerate exactly at desk scale.  Every definite form has the automorph -I,
so (x, y) and (-x, -y) share their value, and both lattice sweeps walk only
the half-plane y >= 0.  The value sweep `rep_profile` returns the counts
r(n) and nothing else: each point it visits stands for itself and its
negative, so it adds 2.  Primitivity is read off the counts, because the
solutions of n in dZ^2 are d times the solutions of n/d^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .intarith import ceil_div, is_prime
from .qform import BinaryForm

#: largest bound spectrum accepts (about 1 s and 45 MB at [1,1,1], 2-vCPU VM)
MAX_BOUND = 10**6

#: largest number of rows the `represent` command sweeps, summed over the
#: classes: `enumerate_solutions(f, n)` walks the isqrt(4an // |D|) + 1 rows
#: y >= 0 (0.7-0.8 s for `represent -3` or `-4` at the limit, 2-vCPU VM)
MAX_ROWS = 3 * 10**6


def enumerate_solutions(f: BinaryForm, n: int) -> list[tuple[int, int]]:
    """All integer (x, y) with f(x, y) = n, sorted lexicographically."""
    if n < 1:
        raise ValueError(f"enumerate_solutions requires n >= 1, got {n}")
    a, b = f.a, f.b
    abs_d = -f.D
    out = []
    isqrt = math.isqrt
    four_an = 4 * a * n
    two_a = 2 * a
    for y in range(isqrt(four_an // abs_d) + 1):
        disc = four_an - abs_d * y * y
        s = isqrt(disc)
        if s * s != disc:
            continue
        for root in (s, -s) if s else (0,):
            num = -b * y + root
            if num % two_a == 0:
                x = num // two_a
                out.append((x, y))
                if y:
                    out.append((-x, -y))
    out.sort()
    return out


@dataclass(frozen=True)
class RepRecord:
    """Counts of f(x, y) = n: total r, p-primitive r_star_p, rest r_flat_p."""

    n: int
    p: int
    solutions: tuple[tuple[int, int], ...]
    r: int
    r_star_p: int
    r_flat_p: int


def rep_counts(f: BinaryForm, n: int, p: int) -> RepRecord:
    """RepRecord for f(x, y) = n; a solution is p-primitive iff gcd(x, y, p) = 1."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    sols = tuple(enumerate_solutions(f, n))
    r = len(sols)
    r_star = sum(1 for x, y in sols if math.gcd(x, y) % p != 0)
    return RepRecord(n, p, sols, r, r_star, r - r_star)


def rep_profile(f: BinaryForm, bound: int) -> dict[int, int]:
    """{n: r(n)} for every 1 <= n <= bound that f represents, from one sweep.

    The sweep visits one point of each pair (x, y), (-x, -y): the row
    y = 0 with x >= 1, and the rows y >= 1.  Each point therefore adds 2,
    and the count of n equals len(enumerate_solutions(f, n)).
    """
    if bound < 1:
        raise ValueError(f"rep_profile requires bound >= 1, got {bound}")
    a, b, c = f.a, f.b, f.c
    abs_d = -f.D
    # the row y = 0 holds (+-x, 0) with value a*x^2
    counts = {a * x * x: 2 for x in range(1, math.isqrt(bound // a) + 1)}
    get = counts.get
    ymax = math.isqrt(4 * a * bound // abs_d)
    for y in range(1, ymax + 1):
        disc = 4 * a * bound - abs_d * y * y
        s = math.isqrt(disc)
        xlo = ceil_div(-b * y - s, 2 * a)
        xhi = (-b * y + s) // (2 * a)
        cyy = c * y * y
        by = b * y
        # |2ax + by| <= s keeps 1 <= v <= bound without a test
        for x in range(xlo, xhi + 1):
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
    A bound above MAX_BOUND raises ValueError before any sweep."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
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
