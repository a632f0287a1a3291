"""Exhaustive representation counts for positive definite binary forms.

The key identity 4a*f(x, y) = (2ax + by)^2 + |D|*y^2 bounds |y| by
sqrt(4an/|D|) for f(x, y) = n, so solution sets are finite and cheap to
enumerate exactly at desk scale.  Every definite form has the automorph -I,
so (x, y) and (-x, -y) share value and gcd, and both lattice sweeps walk
only the half-plane y >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .intarith import ceil_div, divisors, is_prime, kronecker
from .qform import BinaryForm, check_discriminant, omega

#: largest bound spectrum accepts (about 2 s and 75 MB of work)
MAX_BOUND = 10**6


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


class ValueStats(NamedTuple):
    """Per-value stats from a sweep: gcd over all solution gcd(x, y) values,
    and whether a primitive solution exists."""

    gcd_all: int
    primitive: bool


def rep_profile(f: BinaryForm, bound: int) -> dict[int, ValueStats]:
    """One lattice sweep over 1 <= f(x, y) <= bound.

    p-primitive solutions of n exist iff p does not divide gcd_all[n];
    primitive (gcd(x, y) = 1) solutions iff the primitive flag is set.
    """
    if bound < 1:
        raise ValueError(f"rep_profile requires bound >= 1, got {bound}")
    a, b, c = f.a, f.b, f.c
    abs_d = -f.D
    # the row y = 0 holds (+-x, 0) with value a*x^2 and gcd x
    raw: dict[int, list] = {
        a * x * x: [x, x == 1] for x in range(1, math.isqrt(bound // a) + 1)
    }
    gcd = math.gcd
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
            g = gcd(x, y)
            st = raw.get(v)
            if st is None:
                raw[v] = [g, g == 1]
            else:
                st[0] = gcd(st[0], g)
                st[1] = st[1] or g == 1
    return {n: ValueStats(g, prim) for n, (g, prim) in raw.items()}


class Spectrum(NamedTuple):
    """Represented values up to a bound: all, primitively, p-primitively."""

    q: list[int]
    q_star: list[int]
    qp_star: list[int]


def spectrum(f: BinaryForm, bound: int, p: int) -> Spectrum:
    """Sorted value sets Q, Q^*, Q_p^* of f up to bound; Q^* and Q_p^* sit inside Q.

    A bound above MAX_BOUND raises ValueError before any sweep."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if bound > MAX_BOUND:
        raise ValueError(f"bound must be at most {MAX_BOUND}, got {bound}")
    prof = rep_profile(f, bound)
    q = sorted(prof)
    q_star = [n for n in q if prof[n].primitive]
    qp_star = [n for n in q if prof[n].gcd_all % p != 0]
    return Spectrum(q, q_star, qp_star)


def mass(n: int, D: int) -> int:
    """omega(D) * sum over k | n of (D/k): the total representation count of n
    over all classes of discriminant D, valid whenever gcd(n, D) = 1."""
    if n < 1:
        raise ValueError(f"mass requires n >= 1, got {n}")
    check_discriminant(D)
    return omega(D) * sum(kronecker(D, k) for k in divisors(n))
