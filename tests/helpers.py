"""Shared test helpers."""

import math
from functools import lru_cache

from qprim.classgroup import ClassGroup, compose
from qprim.intarith import ceil_div, is_prime
from qprim.qform import BinaryForm


def raw_form(a: int, b: int, c: int) -> BinaryForm:
    """BinaryForm bypassing constructor validation.  Negative tests only."""
    return tuple.__new__(BinaryForm, (a, b, c))


def composition_table(group: ClassGroup) -> list[list[int]]:
    """h x h table of class indices under composition, in `group.classes` order."""
    index = {c: i for i, c in enumerate(group.classes)}
    return [[index[compose(x, y)] for y in group.classes] for x in group.classes]


def brute_force_cpp_full_sweep(f: BinaryForm, p: int, bound: int) -> int | None:
    """Reference witness search: sweep every value of f up to bound and take
    the smallest n whose solutions all have p | gcd(x, y), or None.  The
    p^2-lattice search `oracle._smallest_witnesses` must return the same
    witness."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if f.D % p == 0:
        raise ValueError(f"p = {p} divides the discriminant {f.D}")
    for n, gcd_all in _sorted_profile(f, bound):
        if gcd_all % p == 0:
            return n
    return None


@lru_cache(maxsize=8)
def _sorted_profile(f: BinaryForm, bound: int) -> tuple[tuple[int, int], ...]:
    """Sorted (n, gcd of gcd(x, y) over the solutions of f(x, y) = n) for
    1 <= n <= bound.

    One sweep of the half-plane y >= 0 (x >= 1 on the row y = 0), which
    holds one of each pair (x, y), (-x, -y) of equal value and gcd.  It
    reads gcds, not counts, so it does not rest on r(p^2 m) = r(m) as the
    search it checks does.  The sweep does not depend on p, so a form's
    primes share it."""
    a, b, c = f.a, f.b, f.c
    abs_d = -f.D
    gcds = {a * x * x: x for x in range(1, math.isqrt(bound // a) + 1)}
    for y in range(1, math.isqrt(4 * a * bound // abs_d) + 1):
        s = math.isqrt(4 * a * bound - abs_d * y * y)
        for x in range(ceil_div(-b * y - s, 2 * a), (-b * y + s) // (2 * a) + 1):
            v = a * x * x + b * x * y + c * y * y
            gcds[v] = math.gcd(gcds.get(v, 0), x, y)
    return tuple(sorted(gcds.items()))
