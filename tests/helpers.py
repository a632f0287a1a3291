"""Shared test helpers."""

import math
from collections.abc import Iterator
from functools import lru_cache

from qprim.classgroup import ClassGroup, compose
from qprim.intarith import ceil_div, is_prime
from qprim.pprim import TwoSquareSolution
from qprim.qform import BinaryForm, is_discriminant, is_reduced
from qprim.repcount import half_plane_solutions


def raw_form(a: int, b: int, c: int) -> BinaryForm:
    """BinaryForm bypassing constructor validation.  Negative tests only."""
    return tuple.__new__(BinaryForm, (a, b, c))


def reduce_carrying_validating(f, x, y):
    """Reference for `qform.reduce_carrying`: the same Gauss-reduction loop,
    ending in the validating `BinaryForm` constructor and `is_reduced`."""
    a, b, c = f
    if b * b - 4 * a * c >= 0 or a <= 0:
        raise ValueError(f"cannot reduce non positive definite form {f}")
    while True:
        if b <= -a or b > a:
            t = (a - b) // (2 * a)
            b, c = b + 2 * a * t, (a * t + b) * t + c
            x -= t * y
        if a < c or (a == c and b >= 0):
            break
        a, b, c = c, -b, a
        x, y = y, -x
    g = BinaryForm(a, b, c)
    assert is_reduced(g)
    return g, x, y


def discriminants_in(dmin: int, dmax: int) -> list[int]:
    """Valid negative discriminants in [dmin, dmax], ascending."""
    return [D for D in range(dmin, min(dmax, -3) + 1) if is_discriminant(D)]


def two_square_scan(D: int, p: int) -> TwoSquareSolution | None:
    """Reference for `pprim.solve_two_square`: 4p^2 = (2x + ey)^2 + |D|y^2
    for the principal form [1, e, (e - D)/4] at p^2, with e = D mod 2, so
    `half_plane_solutions` of p^2 by that form returns the solutions by
    ascending n = y, and the scan stops at the first p-primitive one."""
    e = D % 2
    for x, y in half_plane_solutions(BinaryForm(1, e, (e - D) // 4), p * p):
        m = abs(2 * x + e * y)
        if math.gcd(m, y, p) == 1:
            return TwoSquareSolution(m, y, p)
    return None


def half_plane_solutions_unfiltered(f: BinaryForm, n: int) -> Iterator[tuple[int, int]]:
    """Reference for `repcount.half_plane_solutions`: the same row scan
    through every row 0 <= y <= isqrt(4an/|D|), with no class of y
    skipped."""
    if n < 1:
        return
    a, b, c = f
    abs_d = 4 * a * c - b * b
    four_an = 4 * a * n
    two_a = 2 * a
    for y in range(math.isqrt(four_an // abs_d) + 1):
        disc = four_an - abs_d * y * y
        s = math.isqrt(disc)
        if s * s != disc:
            continue
        for root in (s, -s) if s and y else (s,):
            num = -b * y + root
            if num % two_a == 0:
                yield num // two_a, y


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


def full_width_row_patterns(top: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nine full-width row patterns of g = [3, 2, 5], as bitsets up to
    bit top.

    Entry [r][j], r in 0..2, is the pair (same, other): same has bit
    3k^2 + 2rk + 1 for each k = j (mod 3), other for each k != j (mod 3).
    The + 1 keeps every bit at or above 0: 3k^2 + 2rk is -1 at k = -1,
    r = 2.
    """
    kmax = math.isqrt(top // 3) + 2
    patterns = []
    for r in range(3):
        by_class = [bytearray(top // 8 + 1) for _ in range(3)]
        for k in range(-kmax, kmax + 1):
            v = 3 * k * k + 2 * r * k + 1
            if v <= top:
                by_class[k % 3][v >> 3] |= 1 << (v & 7)
        p = [int.from_bytes(b, "little") for b in by_class]
        patterns.append(tuple((p[j], p[j - 1] | p[j - 2]) for j in range(3)))
    return tuple(patterns)


def full_width_one_mod_three_values(bound: int) -> tuple[int, int]:
    """Reference for `ternary.one_mod_three_values`: the same two value
    sets, with bit n set iff n <= bound, n = 1 (mod 3), is a value.

    Every value of g = [3, 2, 5] is kept, each row z = 3q + r (r in 0..2)
    the pattern [r][(q + r) mod 3] of `full_width_row_patterns` shifted by
    (14z^2 + r^2)/3; f_1 takes t^2 + g for every t and (y, z), tilde_f_1
    for 3 | t with y = z and for 3 not | t with y != z (mod 3).
    """
    top = bound + 1
    keep = (1 << top + 1) - 1
    patterns = full_width_row_patterns(top)
    same = other = 0
    for z in range(math.isqrt(3 * bound // 14) + 1):
        q, r = divmod(z, 3)
        shift = (14 * z * z + r * r) // 3
        row_same, row_other = patterns[r][(q + r) % 3]
        same |= row_same << shift & keep
        other |= row_other << shift & keep
    g_same, g_other = same >> 1, other >> 1
    g_all = g_same | g_other
    f1 = tf1 = 0
    for t in range(math.isqrt(bound) + 1):
        f1 |= g_all << t * t
        tf1 |= (g_other if t % 3 else g_same) << t * t
    # bits 1, 4, 7, ... up to bound: 1 + 8 + 8^2 + ... = (8^c - 1) / 7
    one_mod_three = ((1 << 3 * ((bound + 2) // 3)) - 1) // 7 << 1
    return f1 & one_mod_three, tf1 & one_mod_three
