"""Exact integer helpers: primes, factorization, Kronecker symbol.

Everything works on plain Python ints, so products like 4*a1*a2 never
overflow regardless of input size.
"""

from __future__ import annotations

import math
from itertools import compress


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (desk-scale inputs)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


#: largest prime the library accepts.  It bounds `is_prime`'s trial
#: division, about sqrt(p)/2 steps, and the verify grid's searches of
#: positive cells: each scans its smallest candidate p^2 a over up to
#: 2pa/sqrt|D| rows.  The classifier itself takes O(log p)
#: steps (`sqrt_mod` and two reductions), so near the limit one
#: `classify_all` takes 0.04-0.15 ms, the trial division included (medians
#: of 20 runs, D = -3, -4, -23, -56 and -2604 at the twelve largest primes
#: below 10^6, census cached, in four runs on a 2-vCPU VM whose speed
#: drifted by up to 1.7x between them)
MAX_P = 10**6


def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime <= MAX_P; the cap is checked
    before the trial division."""
    if p > MAX_P:
        raise ValueError(f"p must be at most {MAX_P}, got {p}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def check_prime_not_dividing(p: int, D: int) -> None:
    """Raise ValueError unless p is a prime <= MAX_P that does not divide D."""
    check_prime(p)
    if D % p == 0:
        raise ValueError(f"p = {p} divides the discriminant {D}")


def primes_up_to(n: int) -> list[int]:
    """Primes <= n in increasing order, by the sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


def sqrt_mod(a: int, p: int) -> int:
    """A root r in [0, p) of r^2 = a (mod p), for p prime and a a square
    mod p, by Tonelli-Shanks: O(log p) products mod p after the search for
    a non-residue z."""
    a %= p
    if a < 2:
        return a
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    # invariants: r^2 = a t (mod p), c has order 2^m and t order dividing 2^(m-1)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 1 by trial division."""
    if n < 1:
        raise ValueError(f"prime_factors requires n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def kronecker_prime(D: int, p: int) -> int:
    """Kronecker symbol (D/p) at a single prime p."""
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    r = D % p
    if r == 0:
        return 0
    # Euler's criterion; p odd prime
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


def kronecker(D: int, k: int) -> int:
    """Kronecker symbol (D/k) for k >= 1, totally multiplicative in k.

    (D/1) = 1 and (D/2) is 0 for even D, +1 for D = +-1 (mod 8),
    -1 for D = +-3 (mod 8).
    """
    if k < 1:
        raise ValueError(f"kronecker requires k >= 1, got {k}")
    sign = 1
    for p, e in prime_factors(k).items():
        s = kronecker_prime(D, p)
        if s == 0:
            return 0
        if s == -1 and e % 2 == 1:
            sign = -sign
    return sign


def ceil_div(p: int, q: int) -> int:
    """Ceiling of p / q for q > 0."""
    return -((-p) // q)

