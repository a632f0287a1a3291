"""Proper classes of a negative discriminant under Dirichlet composition.

Each class holds one reduced form, and a class is that `BinaryForm`."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from typing import NamedTuple

from . import qform
from .intarith import kronecker_prime, primes_up_to
from .qform import BinaryForm, check_discriminant, is_ambiguous, is_reduced

#: largest |D| the census accepts: its loop runs O(|D|) times, and with the
#: power walk it takes 0.025-0.045 s at the limit (medians of fifteen runs
#: each at D = -9999991 and -10^7, cache cleared, in four runs on a 2-vCPU
#: Intel Xeon VM whose speed drifted by up to 1.7x between them)
MAX_ABS_D = 10**7

#: discriminants whose census stays cached; a sweep over more evicts the
#: least recently used, so memory stays bounded
CACHED_GROUPS = 256


class ClassGroup(NamedTuple):
    """All proper classes of one discriminant as reduced forms, sorted,
    with the order and the square of every class.

    The principal class is `classes[0]`: its reduced form
    [1, D % 2, (D % 2 - D) / 4] is the only one with a = 1.  A class and
    its inverse, the mirror [a, -b, c], have the same order and mirror
    squares; the census walks half of each cycle of powers and reads the
    other half off the mirrors."""

    D: int
    classes: tuple[BinaryForm, ...]
    orders: dict[BinaryForm, int]
    squares: dict[BinaryForm, BinaryForm]

    @property
    def h(self) -> int:
        return len(self.classes)


@lru_cache(maxsize=CACHED_GROUPS)
def enumerate_classes(D: int) -> ClassGroup:
    """Census of reduced forms: a <= sqrt(|D|/3), b = D (mod 2), 4a | b^2 - D.

    The loop tries only the a of `_first_coefficients` and builds each
    form by `tuple.__new__`, having checked gcd(a, b, c) = 1, c >= a >= 1
    and the discriminant itself.  The inverse of a reduced [a, b, c] is
    its mirror [a, -b, c], so the loop tests only b >= 0 and emits
    [a, -b, c] too unless the form is ambiguous (b = 0, b = a or a = c),
    the mirrors of one a first, by ascending b: the forms come sorted, by
    a and then b (c follows).  It records each form's mirror as it builds
    it, an ambiguous form being its own, and the walk below reads every
    inverse from that record.

    The order and square of every class come from one power walk per
    cyclic subgroup: if x has powers [x, x^2, ..., x^k = 1], then x^j has
    order k / gcd(j, k) and square x^(2j), entry (2j - 1) mod k of the
    list.  The walk composes only half of the cycle: it stops at the
    first j where x^j equals the mirror of x^(j - 1), so k = 2j - 1, or
    its own mirror, so k = 2j, and fills in x^(k - i) as the mirror of
    x^i.  A D below -MAX_ABS_D raises ValueError before any work; at the
    limit the census takes 0.025-0.045 s."""
    check_discriminant(D)
    if D < -MAX_ABS_D:
        raise ValueError(f"|D| must be at most {MAX_ABS_D}, got D = {D}")
    new = tuple.__new__  # the loop checks what the constructor would
    forms = []
    mirror: dict[BinaryForm, BinaryForm] = {}  # the inverse of each class
    for a in _first_coefficients(D):
        four_a = 4 * a
        mirrors, row = [], []
        for b in range(D % 2, a + 1, 2):
            num = b * b - D
            if num % four_a != 0:
                continue
            c = num // four_a
            if c < a or math.gcd(a, b, c) != 1:
                continue
            f = new(BinaryForm, (a, b, c))
            row.append(f)
            if b != 0 and b != a and a != c:
                g = new(BinaryForm, (a, -b, c))
                mirrors.append(g)
                mirror[f], mirror[g] = g, f
            else:
                mirror[f] = f
        mirrors.reverse()
        forms += mirrors
        forms += row
    classes = tuple(forms)
    identity = classes[0]
    orders: dict[BinaryForm, int] = {}
    squares: dict[BinaryForm, BinaryForm] = {}
    for x in classes:
        if x in orders:
            continue
        powers = [x]
        inverses = [identity]  # inverses[i] = x^-i
        while True:
            y = powers[-1]
            if y == inverses[-1]:
                k = 2 * len(powers) - 1
                break
            y_inv = mirror[y]
            if y_inv == y:
                k = 2 * len(powers)
                break
            inverses.append(y_inv)
            powers.append(compose(y, x))
        # x^(k - i) = x^-i for i = k - len(powers) - 1, ..., 1, then x^k = 1
        powers += reversed(inverses[:k - len(powers)])
        for j, y in enumerate(powers, 1):
            if y not in orders:
                orders[y] = k // math.gcd(j, k)
                squares[y] = powers[(2 * j - 1) % k]
    return ClassGroup(D, classes, orders, squares)


def _first_coefficients(D: int) -> list[int]:
    """The a <= sqrt(|D|/3), ascending, that no prime q with (D/q) = -1
    divides: for such a q | a, 4a | b^2 - D would make D a square mod q
    (for q = 2, D = 5 mod 8 and b^2 - D = 4 mod 8)."""
    top = math.isqrt(-D // 3)
    live = bytearray([1]) * (top + 1)
    for q in primes_up_to(top):
        if kronecker_prime(D, q) == -1:
            live[q::q] = bytes(len(range(q, top + 1, q)))
    return list(compress(range(1, top + 1), live[1:]))


def compose(x: BinaryForm, z: BinaryForm) -> BinaryForm:
    """Dirichlet composition of two forms, returned reduced.

    With beta = (b1+b2)/2 and e = gcd(a1, a2, beta), the solution B of

        B = b1 (mod 2*a1/e),  B = b2 (mod 2*a2/e),
        beta*B = (b1*b2 + D)/2 (mod 2*a1*a2/e)

    exists, is unique mod 2*a1*a2/e^2 (without the beta congruence it is
    not when e > 1) and satisfies B^2 = D (mod 4*a1*a2/e^2); the composite is
    [a1*a2/e^2, B, e^2*(B^2-D)/(4*a1*a2)] (Cohen, section 5.4).  B is read
    off a Bezout identity u*a1 + v*a2 + w*beta = e, solved by two modular
    inverses `pow(x, -1, m)`; only the reduced composite is built.
    """
    (a1, b1, c1), (a2, b2, c2) = x, z
    D, D2 = b1 * b1 - 4 * a1 * c1, b2 * b2 - 4 * a2 * c2
    if D2 != D:
        raise ValueError(f"discriminant mismatch: {D} vs {D2}")
    beta = (b1 + b2) // 2
    g1 = math.gcd(a1, a2)
    e = math.gcd(g1, beta)
    # a1*x1 + a2*y1 = g1 and g1*t + beta*w = e, each from a modular inverse
    x1 = pow(a1 // g1, -1, a2 // g1)
    y1 = (g1 - a1 * x1) // a2
    w = pow(beta // e, -1, g1 // e)
    t = (e - beta * w) // g1
    u, v = x1 * t, y1 * t
    assert a1 * u + a2 * v + beta * w == e
    A = (a1 // e) * (a2 // e)
    num = b2 * u * a1 + b1 * v * a2 + w * (b1 * b2 + D) // 2
    assert num % e == 0
    B = (num // e) % (2 * A)
    # the defining congruences must hold; never fail silently
    assert (B - b1) % (2 * a1 // e) == 0
    assert (B - b2) % (2 * a2 // e) == 0
    assert (beta * B - (b1 * b2 + D) // 2) % (2 * a1 * a2 // e) == 0
    assert (B * B - D) % (4 * A) == 0
    return qform.reduce((A, B, (B * B - D) // (4 * A)))


def inverse_class(x: BinaryForm) -> BinaryForm:
    """Inverse class: the mirror form [a,-b,c], reduced.  A reduced x
    needs no reduction: its mirror is reduced, or x itself when x is
    ambiguous (b = 0, b = a or a = c).  The census walk does not call it:
    it reads the mirrors its own forms loop built."""
    a, b, c = x
    if not is_reduced(x):
        return qform.reduce(BinaryForm(a, -b, c))
    return x if b == 0 or b == a or a == c else BinaryForm(a, -b, c)


def ambiguous_classes(group: ClassGroup) -> list[BinaryForm]:
    """Classes of order <= 2, in census order: the reduced forms with
    b = 0, a = b or a = c."""
    return [c for c in group.classes if is_ambiguous(c)]
