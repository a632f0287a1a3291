"""Proper classes of a negative discriminant under Dirichlet composition.

Each class holds one reduced form, and a class is that `BinaryForm`."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from . import qform
from .intarith import ext_gcd
from .qform import BinaryForm, check_discriminant, is_ambiguous

#: largest |D| the census accepts: its loop runs O(|D|) times, and with the
#: power walk it takes 0.19-0.22 s at the limit (three runs each at
#: D = -9999991 and -10^7, 2-vCPU VM)
MAX_ABS_D = 10**7

#: discriminants whose census stays cached; a sweep over more evicts the
#: least recently used, so memory stays bounded
CACHED_GROUPS = 256


class ClassGroup(NamedTuple):
    """All proper classes of one discriminant as reduced forms, sorted,
    with the order and the square of every class.

    `identity` is the principal class, `classes[0]`: its reduced form
    [1, D % 2, (D % 2 - D) / 4] is the only one with a = 1."""

    D: int
    classes: tuple[BinaryForm, ...]
    identity: BinaryForm
    orders: dict[BinaryForm, int]
    squares: dict[BinaryForm, BinaryForm]

    @property
    def h(self) -> int:
        return len(self.classes)


@lru_cache(maxsize=CACHED_GROUPS)
def enumerate_classes(D: int) -> ClassGroup:
    """Census of reduced forms: a <= sqrt(|D|/3), b = D (mod 2), 4a | b^2 - D.

    The order and square of every class come from one power walk per
    cyclic subgroup: if x has powers [x, x^2, ..., x^k = 1], then x^j has
    order k / gcd(j, k) and square x^(2j), entry (2j - 1) mod k of the
    list.  The loops emit the forms sorted, by a and then b (c follows).
    A D below -MAX_ABS_D raises ValueError before any work."""
    check_discriminant(D)
    if D < -MAX_ABS_D:
        raise ValueError(f"|D| must be at most {MAX_ABS_D}, got D = {D}")
    forms = []
    for a in range(1, math.isqrt(-D // 3) + 1):
        four_a = 4 * a
        # b = D (mod 2): start at -a or -a + 1, whichever has D's parity
        for b in range(-a + (a + D) % 2, a + 1, 2):
            num = b * b - D
            if num % four_a != 0:
                continue
            c = num // four_a
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue  # tie convention: b >= 0 when |b| = a or a = c
            if math.gcd(a, math.gcd(b, c)) != 1:
                continue
            forms.append(BinaryForm(a, b, c))
    classes = tuple(forms)
    identity = classes[0]
    orders: dict[BinaryForm, int] = {}
    squares: dict[BinaryForm, BinaryForm] = {}
    for x in classes:
        if x in orders:
            continue
        powers = [x]
        while powers[-1] != identity:
            powers.append(compose(powers[-1], x))
        k = len(powers)
        for j, y in enumerate(powers, 1):
            if y not in orders:
                orders[y] = k // math.gcd(j, k)
                squares[y] = powers[(2 * j - 1) % k]
    return ClassGroup(D, classes, identity, orders, squares)


def compose(x: BinaryForm, z: BinaryForm) -> BinaryForm:
    """Dirichlet composition of two forms, returned reduced.

    With e = gcd(a1, a2, (b1+b2)/2), a solution B of

        B = b1 (mod 2*a1/e),  B = b2 (mod 2*a2/e),  B^2 = D (mod 4*a1*a2/e^2)

    always exists; the composite is [a1*a2/e^2, B, e^2*(B^2-D)/(4*a1*a2)].
    B is obtained from a Bezout identity u*a1 + v*a2 + w*(b1+b2)/2 = e and
    taken as the smallest nonnegative solution; any other solution yields
    the same class.
    """
    (a1, b1, c1), (a2, b2, c2) = x, z
    D, D2 = b1 * b1 - 4 * a1 * c1, b2 * b2 - 4 * a2 * c2
    if D2 != D:
        raise ValueError(f"discriminant mismatch: {D} vs {D2}")
    beta = (b1 + b2) // 2
    g1, x1, y1 = ext_gcd(a1, a2)
    e, t, w = ext_gcd(g1, beta)
    u, v = x1 * t, y1 * t  # now a1*u + a2*v + beta*w = e
    A = (a1 // e) * (a2 // e)
    num = b2 * u * a1 + b1 * v * a2 + w * (b1 * b2 + D) // 2
    assert num % e == 0
    B = (num // e) % (2 * A)
    # the defining congruences must hold; never fail silently
    assert (B - b1) % (2 * a1 // e) == 0
    assert (B - b2) % (2 * a2 // e) == 0
    assert (B * B - D) % (4 * A) == 0
    C = (B * B - D) // (4 * A)
    return qform.reduce(BinaryForm(A, B, C))


def inverse_class(x: BinaryForm) -> BinaryForm:
    """Inverse class: the mirror form [a,-b,c], reduced."""
    a, b, c = x
    return qform.reduce(BinaryForm(a, -b, c))


def ambiguous_classes(group: ClassGroup) -> list[BinaryForm]:
    """Classes of order <= 2, in census order: the reduced forms with
    b = 0, a = b or a = c."""
    return [c for c in group.classes if is_ambiguous(c)]
