"""Proper classes of a negative discriminant under Dirichlet composition."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import qform
from .intarith import ext_gcd
from .qform import BinaryForm, check_discriminant, is_ambiguous

#: largest |D| the census accepts: its loop runs O(|D|) times, 0.45 s at the
#: limit (one run, 2-vCPU VM)
MAX_ABS_D = 10**7


@dataclass(frozen=True, order=True)
class ProperClass:
    """A proper equivalence class, keyed by its unique reduced representative."""

    rep: BinaryForm

    @property
    def D(self) -> int:
        return self.rep.D

    def __str__(self) -> str:
        return str(self.rep)


@dataclass(frozen=True)
class ClassGroup:
    """All proper classes of one discriminant, sorted by representative."""

    D: int
    classes: tuple[ProperClass, ...]
    identity: ProperClass

    @property
    def h(self) -> int:
        return len(self.classes)

    @cached_property
    def _walk(self) -> tuple[dict[ProperClass, int], dict[ProperClass, ProperClass]]:
        """Order and square of every class, walking each cyclic subgroup
        once: if x has powers [x, x^2, ..., x^k = 1], then x^j has order
        k / gcd(j, k) and square x^(2j), entry (2j - 1) mod k of the list."""
        orders: dict[ProperClass, int] = {}
        squares: dict[ProperClass, ProperClass] = {}
        for x in self.classes:
            if x in orders:
                continue
            powers = [x]
            while powers[-1] != self.identity:
                powers.append(compose(powers[-1], x))
            k = len(powers)
            for j, y in enumerate(powers, 1):
                if y not in orders:
                    orders[y] = k // math.gcd(j, k)
                    squares[y] = powers[(2 * j - 1) % k]
        return orders, squares

    @property
    def orders(self) -> dict[ProperClass, int]:
        """Order of every class."""
        return self._walk[0]

    @property
    def squares(self) -> dict[ProperClass, ProperClass]:
        """Square of every class, read off the same walk as `orders`."""
        return self._walk[1]


@lru_cache(maxsize=None)
def identity_form(D: int) -> ProperClass:
    """Principal class: [1,0,-D/4] for even D, [1,1,(1-D)/4] for odd D."""
    check_discriminant(D)
    if D % 2 == 0:
        f = BinaryForm(1, 0, -D // 4)
    else:
        f = BinaryForm(1, 1, (1 - D) // 4)
    return ProperClass(qform.reduce(f))


@lru_cache(maxsize=None)
def enumerate_classes(D: int) -> ClassGroup:
    """Census of reduced forms: a <= sqrt(|D|/3), b = D (mod 2), 4a | b^2 - D.

    A D below -MAX_ABS_D raises ValueError before any work."""
    check_discriminant(D)
    if D < -MAX_ABS_D:
        raise ValueError(f"|D| must be at most {MAX_ABS_D}, got D = {D}")
    forms = []
    for a in range(1, math.isqrt(-D // 3) + 1):
        for b in range(-a, a + 1):
            if (b - D) % 2 != 0:
                continue
            num = b * b - D
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue  # tie convention: b >= 0 when |b| = a or a = c
            if math.gcd(a, math.gcd(b, c)) != 1:
                continue
            forms.append(BinaryForm(a, b, c))
    forms.sort()
    classes = tuple(ProperClass(f) for f in forms)
    ident = identity_form(D)
    assert ident in classes
    return ClassGroup(D, classes, ident)


def compose(x: ProperClass, z: ProperClass) -> ProperClass:
    """Dirichlet composition of the representatives, returned reduced.

    With e = gcd(a1, a2, (b1+b2)/2), a solution B of

        B = b1 (mod 2*a1/e),  B = b2 (mod 2*a2/e),  B^2 = D (mod 4*a1*a2/e^2)

    always exists; the composite is [a1*a2/e^2, B, e^2*(B^2-D)/(4*a1*a2)].
    B is obtained from a Bezout identity u*a1 + v*a2 + w*(b1+b2)/2 = e and
    taken as the smallest nonnegative solution; any other solution yields
    the same class.
    """
    f, g = x.rep, z.rep
    D = f.D
    if g.D != D:
        raise ValueError(f"discriminant mismatch: {f.D} vs {g.D}")
    a1, b1 = f.a, f.b
    a2, b2 = g.a, g.b
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
    return ProperClass(qform.reduce(BinaryForm(A, B, C)))


def inverse_class(x: ProperClass) -> ProperClass:
    """Inverse class: the mirror form [a,-b,c] of the representative, reduced."""
    f = x.rep
    return ProperClass(qform.reduce(BinaryForm(f.a, -f.b, f.c)))


def element_order(x: ProperClass) -> int:
    """Order of the class in the composition group."""
    return enumerate_classes(x.D).orders[x]


def ambiguous_classes(group: ClassGroup) -> list[ProperClass]:
    """Classes of order <= 2, in representative order: those whose reduced
    form has b = 0, a = b or a = c."""
    return [c for c in group.classes if is_ambiguous(c.rep)]
