"""Binary quadratic forms over Z: unimodular action, Gauss reduction, ambiguity.

A form [a, b, c] stands for a*x^2 + b*x*y + c*y^2.  Only negative
discriminants are handled; the constructor pins the positive definite
branch (a > 0) and primitivity (gcd(a, b, c) = 1), so each proper class
has a unique reduced representative, which `reduce` returns.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class IntMap2(NamedTuple):
    """Integer substitution (x, y) |-> (m11*x + m12*y, m21*x + m22*y)."""

    m11: int
    m12: int
    m21: int
    m22: int

    @property
    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    def rows(self) -> list[list[int]]:
        return [[self.m11, self.m12], [self.m21, self.m22]]


class _Coefficients(NamedTuple):
    a: int
    b: int
    c: int


class BinaryForm(_Coefficients):
    """Primitive positive definite binary quadratic form a*x^2 + b*x*y + c*y^2.

    An immutable tuple (a, b, c): hashing, equality and ordering run on the
    triple in C, so forms sort like their triples.  Hot code unpacks
    `a, b, c = f`, which is cheaper than three field reads."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> BinaryForm:
        d = b * b - 4 * a * c
        if d >= 0:
            raise ValueError(f"form [{a},{b},{c}] has non-negative discriminant {d}")
        if a <= 0:
            raise ValueError(f"form [{a},{b},{c}] is negative definite (a <= 0)")
        if math.gcd(a, b, c) != 1:
            raise ValueError(f"form [{a},{b},{c}] is not primitive")
        return tuple.__new__(cls, (a, b, c))

    def _replace(self, **changes: int) -> BinaryForm:
        """A copy with some coefficients changed, checked like a new form."""
        return BinaryForm(**{**self._asdict(), **changes})

    @property
    def D(self) -> int:
        a, b, c = self
        return b * b - 4 * a * c

    def evaluate(self, x: int, y: int) -> int:
        a, b, c = self
        return a * x * x + b * x * y + c * y * y

    @property
    def rep(self) -> BinaryForm:
        """`reduce(self)`, the class's reduced form.  Only the benchmark's
        workloads read it; library code must not call it."""
        return reduce(self)

    def triple(self) -> tuple[int, int, int]:
        """`tuple(self)`.  Only the benchmark's workloads and the tests
        read it; library code must not call it."""
        return tuple(self)

    def __str__(self) -> str:
        a, b, c = self
        return f"[{a},{b},{c}]"


def is_discriminant(D: int) -> bool:
    """True iff D is a valid negative form discriminant (D < 0, D = 0,1 mod 4)."""
    return D < 0 and D % 4 in (0, 1)


def check_discriminant(D: int) -> None:
    """Raise ValueError unless D is a valid negative discriminant."""
    if not is_discriminant(D):
        raise ValueError(f"{D} is not a valid negative discriminant")


def transformed_coefficients(f: BinaryForm, M: IntMap2) -> tuple[int, int, int]:
    """Coefficients of f(m11*x + m12*y, m21*x + m22*y), without validation.

    It never constructs a BinaryForm, so it also serves scaled images like
    f o T = p^2 f whose coefficients are imprimitive.
    """
    a2 = f.evaluate(M.m11, M.m21)
    c2 = f.evaluate(M.m12, M.m22)
    b2 = (
        2 * f.a * M.m11 * M.m12
        + f.b * (M.m11 * M.m22 + M.m12 * M.m21)
        + 2 * f.c * M.m21 * M.m22
    )
    return (a2, b2, c2)


def is_reduced(f: BinaryForm) -> bool:
    """Gauss-reduced: |b| <= a <= c, with b >= 0 when |b| = a or a = c."""
    a, b, c = f
    if not (abs(b) <= a <= c):
        return False
    if b < 0 and (-b == a or a == c):
        return False
    return True


def reduce(f: tuple[int, int, int]) -> BinaryForm:
    """Gauss reduction: the reduced form properly equivalent to f.  f may
    be a bare triple: only the reduced form is built, and checked."""
    return reduce_carrying(f, 0, 0)[0]


def reduce_carrying(f: tuple[int, int, int], x: int, y: int) -> tuple[BinaryForm, int, int]:
    """The reduced form g properly equivalent to f, with the point (x', y')
    where g takes f(x, y).

    Two det-1 steps run on the coefficients until the form is reduced:
    the shift (x, y) |-> (x + t*y, y) taking b into (-a, a], and the swap
    (x, y) |-> (-y, x) taking [a, b, c] to [c, -b, a].  The point moves
    by their inverses, (x, y) |-> (x - t*y, y) and (x, y) |-> (y, -x).

    g is built once, in C by `tuple.__new__`, after the checks of the
    `BinaryForm` constructor: D < 0 and a > 0 are checked on entry and
    both steps keep them, and gcd(a, b, c) = 1 is checked on g, with the
    constructor's message.
    """
    a, b, c = f
    if b * b - 4 * a * c >= 0 or a <= 0:
        raise ValueError(f"cannot reduce non positive definite form {f}")
    while True:
        if b <= -a or b > a:
            t = (a - b) // (2 * a)  # shifts b into (-a, a]
            b, c = b + 2 * a * t, (a * t + b) * t + c
            x -= t * y
        if a < c or (a == c and b >= 0):
            break
        a, b, c = c, -b, a
        x, y = y, -x
    if math.gcd(a, b, c) != 1:
        raise ValueError(f"form [{a},{b},{c}] is not primitive")
    g = tuple.__new__(BinaryForm, (a, b, c))
    assert is_reduced(g)
    return g, x, y


def is_ambiguous(f: BinaryForm) -> bool:
    """For a reduced form: class has order <= 2, i.e. b = 0, a = b or a = c."""
    if not is_reduced(f):
        raise ValueError(f"is_ambiguous expects a reduced form, got {f}")
    a, b, c = f
    return b == 0 or a == b or a == c
