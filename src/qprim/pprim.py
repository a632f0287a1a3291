"""Complete p-primitivity of proper classes, decided constructively.

A class is completely p-primitive when every integer it represents also
has a representation (x, y) with gcd(x, y, p) = 1.  For discriminant
D < 0 and a prime p not dividing D the decision runs in three routes:

  1. (D/p) = -1: never completely p-primitive; p^2 * a is represented
     but only with both coordinates divisible by p.
  2. 4p^2 = m^2 + |D|n^2 solvable with gcd(m, n, p) = 1: every class of
     discriminant D is completely p-primitive, and each class's reduced
     form f carries an explicit scaling isometry T with f o T = p^2 f.
  3. otherwise: a class qualifies iff it has order 4 and its square
     p-primitively represents p^2.

Routes 1 and 2 are facts about (D, p), so `classify_all` decides them once
for the whole group and only route 3 looks at each class.  For p split,
let P be the class of [p, b, (b^2 - D)/4p] with b^2 = D (mod 4p).  The
proper representations of p^2 by a class correspond to the roots of
B^2 = D (mod 4p^2) whose forms [p^2, B, (B^2 - D)/4p^2] lie in it (Cox,
Lemma 2.3), and for p not | D those forms are P o P and its mirror, of the
classes P^2 and P^-2.  Each takes p^2 at (1, 0), so one Gauss reduction of
each, carrying that point, settles both routes: route 2 holds iff P^2 is
principal, and the reduced point gives (m, n).  In route 3 a square class
takes p^2 p-primitively iff it is P^2 or P^-2, and every passing class has
the square P^2 = P^-2.  That square has order 2, so it is not principal
and does not represent 1: its solutions of p^2 are the two reduced points
and their negatives, all p-primitive, and the least is the evidence.
Each verdict carries machine-checkable evidence for its route.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .classgroup import enumerate_classes
from .intarith import check_prime_not_dividing, kronecker_prime, sqrt_mod
from .qform import (
    BinaryForm, IntMap2, check_discriminant, reduce_carrying, transformed_coefficients,
)

ROUTE_SYMBOL_MINUS_ONE = "symbol_minus_one"
ROUTE_PRINCIPAL_SQUARE = "principal_square"
ROUTE_ORDER_FOUR_SQUARE = "order_four_square"
ROUTE_ORDER_FOUR_SQUARE_FAILED = "order_four_square_failed"

ROUTES = (
    ROUTE_SYMBOL_MINUS_ONE,
    ROUTE_PRINCIPAL_SQUARE,
    ROUTE_ORDER_FOUR_SQUARE,
    ROUTE_ORDER_FOUR_SQUARE_FAILED,
)


class TwoSquareSolution(NamedTuple):
    """(m, n) with 4p^2 = m^2 + |D|n^2 and gcd(m, n, p) = 1."""

    m: int
    n: int
    p: int


def solve_two_square(D: int, p: int) -> TwoSquareSolution | None:
    """The (m, n) with m, n >= 0, 4p^2 = m^2 + |D|n^2, gcd(m, n, p) = 1 and
    the least n, or None if there is none.

    Requires p prime, p <= `intarith.MAX_P` and p not | D.  For
    (D/p) = -1 there is no solution: a solution with p not | n makes D a
    square mod p (mod 8 for p = 2), and p | n forces p | m.  Otherwise it
    is `_two_square` of P^2, from `_prime_squares`.
    """
    check_discriminant(D)
    check_prime_not_dividing(p, D)
    squares = _prime_squares(D, p)
    return None if squares is None else _two_square(D, p, squares[0])


def _prime_squares(D: int, p: int) -> tuple[tuple[BinaryForm, int, int], ...] | None:
    """The reduced forms of P^2 and P^-2, each with the point where it
    takes p^2, or None if (D/p) = -1.

    With b from `_root_mod_4p` and c = (b^2 - D)/4p, the square of
    P = [p, b, c] is [p^2, B, (B^2 - D)/4p^2] with B = b - 2p (c b^-1 mod p),
    the B = b (mod 2p) with B^2 = D (mod 4p^2) (Cox, section 3); b is prime
    to p since p does not divide D.  P^-1 = [p, -b, c] squares to the mirror
    [p^2, -B, (B^2 - D)/4p^2].  Both take p^2 at (1, 0), and
    `reduce_carrying` follows that point.
    """
    if kronecker_prime(D, p) == -1:
        return None
    b = _root_mod_4p(D, p)
    B = b - 2 * p * ((b * b - D) // (4 * p) * pow(b, -1, p) % p)
    C = (B * B - D) // (4 * p * p)
    return reduce_carrying((p * p, B, C), 1, 0), reduce_carrying((p * p, -B, C), 1, 0)


def _two_square(D: int, p: int, square: tuple[BinaryForm, int, int]) -> TwoSquareSolution | None:
    """Route 2's (m, n) from P^2 reduced with its point (x, y), or None if
    P^2 is not principal.

    The principal form [1, e, (e - D)/4], e = D mod 2, takes p^2 at (x, y)
    iff 4p^2 = (2x + ey)^2 + |D|y^2.  Its p-primitive solutions are proper,
    so they are the unit images of the points of P^2 and P^-2, and the
    improper automorph (x, y) |-> (x + ey, -y), which takes the first to
    the second, keeps m = |2x + ey| and n = |y|.  Only [1, 1, 1] and
    [1, 0, 1] have units other than -1: they also take (x, y) to (-y, x + y)
    and (-x - y, x), or to (-y, x).
    """
    f, x, y = square
    if f.a != 1:
        return None
    n = min(abs(y), abs(x), abs(x + y)) if D == -3 else min(abs(y), abs(x)) if D == -4 else abs(y)
    return TwoSquareSolution(math.isqrt(4 * p * p + D * n * n), n, p)


def build_isometry(f: BinaryForm, sol: TwoSquareSolution) -> IntMap2:
    """Integer map T with f o T = p^2 f, det T = p^2, T != 0 mod p, p not | tr T.

    T = [[(m + b*n)/2, c*n], [-a*n, (m - b*n)/2]]; its trace is m and its
    determinant is (m^2 - D*n^2)/4 = p^2.
    """
    m, n, p = sol
    if 4 * p * p != m * m - f.D * n * n:
        raise ValueError(f"{sol} does not solve 4p^2 = m^2 + |D|n^2 for D = {f.D}")
    if math.gcd(math.gcd(m, n), p) != 1:
        raise ValueError(f"{sol} is not p-primitive")
    if (m + f.b * n) % 2 != 0:
        raise ValueError(f"parity mismatch between {sol} and form {f}")
    t = IntMap2((m + f.b * n) // 2, f.c * n, -f.a * n, (m - f.b * n) // 2)
    p2 = p * p
    assert t.det == p2
    assert transformed_coefficients(f, t) == (p2 * f.a, p2 * f.b, p2 * f.c)
    assert any(e % p != 0 for e in (t.m11, t.m12, t.m21, t.m22))
    assert m % p != 0  # trace coprime to p
    return t


class Verdict(NamedTuple):
    """Decision for one (class, p) pair with machine-checkable evidence.

    evidence keys by route:
      symbol_minus_one:         witness (p^2 a = f(p, 0), with (D/p) = -1)
      principal_square:         m, n (4p^2 = m^2 + |D|n^2)
      order_four_square:        order, square_form, solution (of p^2)
      order_four_square_failed: order, square_form, square_has_p_square
    """

    cls: BinaryForm  # the class's reduced form
    p: int
    completely_p_primitive: bool
    route: str
    evidence: dict

    def to_json(self) -> dict:
        return {
            "cpp": self.completely_p_primitive,
            "evidence": self.evidence,
            "form": list(self.cls),
            "p": self.p,
            "route": self.route,
        }


def _root_mod_4p(D: int, p: int) -> int:
    """The root b in [0, 2p) of b^2 = D (mod 4p) for (D/p) = 1: the root r
    of D mod p, or r + p, whichever has the parity of D, so that b^2 = D
    (mod 4) too (at p = 2, D = 1 mod 8 and b = 1).  The other root, 2p - b,
    gives the inverse class."""
    r = sqrt_mod(D, p)
    return r if (r - D) % 2 == 0 else r + p


def classify_all(D: int, p: int) -> list[Verdict]:
    """Verdicts for every class of discriminant D, in census order.

    Requires p prime, p <= `intarith.MAX_P` and p not | D, checked before
    the census is built.
    Routes 1 and 2 depend only on (D, p) and settle the whole group: one
    `_prime_squares` gives (D/p) and the reduced P^2 and P^-2 with their
    points at p^2, and route 2 holds iff P^2 is principal.  Route 3 reads
    each class's order and square off the group's power walk and tests the
    square against P^2 and P^-2; every passing class carries the least of
    the two points and their negatives.
    Each verdict is built by `tuple.__new__`, the C call that the
    generated NamedTuple constructor wraps in a Python function that
    checks nothing.
    """
    check_discriminant(D)
    check_prime_not_dividing(p, D)
    group = enumerate_classes(D)
    new = tuple.__new__
    p2 = p * p
    prime_squares = _prime_squares(D, p)
    if prime_squares is None:
        # every solution of f = p^2*a has both coordinates divisible by p
        return [new(Verdict, (x, p, False, ROUTE_SYMBOL_MINUS_ONE, {"witness": p2 * x.a}))
                for x in group.classes]
    sol = _two_square(D, p, prime_squares[0])
    if sol is not None:
        m, n, _ = sol
        return [new(Verdict, (x, p, True, ROUTE_PRINCIPAL_SQUARE, {"m": m, "n": n}))
                for x in group.classes]
    orders, squares = group.orders, group.squares
    (s1, x1, y1), (s2, x2, y2) = prime_squares
    p_squares = {s1, s2}
    # a passing class's square P^2 = P^-2 takes p^2 at these four points
    # only, all p-primitive
    solution = min((x1, y1), (-x1, -y1), (x2, y2), (-x2, -y2))
    verdicts = []
    for x in group.classes:
        order, square = orders[x], squares[x]
        has_sq = square in p_squares
        square_form = list(square)
        if order == 4 and has_sq:
            verdicts.append(new(Verdict, (x, p, True, ROUTE_ORDER_FOUR_SQUARE, {
                "order": 4, "solution": list(solution), "square_form": square_form})))
        else:
            verdicts.append(new(Verdict, (x, p, False, ROUTE_ORDER_FOUR_SQUARE_FAILED, {
                "order": order, "square_form": square_form,
                "square_has_p_square": has_sq})))
    return verdicts
