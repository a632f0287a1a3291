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
for the whole group and only route 3 looks at each class.  Route 3 is a
group fact too: for p split, the ideals of norm p^2 that (p) does not
divide lie in P^2 and P^-2, where P is the class of [p, b, (b^2 - D)/4p]
with b^2 = D (mod 4p).  So a square class takes p^2 p-primitively iff it
is P^2 or P^-2, and every passing class has the square P^2 = P^-2.  Each
verdict carries machine-checkable evidence for its route.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .classgroup import enumerate_classes, inverse_class
from .intarith import check_prime_not_dividing, kronecker
from .qform import BinaryForm, IntMap2, check_discriminant, reduce, transformed_coefficients
from .repcount import rep_counts

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


def solve_two_square(D: int, p: int) -> list[TwoSquareSolution]:
    """All (m, n) with m, n >= 0, 4p^2 = m^2 + |D|n^2, gcd(m, n, p) = 1.

    Sorted by n ascending; the scan over n <= sqrt(4p^2/|D|) is exhaustive.
    Requires p prime and p not | D.  For (D/p) = -1 the list is empty: a
    solution with p not | n makes D a square mod p (mod 8 for p = 2), and
    p | n forces p | m.
    """
    check_discriminant(D)
    check_prime_not_dividing(p, D)
    abs_d = -D
    four_p2 = 4 * p * p
    sols = []
    for n in range(math.isqrt(four_p2 // abs_d) + 1):
        rem = four_p2 - abs_d * n * n
        m = math.isqrt(rem)
        if m * m == rem and math.gcd(math.gcd(m, n), p) == 1:
            sols.append(TwoSquareSolution(m, n, p))
    return sols


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
      symbol_minus_one:         witness (represented, never p-primitively)
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


def classify_all(D: int, p: int) -> list[Verdict]:
    """Verdicts for every class of discriminant D, in census order.

    Requires p prime, p not | D.  Routes 1 and 2 depend only on (D, p) and
    settle the whole group.  Route 3 reads each class's order and square
    off the group's power walk and tests the square against P^2 and P^-2;
    one count of p^2 by P^2 supplies the solution every passing class
    shares.
    """
    group = enumerate_classes(D)
    check_prime_not_dividing(p, D)
    if kronecker(D, p) == -1:
        # every solution of f = p^2*a has both coordinates divisible by p
        return [Verdict(x, p, False, ROUTE_SYMBOL_MINUS_ONE, {"witness": p * p * x.a})
                for x in group.classes]
    sols = solve_two_square(D, p)
    if sols:
        m, n, _ = sols[0]
        return [Verdict(x, p, True, ROUTE_PRINCIPAL_SQUARE, {"m": m, "n": n})
                for x in group.classes]
    # (D/p) = 1, so b^2 = D (mod 4p) has a root b in [0, 2p)
    b = next(b for b in range(2 * p) if (b * b - D) % (4 * p) == 0)
    prime = reduce(BinaryForm(p, b, (b * b - D) // (4 * p)))
    p_squares = {group.squares[prime], group.squares[inverse_class(prime)]}
    solution = None  # first p-primitive solution of p^2 by P^2
    verdicts = []
    for x in group.classes:
        order, square = group.orders[x], group.squares[x]
        has_sq = square in p_squares
        square_form = list(square)
        if order == 4 and has_sq:
            if solution is None:
                solution = next(xy for xy in rep_counts(square, p * p, p).solutions
                                if math.gcd(*xy) % p != 0)
            verdicts.append(Verdict(x, p, True, ROUTE_ORDER_FOUR_SQUARE, {
                "order": 4, "solution": list(solution), "square_form": square_form}))
        else:
            verdicts.append(Verdict(x, p, False, ROUTE_ORDER_FOUR_SQUARE_FAILED, {
                "order": order, "square_form": square_form,
                "square_has_p_square": has_sq}))
    return verdicts
