"""A ternary spectra identity demo at desk scale.

The family f_m = m^2 x^2 + 3y^2 + 2yz + 5z^2 (m not divisible by 3) and
its index-3 restriction tilde_f_m = f_m(3x + y - z, y, z) share, for
m = 1, the same represented values in the residue class 1 mod 3 except
for the single value 1.

Both value sets come from one sweep of a binary form.  f_1 = t^2 + g(y, z)
with g = [3, 2, 5] of discriminant -56, and tilde_f_1 is the same sum
with t = 3x + y - z, that is t = y - z (mod 3).  So n is a value of f_1
iff n - t^2 is a value of g for some t >= 0, and a value of tilde_f_1
iff n - t^2 = g(y, z) for some t >= 0 and (y, z) with y - z = +-t
(mod 3); g(0, 0) = 0 supplies the squares.  The sweep of g is exhaustive.

The sweep works one row z at a time, on bitsets held in Python ints.
With z = 3q + r and k = y + q, g(y, z) = 3k^2 + 2rk + (14z^2 + r^2)/3,
and y = z (mod 3) iff k = q + r (mod 3).  So every row is one of nine
fixed bit patterns {3k^2 + 2rk : k = j (mod 3)}, r and j in 0..2, shifted
by (14z^2 + r^2)/3: one masked shift per row instead of a loop over its
points.  The report compares the two value sets by the bits of their
exclusive or.

The equivalence of tilde_f_1 with the shape [4, 6, 7, yz=6, zx=2, xy=0]
is proved by a change of basis U with det U = +-1 and tilde_f_1 o U equal
to the shape; U is a constant, checked by its determinant and one
substitution.
Equivalent forms share every invariant, the theta series and the Gram
determinant included, so U is the whole certificate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

Vec3 = tuple[int, int, int]

#: largest bound spectrum_identity_report accepts (about 0.15 s of work,
#: 2-vCPU VM)
MAX_BOUND = 10**6


class _TernaryCoefficients(NamedTuple):
    xx: int
    yy: int
    zz: int
    yz: int
    zx: int
    xy: int


class TernaryForm(_TernaryCoefficients):
    """Positive definite integral ternary form
    xx*x^2 + yy*y^2 + zz*z^2 + yz*y*z + zx*z*x + xy*x*y.

    An immutable tuple of the six coefficients, so forms compare and sort
    like their coefficient tuples."""

    __slots__ = ()

    def __new__(cls, xx: int, yy: int, zz: int, yz: int, zx: int, xy: int) -> TernaryForm:
        f = tuple.__new__(cls, (xx, yy, zz, yz, zx, xy))
        h = f.doubled_gram()
        m1 = h[0][0]
        m2 = h[0][0] * h[1][1] - h[0][1] * h[0][1]
        if m1 <= 0 or m2 <= 0 or _det3(h) <= 0:
            raise ValueError(f"ternary form {f} is not positive definite")
        return f

    def _replace(self, **changes: int) -> TernaryForm:
        """A copy with some coefficients changed, checked like a new form."""
        return TernaryForm(**{**self._asdict(), **changes})

    def evaluate(self, x: int, y: int, z: int) -> int:
        xx, yy, zz, yz, zx, xy = self
        return xx * x * x + yy * y * y + zz * z * z + yz * y * z + zx * z * x + xy * x * y

    def doubled_gram(self) -> tuple[tuple[int, int, int], ...]:
        """Integer matrix 2G; the Gram matrix itself may be half-integral."""
        xx, yy, zz, yz, zx, xy = self
        return ((2 * xx, xy, zx), (xy, 2 * yy, yz), (zx, yz, 2 * zz))

    def polar(self, u: Vec3, v: Vec3) -> int:
        """f(u + v) - f(u) - f(v): the cross coefficient pairing."""
        w = (u[0] + v[0], u[1] + v[1], u[2] + v[2])
        return self.evaluate(*w) - self.evaluate(*u) - self.evaluate(*v)

    def __str__(self) -> str:
        xx, yy, zz, yz, zx, xy = self
        return f"[{xx},{yy},{zz},yz={yz},zx={zx},xy={xy}]"


def _det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def substitute(f: TernaryForm, cols: tuple[Vec3, Vec3, Vec3]) -> TernaryForm:
    """f o M for the integer matrix M with the given columns."""
    c1, c2, c3 = cols
    return TernaryForm(
        f.evaluate(*c1),
        f.evaluate(*c2),
        f.evaluate(*c3),
        f.polar(c2, c3),
        f.polar(c3, c1),
        f.polar(c1, c2),
    )


def build_fm(m: int) -> TernaryForm:
    """f_m = m^2 x^2 + 3y^2 + 2yz + 5z^2 for m >= 1 not divisible by 3."""
    if m < 1 or m % 3 == 0:
        raise ValueError(f"m must be >= 1 and not divisible by 3, got {m}")
    return TernaryForm(m * m, 3, 5, 2, 0, 0)


def build_tilde_fm(m: int) -> TernaryForm:
    """f_m(3x + y - z, y, z): f_m restricted to an index-3 sublattice."""
    return substitute(build_fm(m), ((3, 0, 0), (1, 1, 0), (-1, 0, 1)))


def _row_patterns(top: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nine row patterns of g = [3, 2, 5], as bitsets up to bit top.

    Entry [r][j] is the pair (same, other): same has bit 3k^2 + 2rk + 1
    for each k = j (mod 3), other for each k != j (mod 3).  The + 1 keeps
    every bit at or above 0: 3k^2 + 2rk is -1 at k = -1, r = 2.
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


def one_mod_three_values(bound: int) -> tuple[int, int]:
    """The values n <= bound, n = 1 mod 3, of f_1 and of tilde_f_1, as
    bitsets: bit n is set iff n is a value.

    g = [3, 2, 5] is swept one row z >= 0 at a time; (-y, -z) gives the
    same value and split.  With z = 3q + r and k = y + q,
    g(y, z) = 3k^2 + 2rk + (14z^2 + r^2)/3, and y = z (mod 3) iff
    k = q + r (mod 3), so row z is the pattern [r][(q + r) mod 3] of
    `_row_patterns` shifted by (14z^2 + r^2)/3 and cut at bound.  Since
    {t, -t} mod 3 is {0} or {1, 2}, tilde_f_1 takes t^2 + g(y, z) for
    3 | t with y = z and for 3 not | t with y != z (mod 3), while f_1
    takes every t with every (y, z).
    """
    top = bound + 1
    keep = (1 << top + 1) - 1
    patterns = _row_patterns(top)
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


class SpectrumIdentityReport(NamedTuple):
    """Exhaustive comparison of f_1 and tilde_f_1 on the class 1 mod 3,
    with the change of basis that proves tilde_f_1 equivalent to the
    reduced shape.

    sets_match: (values of f_1 in 1 mod 3, minus {1}) equals
    (values of tilde_f_1 in 1 mod 3), both up to `bound`.  Both sets
    come from one sweep of g = [3, 2, 5], because f_1 = t^2 + g(y, z) and
    tilde_f_1 is the same sum with t = y - z (mod 3); see
    `one_mod_three_values`.
    sym_diff: the values in 1 mod 3 up to `bound` that exactly one of the
    two forms takes, ascending; (1,) when the identity holds.
    change_of_basis: the rows of U, with det U = change_det = +-1 and
    tilde_f_1 o U = REDUCED_SHAPE, or None if CHANGE_OF_BASIS fails that
    check.  The report is ok only with both: the identity and its proof.
    """

    bound: int
    sets_match: bool
    sym_diff: tuple[int, ...]
    change_of_basis: tuple[tuple[int, int, int], ...] | None
    change_det: int | None

    @property
    def ok(self) -> bool:
        return self.sets_match and self.change_of_basis is not None

    def to_json(self) -> dict:
        rows = self.change_of_basis
        return {
            **self._asdict(),
            "change_of_basis": None if rows is None else [list(r) for r in rows],
            "sym_diff": list(self.sym_diff),
        }


#: the reduced shape tilde_f_1 is expected to be equivalent to
REDUCED_SHAPE = (4, 6, 7, 6, 2, 0)
#: the rows of U, det U = 1, with tilde_f_1 o U = REDUCED_SHAPE
CHANGE_OF_BASIS = ((0, 0, 1), (-1, 0, -1), (0, -1, 0))


def spectrum_identity_report(bound: int) -> SpectrumIdentityReport:
    """Compare the 1 mod 3 values of f_1 and tilde_f_1 up to `bound`, and
    prove tilde_f_1 equivalent to the reduced shape [4,6,7,yz=6,zx=2,xy=0]
    by U = CHANGE_OF_BASIS: det U = +-1 and tilde_f_1 o U equal to the
    shape.  A bound below 10 or above MAX_BOUND raises ValueError."""
    if not 10 <= bound <= MAX_BOUND:
        raise ValueError(f"bound must be in [10, {MAX_BOUND}], got {bound}")
    lhs, rhs = one_mod_three_values(bound)
    # the sets match iff they differ at most in 1 and tilde_f_1 misses 1
    diff = lhs ^ rhs
    rows = CHANGE_OF_BASIS
    det = _det3(rows)
    # the determinant first: substitute raises on a singular U, whose
    # image is not definite
    cols = tuple(zip(*rows))
    proved = det in (1, -1) and substitute(build_tilde_fm(1), cols) == REDUCED_SHAPE
    return SpectrumIdentityReport(
        bound,
        diff in (0, 2) and not rhs & 2,
        tuple(n for n, bit in enumerate(bin(diff)[:1:-1]) if bit == "1"),
        rows if proved else None, det if proved else None,
    )
