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
(mod 3); g(0, 0) = 0 supplies the squares.  The sweep of g is exhaustive,
as is `rep_count_table`, the lattice-point count that checks the theta
prefix and serves the tests as the reference.  The equivalence of
tilde_f_1 with the shape [4, 6, 7, yz=6, zx=2, xy=0] is additionally
searched for over bounded unimodular changes of basis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .intarith import ceil_div

Vec3 = tuple[int, int, int]

#: largest |entry| of a change of basis tried by unimodular_match
ENTRY_BOUND = 3
#: theta series of tilde_f_1 and the reduced shape compared up to this value
THETA_BOUND = 200
#: largest bound spectrum_identity_report accepts (about 0.5 s of work)
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

    def gram_det(self) -> Fraction:
        """det of the (half-integral) Gram matrix, det(2G)/8."""
        return Fraction(_det3(self.doubled_gram()), 8)

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


def _coordinate_bounds(f: TernaryForm, bound: int) -> tuple[int, int, int]:
    """Per-coordinate |v_i| limits for f(v) <= bound: v_i^2 <= N * (G^-1)_ii."""
    h = f.doubled_gram()
    det_h = _det3(h)
    out = []
    for i in range(3):
        j, k = [t for t in range(3) if t != i]
        cof = h[j][j] * h[k][k] - h[j][k] * h[k][j]
        out.append(math.isqrt(2 * bound * cof // det_h))
    return tuple(out)


def rep_count_table(f: TernaryForm, bound: int) -> dict[int, int]:
    """Representation counts {n: #solutions of f = n} for 1 <= n <= bound."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    xmax, ymax, _ = _coordinate_bounds(f, bound)
    counts: dict[int, int] = {}
    xx, yy, zz, yz, zx, xy = f
    zz2 = 2 * zz
    for x in range(-xmax, xmax + 1):
        for y in range(-ymax, ymax + 1):
            rest = xx * x * x + yy * y * y + xy * x * y
            lin = yz * y + zx * x
            disc = lin * lin - 2 * zz2 * (rest - bound)
            if disc < 0:
                continue
            s = math.isqrt(disc)
            for z in range(ceil_div(-lin - s, zz2), (-lin + s) // zz2 + 1):
                v = zz * z * z + lin * z + rest
                if 1 <= v <= bound:
                    counts[v] = counts.get(v, 0) + 1
    return counts


def unimodular_match(
    f: TernaryForm, g: TernaryForm
) -> tuple[tuple[tuple[int, int, int], ...], int] | None:
    """Search for U (entries within ENTRY_BOUND, det +-1) with f o U = g.

    Returns (rows of U, det U) for the first match in a deterministic
    scan order, or None.  Columns are drawn from the bounded vectors
    whose f-values hit g's diagonal.
    """
    span = range(-ENTRY_BOUND, ENTRY_BOUND + 1)
    buckets: dict[int, list[Vec3]] = {g.xx: [], g.yy: [], g.zz: []}
    for v in ((x, y, z) for x in span for y in span for z in span):
        val = f.evaluate(*v)
        if val in buckets:
            buckets[val].append(v)
    for c1 in buckets[g.xx]:
        for c2 in buckets[g.yy]:
            if f.polar(c1, c2) != g.xy:
                continue
            for c3 in buckets[g.zz]:
                if f.polar(c2, c3) != g.yz or f.polar(c3, c1) != g.zx:
                    continue
                rows = tuple(
                    (c1[i], c2[i], c3[i]) for i in range(3)
                )
                d = _det3(rows)
                if d in (1, -1):
                    assert substitute(f, (c1, c2, c3)) == g
                    return rows, d
    return None


def one_mod_three_values(bound: int) -> tuple[set[int], set[int]]:
    """The values n <= bound, n = 1 mod 3, of f_1 and of tilde_f_1.

    One sweep of g = [3, 2, 5] over 3g = (3y + z)^2 + 14z^2 <= 3 bound
    splits its values by whether y = z (mod 3); (-y, -z) gives the same
    value and split, so z >= 0 suffices.  Since {t, -t} mod 3 is {0} or
    {1, 2}, tilde_f_1 takes t^2 + g(y, z) for 3 | t with y = z and for
    3 not | t with y != z (mod 3), while f_1 takes every t with every
    (y, z).  Each set is a bitset in an int, shifted by t^2 per t.
    """
    limit = 3 * bound
    one = ord("1")
    same = bytearray(b"0") * (bound + 1)
    other = bytearray(b"0") * (bound + 1)
    for z in range(math.isqrt(limit // 14) + 1):
        s = math.isqrt(limit - 14 * z * z)
        for y in range(-((s + z) // 3), (s - z) // 3 + 1):
            u = 3 * y + z
            (other if (y - z) % 3 else same)[(u * u + 14 * z * z) // 3] = one
    g_same = int(same[::-1], 2)
    g_other = int(other[::-1], 2)
    g_all = g_same | g_other
    f1 = tf1 = 0
    for t in range(math.isqrt(bound) + 1):
        f1 |= g_all << t * t
        tf1 |= (g_other if t % 3 else g_same) << t * t
    return _one_mod_three_bits(f1, bound), _one_mod_three_bits(tf1, bound)


def _one_mod_three_bits(bits: int, bound: int) -> set[int]:
    # one bin() pass: testing bits >> n & 1 for each n is quadratic
    digits = bin(bits)[:1:-1]
    return {n for n in range(1, min(len(digits), bound + 1), 3) if digits[n] == "1"}


class SpectrumIdentityReport(NamedTuple):
    """Exhaustive comparison of f_1 and tilde_f_1 on the class 1 mod 3.

    sets_match: (values of f_1 in 1 mod 3, minus {1}) equals
    (values of tilde_f_1 in 1 mod 3), both up to `bound`.  Both sets
    come from one sweep of g = [3, 2, 5], because f_1 = t^2 + g(y, z) and
    tilde_f_1 is the same sum with t = y - z (mod 3); see
    `one_mod_three_values`.
    theta_match: tilde_f_1 and the reduced shape have the same
    representation counts up to THETA_BOUND.
    """

    bound: int
    sets_match: bool
    sym_diff: tuple[int, ...]
    theta_match: bool
    gram_dets: tuple[Fraction, Fraction]
    change_of_basis: tuple[tuple[int, int, int], ...] | None
    change_det: int | None

    @property
    def ok(self) -> bool:
        return self.sets_match and self.theta_match

    def to_json(self) -> dict:
        rows = self.change_of_basis
        return {
            **self._asdict(),
            "change_of_basis": None if rows is None else [list(r) for r in rows],
            "gram_dets": [_frac_json(d) for d in self.gram_dets],
            "sym_diff": list(self.sym_diff),
            "theta_bound": THETA_BOUND,
        }


def _frac_json(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)


#: the reduced shape tilde_f_1 is expected to be equivalent to
REDUCED_SHAPE = (4, 6, 7, 6, 2, 0)


def spectrum_identity_report(bound: int) -> SpectrumIdentityReport:
    """Compare the 1 mod 3 values of f_1 and tilde_f_1 up to `bound` and
    cross-check tilde_f_1 against the reduced shape [4,6,7,yz=6,zx=2,xy=0]
    by theta prefix, Gram determinant, and a bounded unimodular search.
    A bound below 10 or above MAX_BOUND raises ValueError."""
    if not 10 <= bound <= MAX_BOUND:
        raise ValueError(f"bound must be in [10, {MAX_BOUND}], got {bound}")
    tf1 = build_tilde_fm(1)
    target = TernaryForm(*REDUCED_SHAPE)
    lhs, rhs = one_mod_three_values(bound)
    sym_diff = tuple(sorted(lhs ^ rhs))
    sets_match = (lhs - {1}) == rhs
    theta_match = rep_count_table(tf1, THETA_BOUND) == rep_count_table(
        target, THETA_BOUND
    )
    match = unimodular_match(tf1, target)
    rows, det = match if match is not None else (None, None)
    return SpectrumIdentityReport(
        bound,
        sets_match,
        sym_diff,
        theta_match,
        (tf1.gram_det(), target.gram_det()),
        rows,
        det,
    )
