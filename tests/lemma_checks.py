"""Brute-force checks of the lemmas the classifier rests on.

Only the tests run these: a matrix search for scaling isometries,
reflection parity of ambiguous forms, sampled product membership, and
the sums-of-two-squares witness search.  `qprim verify` re-checks each
cell by its witness search and `oracle.revalidate_verdict` instead.
The helpers only these checks and the tests call live here too: the
divisor-sum mass formula, the automorph count omega, divisors, valuations,
the action f o M on forms and the improper automorphs of ambiguous forms,
and the ternary lattice count `rep_count_table` with its determinant
`det3`, the reference for `ternary.one_mod_three_values`.
"""

import math
import random

from qprim.classgroup import compose, enumerate_classes, inverse_class
from qprim.intarith import (
    ceil_div,
    check_prime_not_dividing,
    is_prime,
    kronecker,
    prime_factors,
)
from qprim.oracle import _smallest_witnesses
from qprim.pprim import build_isometry, solve_two_square
from qprim.qform import (
    BinaryForm,
    IntMap2,
    check_discriminant,
    is_ambiguous,
    transformed_coefficients,
)
from qprim.repcount import enumerate_solutions, rep_counts, spectrum
from qprim.ternary import TernaryForm

#: coordinate bound of the vectors verify_reflection_parity checks
REFLECTION_SAMPLE_BOUND = 15
#: trials of verify_product_membership, and the largest value it samples
PRODUCT_TRIALS = 40
PRODUCT_VALUE_CAP = 200


def _matrix_search(f: BinaryForm, p: int, entry_bound: int) -> list[IntMap2]:
    """All T with f o T = p^2 f, det T = p^2, T != 0 mod p, entries within bound.

    The first column (u, v) must satisfy f(u, v) = p^2 a (the x^2
    coefficient of f o T), and for fixed (u, v) the cross-coefficient and
    determinant equations form a linear system in the second column with
    determinant 2p^2a != 0, so (r, s) = (-cv/a, u + bv/a) is forced.  The
    enumeration is therefore exhaustive; every candidate is still checked
    against the defining equations directly.
    """
    a, b, c = f.a, f.b, f.c
    p2 = p * p
    target = (p2 * a, p2 * b, p2 * c)
    found = []
    for u, v in enumerate_solutions(f, p2 * a):
        if max(abs(u), abs(v)) > entry_bound:
            continue
        if (c * v) % a != 0 or (b * v) % a != 0:
            continue
        r = -(c * v) // a
        s = u + (b * v) // a
        if max(abs(r), abs(s)) > entry_bound:
            continue
        if u % p == 0 and v % p == 0 and r % p == 0 and s % p == 0:
            continue
        t = IntMap2(u, r, v, s)
        if t.det != p2:
            continue
        if transformed_coefficients(f, t) != target:
            continue
        found.append(t)
    return found


def verify_isometry_matrix_search(D: int, p: int) -> bool:
    """Matrix-level oracle: a scaling isometry of the principal form exists
    iff the two-square equation 4p^2 = m^2 + |D|n^2 has a p-primitive
    solution.  Entries up to 2p*sqrt(max(a, c)) suffice; the constructed
    isometry must itself land inside that box.
    """
    check_prime_not_dividing(p, D)
    f = enumerate_classes(D).classes[0]
    entry_bound = 2 * p * (math.isqrt(max(f.a, f.c)) + 1)
    found = _matrix_search(f, p, entry_bound)
    sol = solve_two_square(D, p)
    if sol is None:
        return not found
    t = build_isometry(f, sol)
    inside = all(abs(e) <= entry_bound for e in (t.m11, t.m12, t.m21, t.m22))
    return bool(found) and inside and t in found


def verify_reflection_parity(f: BinaryForm, q: int) -> bool:
    """For the reflection sigma of an ambiguous reduced form and q not | D:
    ord_q f(v +- sigma v) is even whenever the value is nonzero, and a
    vector outside qZ^2 whose value q divides is never fixed up to sign.
    Checked on every v with coordinates in [-REFLECTION_SAMPLE_BOUND,
    REFLECTION_SAMPLE_BOUND].
    """
    check_prime_not_dividing(q, f.D)
    sigma = improper_automorph(f)  # raises for non-ambiguous forms
    span = range(-REFLECTION_SAMPLE_BOUND, REFLECTION_SAMPLE_BOUND + 1)
    for x in span:
        for y in span:
            sx, sy = sigma.m11 * x + sigma.m12 * y, sigma.m21 * x + sigma.m22 * y
            for wx, wy in ((x - sx, y - sy), (x + sx, y + sy)):
                val = f.evaluate(wx, wy)
                if val != 0 and valuation(q, val) % 2 != 0:
                    return False
            if (x % q, y % q) != (0, 0) and f.evaluate(x, y) % q == 0:
                if (sx, sy) in ((x, y), (-x, -y)):
                    return False
    return True


def verify_product_membership(D: int, p: int) -> bool:
    """Sampled product check: for a p-primitively represented by class X and
    alpha by class Z with gcd(a, alpha, D) = 1, the product a*alpha is
    p-primitively represented by X*Z or by X*Z^-1.

    Sampling is deterministic (seeded by D and p): PRODUCT_TRIALS pairs
    with a, alpha <= PRODUCT_VALUE_CAP, in at most 50 attempts per trial.
    Returns True only if every performed trial succeeds and at least one
    trial ran.
    """
    check_prime_not_dividing(p, D)
    rng = random.Random(f"product:{D}:{p}")
    group = enumerate_classes(D)
    pools = {x: spectrum(x, PRODUCT_VALUE_CAP, p).qp_star for x in group.classes}
    checked = 0
    attempts = 0
    while checked < PRODUCT_TRIALS and attempts < PRODUCT_TRIALS * 50:
        attempts += 1
        x = rng.choice(group.classes)
        z = rng.choice(group.classes)
        if not pools[x] or not pools[z]:
            continue
        a = rng.choice(pools[x])
        alpha = rng.choice(pools[z])
        if math.gcd(math.gcd(a, alpha), D) != 1:
            continue
        n = a * alpha
        xz = compose(x, z)
        xz_inv = compose(x, inverse_class(z))
        if rep_counts(xz, n, p).r_star_p == 0 and rep_counts(xz_inv, n, p).r_star_p == 0:
            return False
        checked += 1
    return checked > 0


def verify_jones(k: int, p: int, bound: int) -> int | None:
    """Smallest witness up to bound for x^2 + k*y^2 at an odd prime p it
    represents, with gcd(p, 2k) = 1, or None; the classical criterion
    predicts None."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not is_prime(p) or p == 2 or math.gcd(p, 2 * k) != 1:
        raise ValueError(f"p must be an odd prime coprime to 2k, got p = {p}, k = {k}")
    f = BinaryForm(1, 0, k)
    if not enumerate_solutions(f, p):
        raise ValueError(f"hypothesis not met: {p} is not represented by {f}")
    return _smallest_witnesses(f, {p: bound})[p]


def mass(n: int, D: int) -> int:
    """omega(D) * sum over k | n of (D/k): the total representation count of n
    over all classes of discriminant D, valid whenever gcd(n, D) = 1."""
    if n < 1:
        raise ValueError(f"mass requires n >= 1, got {n}")
    check_discriminant(D)
    return omega(D) * sum(kronecker(D, k) for k in divisors(n))


def omega(D: int) -> int:
    """Number of automorphs: 6 for D = -3, 4 for D = -4, else 2."""
    check_discriminant(D)
    if D == -3:
        return 6
    if D == -4:
        return 4
    return 2


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, sorted ascending."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    divs = [1]
    for p, e in prime_factors(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def valuation(q: int, n: int) -> int:
    """Largest e >= 0 with q**e dividing n; q must be prime and n nonzero."""
    if q < 2:
        raise ValueError(f"valuation requires q >= 2, got {q}")
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


def apply_map(f: BinaryForm, M: IntMap2) -> BinaryForm:
    """The form f o M.  For det M = +-1 this preserves discriminant and primitivity."""
    a2, b2, c2 = transformed_coefficients(f, M)
    return BinaryForm(a2, b2, c2)


def improper_automorph(f: BinaryForm) -> IntMap2:
    """A det -1 map fixing the ambiguous reduced form f.

    Cases: b = 0 -> (x, y) |-> (x, -y); a = b -> (x, y) |-> (x + y, -y);
    a = c -> (x, y) |-> (y, x).  First matching case wins.
    """
    if not is_ambiguous(f):
        raise ValueError(f"form {f} is not ambiguous")
    if f.b == 0:
        sigma = IntMap2(1, 0, 0, -1)
    elif f.a == f.b:
        sigma = IntMap2(1, 1, 0, -1)
    else:  # a == c
        sigma = IntMap2(0, 1, 1, 0)
    assert sigma.det == -1 and apply_map(f, sigma) == f
    return sigma


def det3(m) -> int:
    """Determinant of a 3x3 integer matrix given by its rows."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _coordinate_bounds(f: TernaryForm, bound: int) -> tuple[int, int, int]:
    """Per-coordinate |v_i| limits for f(v) <= bound: v_i^2 <= N * (G^-1)_ii."""
    h = f.doubled_gram()
    det_h = det3(h)
    out = []
    for i in range(3):
        j, k = [t for t in range(3) if t != i]
        cof = h[j][j] * h[k][k] - h[j][k] * h[k][j]
        out.append(math.isqrt(2 * bound * cof // det_h))
    return tuple(out)


def rep_count_table(f: TernaryForm, bound: int) -> dict[int, int]:
    """Representation counts {n: #solutions of f = n} for 1 <= n <= bound,
    by a lattice-point count over the box that holds the ellipsoid."""
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
