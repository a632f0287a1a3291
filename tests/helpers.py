"""Shared test helpers."""

from functools import lru_cache

from qprim.classgroup import ClassGroup, compose
from qprim.intarith import is_prime
from qprim.oracle import BruteVerdict
from qprim.qform import BinaryForm
from qprim.repcount import rep_profile


def raw_form(a: int, b: int, c: int) -> BinaryForm:
    """BinaryForm bypassing constructor validation.  Negative tests only."""
    f = object.__new__(BinaryForm)
    object.__setattr__(f, "a", a)
    object.__setattr__(f, "b", b)
    object.__setattr__(f, "c", c)
    return f


def composition_table(group: ClassGroup) -> list[list[int]]:
    """h x h table of class indices under composition, in `group.classes` order."""
    index = {c: i for i, c in enumerate(group.classes)}
    return [[index[compose(x, y)] for y in group.classes] for x in group.classes]


def brute_force_cpp_full_sweep(f: BinaryForm, p: int, bound: int) -> BruteVerdict:
    """Reference witness search: sweep every value of f up to bound and take
    the smallest n whose solutions all have p | gcd(x, y).  The p^2-lattice
    search in `oracle.brute_force_cpp` must return the same verdict."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if f.D % p == 0:
        raise ValueError(f"p = {p} divides the discriminant {f.D}")
    for n, gcd_all in _sorted_profile(f, bound):
        if gcd_all % p == 0:
            return BruteVerdict(f, p, bound, n)
    return BruteVerdict(f, p, bound, None)


@lru_cache(maxsize=8)
def _sorted_profile(f: BinaryForm, bound: int) -> tuple[tuple[int, int], ...]:
    # the sweep does not depend on p, so a form's primes share it
    prof = rep_profile(f, bound)
    return tuple((n, prof[n].gcd_all) for n in sorted(prof))
