"""Number-theory helpers checked against definition-level oracles."""

import pytest

from lemma_checks import divisors, valuation
from qprim import intarith
from qprim.intarith import (
    MAX_P,
    check_prime,
    check_prime_not_dividing,
    is_prime,
    kronecker,
    prime_factors,
    primes_up_to,
    sqrt_mod,
)


def legendre_by_squares(D, q):
    """Legendre symbol for odd prime q by exhausting squares mod q."""
    r = D % q
    if r == 0:
        return 0
    return 1 if r in {x * x % q for x in range(1, q)} else -1


def test_is_prime_matches_definition():
    for n in range(0, 600):
        assert is_prime(n) == (n > 1 and all(n % d for d in range(2, n)))
    assert is_prime(10**6 + 3)
    assert not is_prime(10**6 + 1)


def test_check_prime_caps_p_before_trial_division(monkeypatch):
    check_prime(999983)  # the largest prime below the cap
    with pytest.raises(ValueError, match=f"p must be prime, got {MAX_P}"):
        check_prime(MAX_P)
    for p in (-3, 0, 1, 4):
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            check_prime(p)
    with pytest.raises(ValueError, match="divides the discriminant"):
        check_prime_not_dividing(7, -56)

    def no_trial_division(n):
        raise AssertionError("p is checked against MAX_P before is_prime")

    monkeypatch.setattr(intarith, "is_prime", no_trial_division)
    # 100000007 and 10^14 + 31 are primes above the cap
    for p in (MAX_P + 1, 100000007, 10**14 + 31):
        with pytest.raises(ValueError, match=f"p must be at most {MAX_P}, got {p}"):
            check_prime(p)
        with pytest.raises(ValueError, match=f"p must be at most {MAX_P}, got {p}"):
            check_prime_not_dividing(p, -23)


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    # the sieve lists what the trial division accepts, for every n
    expected = []
    for n in range(-1, 2001):
        if is_prime(n):
            expected.append(n)
        assert primes_up_to(n) == expected, n
    primes = primes_up_to(10**6)
    assert len(primes) == 78498 and primes[-1] == 999983


def test_sqrt_mod():
    # every square a mod p, 0 included, for every prime p below 600, and
    # the largest primes below 10^6 of each residue mod 8 (p = 1 mod 8 takes
    # the Tonelli-Shanks loop)
    largest = {q % 8: q for q in primes_up_to(10**6) if q > 2}
    assert largest == {1: 999961, 3: 999979, 5: 999917, 7: 999983}
    for p in primes_up_to(600):
        for a in {x * x % p for x in range(p)}:
            r = sqrt_mod(a, p)
            assert 0 <= r < p and r * r % p == a, (a, p)
    for p in largest.values():
        for x in (1, 2, 3, 12345, p - 1):
            r = sqrt_mod(x * x, p)
            assert r in (x, p - x), (x, p)


def test_prime_factors_reconstruct():
    assert prime_factors(1) == {}
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    for n in range(1, 2000):
        fac = prime_factors(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p) and e >= 1
            prod *= p**e
        assert prod == n
    with pytest.raises(ValueError):
        prime_factors(0)


def test_kronecker_at_two():
    # bottom argument 2: 0 for even D, +1 for D = 1, 7 (mod 8), -1 otherwise
    for D in range(-250, 251):
        s = kronecker(D, 2)
        if D % 2 == 0:
            assert s == 0
        elif D % 8 in (1, 7):
            assert s == 1
        else:
            assert s == -1


def test_kronecker_odd_prime_is_legendre():
    for q in primes_up_to(100):
        if q == 2:
            continue
        for D in range(-120, 121):
            assert kronecker(D, q) == legendre_by_squares(D, q)


def test_kronecker_multiplicative():
    # totally multiplicative in the bottom argument
    for D in (-3, -23, -56):
        memo = {}

        def sym(n, D=D, memo=memo):
            v = memo.get(n)
            if v is None:
                v = memo[n] = kronecker(D, n)
            return v

        for k1 in range(1, 501):
            for k2 in range(k1, 501):
                assert sym(k1 * k2) == sym(k1) * sym(k2)


def test_kronecker_known_values():
    assert kronecker(-56, 3) == 1
    assert kronecker(-56, 5) == 1
    assert kronecker(-56, 11) == -1
    assert kronecker(-56, 23) == 1
    assert kronecker(-56, 7) == 0
    assert kronecker(-3, 7) == 1
    assert kronecker(-4, 5) == 1
    assert kronecker(-23, 2) == 1
    assert kronecker(-56, 1) == 1


def test_kronecker_rejects_nonpositive_bottom():
    with pytest.raises(ValueError):
        kronecker(-56, 0)
    with pytest.raises(ValueError):
        kronecker(-56, -3)


def test_valuation():
    assert valuation(3, 54) == 3
    assert valuation(2, -40) == 3
    assert valuation(7, 5) == 0
    for q in (2, 3, 5, 7, 11):
        for e in range(5):
            for m in (1, 2, 5, 13):
                if m % q == 0:
                    continue
                n = q**e * m
                assert valuation(q, n) == e
                assert n % q**e == 0 and (n // q**e) % q != 0
    with pytest.raises(ValueError):
        valuation(5, 0)
    with pytest.raises(ValueError):
        valuation(1, 10)


def test_divisors_matches_filter():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    for n in range(1, 400):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    with pytest.raises(ValueError):
        divisors(0)

