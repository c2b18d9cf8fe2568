import random

import pytest

from quadorders.arith import factorize, is_prime, is_squarefree
from quadorders.quadfield import field_char


def test_factorize_fixtures():
    assert factorize(1) == ()
    assert factorize(2) == ((2, 1),)
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(9991) == ((97, 1), (103, 1))
    assert factorize(2**10) == ((2, 10),)
    assert factorize(30030) == ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1))


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorize_round_trip_small_exhaustive():
    for n in range(1, 20001):
        fac = factorize(n)
        prod = 1
        for p, a in fac:
            assert a >= 1
            assert is_prime(p)
            prod *= p**a
        assert prod == n
        assert list(fac) == sorted(fac)


def test_factorize_round_trip_random_large():
    rng = random.Random(0)
    for _ in range(2000):
        n = rng.randrange(1, 10**6 + 1)
        prod = 1
        for p, a in factorize(n):
            assert is_prime(p)
            prod *= p**a
        assert prod == n


def test_is_prime_fixtures():
    primes = {2, 3, 5, 7, 11, 13, 9973}
    for n in primes:
        assert is_prime(n)
    for n in (0, 1, 4, 9, 91, 9991, -7):
        assert not is_prime(n)


def test_is_squarefree():
    assert is_squarefree(1)
    assert is_squarefree(-1)
    assert is_squarefree(30)
    assert is_squarefree(-30)
    assert not is_squarefree(12)
    assert not is_squarefree(-12)
    assert not is_squarefree(49)
    with pytest.raises(ValueError):
        is_squarefree(0)


def test_is_squarefree_matches_factorization():
    for n in range(1, 3000):
        expected = all(a == 1 for _, a in factorize(n))
        assert is_squarefree(n) == expected
        assert is_squarefree(-n) == expected


# The Kronecker symbol at odd primes p, computed by quadfield.field_char: there
# (D/p) = (d/p) for D = d or 4d, the Legendre symbol by Euler's criterion.


def test_kronecker_fixtures():
    assert field_char(2, 5) == -1
    assert field_char(5, 5) == 0
    assert field_char(2, 7) == 1
    assert field_char(-7, 3) == -1
    assert field_char(-1, 5) == 1


def test_kronecker_rejects_bad_modulus():
    with pytest.raises(ValueError):
        field_char(3, 15)
    with pytest.raises(ValueError):
        field_char(3, 1)


def test_kronecker_against_square_scan():
    # compare with the definition: d is a residue iff some x^2 = d (mod p)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97):
        squares = {x * x % p for x in range(1, p)}
        for d in range(-200, 201):
            expected = 0 if d % p == 0 else (1 if d % p in squares else -1)
            assert field_char(d, p) == expected


def test_kronecker_euler_criterion():
    for p in (3, 5, 7, 11, 97, 101, 499):
        for d in range(-50, 51):
            assert field_char(d, p) % p == pow(d % p, (p - 1) // 2, p)


def test_kronecker_multiplicative():
    rng = random.Random(1)
    primes = [3, 5, 7, 11, 13, 101, 499]
    for _ in range(500):
        p = rng.choice(primes)
        d1 = rng.randrange(-10**4, 10**4)
        d2 = rng.randrange(-10**4, 10**4)
        assert field_char(d1 * d2, p) == field_char(d1, p) * field_char(d2, p)

