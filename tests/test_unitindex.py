import random
from math import lcm

import pytest

from quadorders.arith import is_prime, is_squarefree
from quadorders.lfun import l_value
from quadorders.pell import fundamental_unit
from quadorders.quadfield import make_field, qi_mul
from quadorders.unitindex import min_power, min_power_prime_power


def linear_scan_min_power(F, U, n):
    """Least k >= 1 with u^k in the order, by plain iteration mod n."""
    u = (U.u[0] % n, U.u[1] % n)
    w = u
    for k in range(1, 4 * n * n + 8):
        if w[1] == 0:
            return k
        w = qi_mul(F, w, u, n)
    raise AssertionError("no power landed in the order")


def test_prime_power_fixtures():
    F = make_field(2)
    U = fundamental_unit(F)
    assert min_power_prime_power(F, U, 5, 1) == 3
    assert min_power_prime_power(F, U, 2, 1) == 2
    assert min_power_prime_power(F, U, 3, 1) == 4
    assert min_power_prime_power(F, U, 11, 1) == 12
    F5 = make_field(5)
    assert min_power_prime_power(F5, fundamental_unit(F5), 2, 1) == 3


def test_min_power_fixtures():
    F = make_field(2)
    U = fundamental_unit(F)
    assert min_power(F, U, 33) == 12
    assert min_power(F, U, 1) == 1
    assert min_power(F, U, 9) == 12
    with pytest.raises(ValueError):
        min_power(F, U, 0)


def test_divides_l_value():
    for d in range(2, 101):
        if not is_squarefree(d):
            continue
        F = make_field(d)
        U = fundamental_unit(F)
        for n in range(1, 101):
            m = min_power(F, U, n)
            assert l_value(n, d) % m == 0


def test_matches_linear_scan():
    for d in range(-30, 31):
        if d in (0, 1) or not is_squarefree(d):
            continue
        F = make_field(d)
        U = fundamental_unit(F)
        for n in range(2, 31):
            assert min_power(F, U, n) == linear_scan_min_power(F, U, n)


def test_lcm_composition():
    rng = random.Random(5)
    squarefree = [d for d in range(2, 50) if is_squarefree(d)]
    for _ in range(200):
        d = rng.choice(squarefree)
        F = make_field(d)
        U = fundamental_unit(F)
        a = rng.randrange(2, 61)
        b = rng.randrange(2, 61)
        n = lcm(a, b)
        assert min_power(F, U, n) == lcm(min_power(F, U, a), min_power(F, U, b))


def test_imaginary_unit_indices():
    # -1 is rational, so m = 1 identically away from d = -1, -3
    for d in (-2, -5, -6, -7, -10, -163):
        F = make_field(d)
        U = fundamental_unit(F)
        for n in (1, 2, 3, 4, 12, 100):
            assert min_power(F, U, n) == 1
    # i needs the square, the sixth root of unity the cube
    F = make_field(-1)
    U = fundamental_unit(F)
    assert all(min_power(F, U, n) == 2 for n in (2, 3, 4, 25))
    F = make_field(-3)
    U = fundamental_unit(F)
    assert all(min_power(F, U, n) == 3 for n in (2, 3, 4, 25))


def test_prime_power_tower():
    # m(p^(a+1)) is m(p^a) or p * m(p^a): if u^k = r + p^a*x then u^(kp) = r^p (mod p^(a+1))
    ds = [2, 3, 5, 6, 7, 13, 19, 46, 61, 94, 109, 151,
          -1, -2, -3, -5, -7, -15, -23, -47]
    for d in ds:
        F = make_field(d)
        U = fundamental_unit(F)
        for p in (q for q in range(2, 51) if is_prime(q)):
            a = 1
            while p ** (a + 1) <= 10**4:
                m = min_power_prime_power(F, U, p, a)
                assert min_power_prime_power(F, U, p, a + 1) in (m, p * m), (d, p, a)
                a += 1
