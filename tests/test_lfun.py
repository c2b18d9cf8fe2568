import random
from math import gcd

import pytest

from quadorders.arith import factorize, is_squarefree
from quadorders.oracle import quotient_unit_count
from quadorders.quadfield import make_field
from quadorders.unitindex import l_value

SQUAREFREE = [d for d in range(-20, 21) if d not in (0, 1) and is_squarefree(d)]


def euler_phi(n):
    out = 1
    for p, a in factorize(n):
        out *= p ** (a - 1) * (p - 1)
    return out


def test_prime_power_fixtures():
    assert l_value(5**1, 2) == 6
    assert l_value(2**1, 2) == 2
    assert l_value(3**1, 2) == 4
    assert l_value(2**1, -3) == 3
    assert l_value(2**1, 17) == 1
    assert l_value(2**3, 17) == 4
    assert l_value(2**3, 5) == 12
    assert l_value(2**3, 7) == 8
    assert l_value(3**2, -3) == 9
    assert l_value(7**2, 3) == 56


def test_value_fixtures():
    assert l_value(1, 7) == 1
    assert l_value(33, 2) == 48
    assert l_value(2, -3) == 3
    assert l_value(6, 5) == 12
    assert l_value(10, 2) == 12


def test_validation():
    with pytest.raises(ValueError):
        l_value(5, 12)
    with pytest.raises(ValueError):
        l_value(0, 2)
    with pytest.raises(ValueError):
        l_value(4, 12)
    # d = 0 and d = 1 define no quadratic field, whatever n is
    for d in (0, 1):
        for n in (1, 5, 12):
            with pytest.raises(ValueError, match=f"d={d} does not define a quadratic field"):
                l_value(n, d)


def test_multiplicative_on_coprime_parts():
    rng = random.Random(4)
    for _ in range(400):
        d = rng.choice(SQUAREFREE)
        a = rng.randrange(1, 200)
        b = rng.randrange(1, 200)
        if gcd(a, b) != 1:
            continue
        assert l_value(a * b, d) == l_value(a, d) * l_value(b, d)


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(10) == 4
    assert euler_phi(49) == 42
    for n in range(1, 200):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_unit_count_ratio_identity():
    # L(n, d) = |U(O_K/(n))| / phi(n) on the enumerable range
    for d in SQUAREFREE:
        F = make_field(d)
        for n in range(2, 13):
            assert l_value(n, d) * euler_phi(n) == quotient_unit_count(F, n)
