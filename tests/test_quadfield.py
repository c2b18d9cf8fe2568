import random

import pytest

from quadorders.arith import is_squarefree
from quadorders.quadfield import (
    field_char,
    make_field,
    omega_roots,
    qi_mul,
    qi_norm,
    qi_pow,
    unit_xy,
)

SQUAREFREE_SMALL = [d for d in range(-50, 51) if d not in (0, 1) and is_squarefree(d)]


def test_make_field_kinds():
    # (d, D, t, half) with omega^2 = half*omega + t
    F = make_field(2)
    assert (F.d, F.D, F.t, F.half) == (2, 8, 2, 0)
    F = make_field(5)
    assert (F.d, F.D, F.t, F.half) == (5, 5, 1, 1)
    F = make_field(-3)
    assert (F.d, F.D, F.t, F.half) == (-3, -3, -1, 1)
    F = make_field(-1)
    assert (F.d, F.D, F.t, F.half) == (-1, -4, -1, 0)
    assert make_field(-5).D == -20


def test_make_field_rejects():
    for d in (0, 1, 12, -12, 9, 100):
        with pytest.raises(ValueError):
            make_field(d)


def test_qi_mul_fixtures():
    F = make_field(2)
    u = (1, 1)
    u2 = qi_mul(F, u, u)
    assert u2 == (3, 2)
    assert qi_mul(F, u, u2) == (7, 5)
    assert qi_mul(F, u, u2, 5) == (2, 0)
    F5 = make_field(5)
    # omega^2 = omega + 1 for d = 5
    assert qi_mul(F5, (0, 1), (0, 1)) == (1, 1)


def test_qi_norm_fixtures():
    assert qi_norm(make_field(2), (1, 1)) == -1
    assert qi_norm(make_field(5), (0, 1)) == -1
    assert qi_norm(make_field(-1), (0, 1)) == 1
    assert qi_norm(make_field(-3), (0, 1)) == 1
    assert qi_norm(make_field(7), (8, 3)) == 1


def test_unit_xy_is_half_sqrt_d_coordinates():
    # a + b*omega = (X + Y*sqrt(D))/2, so X^2 - D*Y^2 = 4*norm
    rng = random.Random(1)
    for _ in range(200):
        F = make_field(rng.choice(SQUAREFREE_SMALL))
        x = (rng.randrange(-30, 31), rng.randrange(-30, 31))
        X, Y = unit_xy(F, x)
        assert Y == x[1] and (X - F.half * Y) % 2 == 0
        assert X * X - F.D * Y * Y == 4 * qi_norm(F, x)


def test_conj_and_norm_properties():
    rng = random.Random(2)
    for _ in range(400):
        d = rng.choice(SQUAREFREE_SMALL)
        F = make_field(d)
        x = (rng.randrange(-30, 31), rng.randrange(-30, 31))
        y = (rng.randrange(-30, 31), rng.randrange(-30, 31))
        # multiplicativity and the conjugate product identity, with
        # conj(omega) = half - omega
        assert qi_norm(F, qi_mul(F, x, y)) == qi_norm(F, x) * qi_norm(F, y)
        conj = (x[0] + F.half * x[1], -x[1])
        assert qi_mul(F, x, conj) == (qi_norm(F, x), 0)


def reduce_mod(x, M):
    return (x[0] % M, x[1] % M)


def test_reduction_is_homomorphism():
    rng = random.Random(3)
    for _ in range(400):
        d = rng.choice(SQUAREFREE_SMALL)
        F = make_field(d)
        M = rng.randrange(2, 60)
        x = (rng.randrange(-99, 100), rng.randrange(-99, 100))
        y = (rng.randrange(-99, 100), rng.randrange(-99, 100))
        assert qi_mul(F, reduce_mod(x, M), reduce_mod(y, M), M) == reduce_mod(
            qi_mul(F, x, y), M
        )


def test_qi_pow_is_repeated_qi_mul():
    # k = 1 still reduces x; exact powers of (1, 1) in Q(sqrt(2)) are (a_k, b_k) of 1 + sqrt(2)
    rng = random.Random(4)
    for _ in range(200):
        F = make_field(rng.choice(SQUAREFREE_SMALL))
        M = rng.randrange(2, 200)
        x = (rng.randrange(-999, 1000), rng.randrange(-999, 1000))
        w = reduce_mod(x, M)
        for k in range(1, 40):
            assert qi_pow(F, x, k, M) == w, (F.d, x, k, M)
            w = qi_mul(F, w, x, M)
    assert qi_pow(make_field(2), (1, 1), 5, 10**6) == (41, 29)


def test_splitting_fixtures():
    # the character (-1 inert, 0 ramified, 1 split) and omega's roots mod p
    F2 = make_field(2)
    assert field_char(2, 5) == -1 and omega_roots(F2, 5) == ()
    assert field_char(2, 2) == 0 and omega_roots(F2, 2) == (0,)
    assert field_char(2, 7) == 1 and set(omega_roots(F2, 7)) == {3, 4}
    assert field_char(17, 2) == 1 and set(omega_roots(make_field(17), 2)) == {0, 1}
    assert field_char(-3, 3) == 0 and omega_roots(make_field(-3), 3) == (2,)
    assert field_char(5, 2) == -1 and omega_roots(make_field(5), 2) == ()
    for p in (6, 15, 1, 0, -3):
        with pytest.raises(ValueError):
            field_char(2, p)


def test_splitting_partition_and_roots():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    # every squarefree class of d mod 8, so p = 2 is seen split, inert and ramified
    assert {d % 8 for d in SQUAREFREE_SMALL} == {1, 2, 3, 5, 6, 7}
    for d in SQUAREFREE_SMALL:
        F = make_field(d)
        for p in primes:
            chi = field_char(d, p)
            roots = omega_roots(F, p)
            # the minimal polynomial has 1 + (D/p) roots mod p: 0 inert, 1 ramified, 2 split
            assert len(roots) == 1 + chi, (d, p)
            # ramified exactly at divisors of the discriminant
            assert (chi == 0) == (F.D % p == 0)
            # roots of x^2 - d, or of x^2 - x - (d-1)/4 when d = 1 (mod 4)
            for r in roots:
                if d % 4 == 1:
                    assert (r * r - r - (d - 1) // 4) % p == 0
                else:
                    assert (r * r - d) % p == 0
