import random
from math import lcm

import pytest

from quadorders import unitindex
from quadorders.arith import InternalConsistencyError, factorize, is_prime, is_squarefree
from quadorders.pell import FundamentalUnit, fundamental_unit
from quadorders.quadfield import field_char, make_field, qi_mul, unit_xy
from quadorders.unitindex import (
    l_value,
    local_data,
    lucas_v,
    min_power,
    min_power_prime_power,
)


def linear_scan_min_power(F, U, n):
    """Least k >= 1 with u^k in the order, by plain iteration mod n."""
    u = (U.u[0] % n, U.u[1] % n)
    w = u
    for k in range(1, 4 * n * n + 8):
        if w[1] == 0:
            return k
        w = qi_mul(F, w, u, n)
    raise AssertionError("no power landed in the order")


def power_mod(F, x, e, M):
    """x**e with coordinates reduced mod M, by square-and-multiply over qi_mul."""
    result = (1 % M, 0)
    while e:
        if e & 1:
            result = qi_mul(F, result, x, M)
        x = qi_mul(F, x, x, M)
        e >>= 1
    return result


def divisor_search_min_power(F, U, p, a):
    """m(p^a) as the least divisor k of L(p^a) with u^k in the order, by powering
    u mod p^a: an m algorithm independent of the library's Lucas rank."""
    q = p**a
    L = l_value(q, F.d)
    base = (U.u[0] % q, U.u[1] % q)
    for k in range(1, L + 1):
        if L % k == 0 and power_mod(F, base, k, q)[1] == 0:
            return k
    raise AssertionError(f"no divisor of L({p}^{a}, {F.d}) = {L} brings u^k into the order")


def order_reduction_min_power(F, U, p, a):
    """m(p^a) by order reduction from L(p^a): each prime r of L divided out of k while
    u^(k/r) stays in the order, powering u mod p^a by power_mod."""
    q = p**a
    L = l_value(q, F.d)
    base = (U.u[0] % q, U.u[1] % q)
    assert power_mod(F, base, L, q)[1] == 0, (F.d, p, a)
    k = L
    for r, _ in factorize(L):
        while k % r == 0 and power_mod(F, base, k // r, q)[1] == 0:
            k //= r
    return k


def reference_min_power(F, U, n, table):
    """m(n) as the lcm of divisor_search_min_power over n's prime powers, memoised in table."""
    out = 1
    for p, a in factorize(n):
        if (p, a) not in table:
            table[p, a] = divisor_search_min_power(F, U, p, a)
        out = lcm(out, table[p, a])
    return out


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


def test_lucas_rank_matches_divisor_search():
    # the torsion generators of d = -1, -3 and -7 (y = 0); norm -1 units (2, 5, 13, 17, 41);
    # 2 split (-7, 17, 41), inert (5, 13, 21) and ramified (2, 3, 94); odd ramified
    # primes (3, 15, 21, 94); every prime power up to 3,000, so a up to 11 at p = 2
    ds = [-1, -3, -7, 2, 3, 5, 13, 15, 17, 21, 41, 94]
    assert {field_char(d, 2) for d in ds} == {-1, 0, 1}
    assert {fundamental_unit(make_field(d)).norm_sign for d in ds if d > 0} == {-1, 1}
    prime_powers = [(p, a) for p in range(2, 3000) if is_prime(p)
                    for a in range(1, 12) if p**a <= 3000]
    seen = set()
    for d in ds:
        F = make_field(d)
        U = fundamental_unit(F)
        for p, a in prime_powers:
            m, L, inert = local_data(F, U, p, a)
            assert m == divisor_search_min_power(F, U, p, a), (d, p, a)
            assert (L, inert) == (l_value(p**a, d), field_char(d, p) == -1), (d, p, a)
            seen.add((field_char(d, p), p == 2, a > 1, m > 1))
    assert (0, False, True, True) in seen  # odd ramified p with a >= 2
    assert all((chi, True, True, True) in seen for chi in (-1, 0, 1))  # p = 2, a >= 2


def test_lucas_v_matches_recurrence():
    for P in range(-3, 6):
        seq = [2, P]
        while len(seq) < 200:
            seq.append(P * seq[-1] - seq[-2])
        for M in (2, 9, 10, 97):
            assert [lucas_v(P, k, M) for k in range(1, 200)] == [v % M for v in seq[1:]]
            # V_jk(P) = V_j(V_k(P)), the step of the inert route's order loop
            assert all(lucas_v(lucas_v(P, k, M), j, M) == seq[j * k] % M
                       for j in (2, 3, 5) for k in range(1, 200 // j))


def routes_taken(monkeypatch):
    """Patch the torus route's ladder and the ramified route's power to note which a local_data
    call reaches."""
    taken = []
    for name, route in (("lucas_v", "torus"), ("qi_pow", "powers")):
        def spy(*args, _f=getattr(unitindex, name), _route=route):
            taken.append(_route)
            return _f(*args)
        monkeypatch.setattr(unitindex, name, spy)
    return taken


def test_routes_match_order_reduction(monkeypatch):
    # d mod 8 in {1, 2, 3, 5, 6, 7} (17, 2, 3, 5, 6, 7); units of norm -1 (2, 5, 17, 41) and
    # +1 (3, 6, 7, 94); 3 | y at d = 7 (u = 8 + 3*sqrt(7)); the torsion generators of -1, -3
    # and u = -1 at d = -5 (y = 0); every prime power up to 10^4, so a = 2 up to p = 97 and a
    # up to 13 at p = 2
    ds = [-5, -3, -1, 2, 3, 5, 6, 7, 17, 41, 94]
    assert {d % 8 for d in ds if d > 0} == {1, 2, 3, 5, 6, 7}
    assert {fundamental_unit(make_field(d)).norm_sign for d in ds if d > 0} == {-1, 1}
    prime_powers = [(p, a) for p in range(2, 10**4) if is_prime(p)
                    for a in range(1, 14) if p**a <= 10**4]
    taken = routes_taken(monkeypatch)
    route_of, m_of, seen = {}, {}, set()
    for d in ds:
        F = make_field(d)
        U = fundamental_unit(F)
        y = unit_xy(F, U.u)[1]
        for p, a in prime_powers:
            chi, q = field_char(d, p), p**a
            taken.clear()
            m, L, inert = local_data(F, U, p, a)
            assert (L, inert) == (p ** (a - 1) * (p - chi), chi == -1)
            # the torus exactly at unramified p with L(q) > 1 where u is not in Z + q*O_K,
            # p-th powers exactly at ramified p where it is not; a = 1 and a >= 2 alike
            routes = {"torus" if chi else "powers"} if y % q and (L > 1 or not chi) else set()
            assert set(taken) == routes, (d, p, a, taken)
            assert m == order_reduction_min_power(F, U, p, a), (d, p, a)
            if not y % q:  # u is in Z + q*O_K: m = 1 with no ladder and no power
                assert m == 1 and not taken, (d, p, a)
            seen.add((chi, a > 1, m > 1))
            if a == 1:
                assert m == 1 or y % p, (d, p)  # p | y: u is in Z + p*O_K
                route_of[d, p], m_of[d, p] = min(routes, default=None), m
    assert {(chi, True, True) for chi in (-1, 0, 1)} <= seen  # a >= 2 on each splitting type
    assert {field_char(d, p) for (d, p), route in route_of.items() if route == "torus"} == {-1, 1}
    assert route_of[7, 3] is None and field_char(7, 3) == 1  # split, and 3 | y
    assert all(route_of[-5, p] is None for p in (2, 3, 11))  # ramified, split, inert
    assert route_of[7, 19] == route_of[7, 5] == "torus"  # split and inert, and y = 3
    # p = 2 unramified: inert at d = 5 mod 8 (L = 3), split at d = 1 mod 8 (L = 1, m = 1)
    assert route_of[-3, 2] == route_of[5, 2] == "torus"
    assert route_of[17, 2] is route_of[41, 2] is None
    # a ramified m(p) of either value: 2 | y at d = 6 (u = 5 + 2*sqrt(6)), not at d = 2
    assert route_of[7, 7] == route_of[2, 2] == "powers" and route_of[6, 2] is None
    assert (m_of[6, 2], m_of[2, 2], m_of[7, 7]) == (1, 2, 7)


# A character of the wrong sign gives L(p^a) = p^(a-1) * (p - chi) off by 2 * p^(a-1) from a
# multiple of the order of z = alpha/beta mod p^a, so z^L = z^(+-2 * p^(a-1)), which is 1 mod
# p^a only if z^2 = 1 mod p (the order of z mod p is prime to p), that is only at p | x*y.
@pytest.mark.parametrize(
    "d, p, chi",
    [
        (2, 11, 1),  # inert, called split: z^10 = z^-2 as z^12 = 1
        (2, 13, 1),  # inert, called split: z^12 = z^-2 as z^14 = 1
        (3, 17, 1),  # inert, called split: z^16 = z^-2 as z^18 = 1
        (2, 7, -1),  # split, called inert: z^8 = z^2 as z^6 = 1
        (2, 17, -1),
        (5, 11, -1),
    ],
)
def test_fast_routes_refuse_a_wrong_character(monkeypatch, d, p, chi):
    F = make_field(d)
    U = fundamental_unit(F)
    assert field_char(d, p) == -chi
    monkeypatch.setattr(unitindex, "field_char", lambda d, p: chi)
    for a in (1, 2, 3):
        refusal = rf"u\^L is not in the order for L\({p**a}, {d}\)"
        with pytest.raises(InternalConsistencyError, match=refusal):
            local_data(F, U, p, a)


@pytest.mark.parametrize("p", [7, 17, 5, 13])  # split in Q(sqrt(2)), then inert
def test_fast_routes_refuse_a_wrong_unit(p):
    F = make_field(2)
    U = fundamental_unit(F)  # 1 + sqrt(2), norm -1
    for fake in (
        FundamentalUnit(U.u, 1, 2),  # the wrong norm sign
        FundamentalUnit((3, 1), 1, 2),  # 3 + sqrt(2), of norm 7: no unit mod p
        FundamentalUnit((3, 1), -1, 2),
    ):
        for a in (1, 2, 3):  # the norm is checked mod p^(2a - 1), the torus route's modulus
            refusal = f"norm {fake.norm_sign} mod {p ** (2 * a - 1)} for d = 2$"
            with pytest.raises(InternalConsistencyError, match=refusal):
                local_data(F, fake, p, a)
