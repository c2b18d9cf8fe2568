"""The unit index m(n) = [U(O_K) : U(Z + n*O_K)] and the index function L(n, d).

L(n, d) = |U(O_K/(n))| / phi(n) is multiplicative with L(1) = 1 and
L(p^a) = p^(a-1) * (p - (D/p)), (D/p) the field character (including p = 2);
these match the unit counts of the split, inert and ramified local quotients.

m(n), the least k >= 1 with u^k in the order of index n (u the fundamental unit,
for d < 0 the torsion generator), is the lcm of the m(q), q = p^a; m(q) is the order of u in
G_q = (O_K/q)^* / (Z/q)^*, of order L(q), as u^k is in Z + q*O_K iff q | its omega-coordinate.
At a ramified p, G_q is a p-group: m(q) = p^j for the fewest j p-th powers (by qi_pow) that
bring u into Z + q*O_K, at most a of them.  At an unramified p, conjugation fixes exactly Z/q
in O_K/q, so u^k is in Z + q*O_K iff z^k = 1 mod q, z = alpha/beta for u = alpha =
(x + y*sqrt(D))/2 of norm N = alpha*beta.  P' = z + 1/z = (x^2 - 2N) * N is rational and
(z^k - 1)^2 = z^k * (V_k(P', 1) - 2).  As p is unramified, the valuation at p of V_k - 2 is
twice that of z^k - 1, so even: z^k = 1 mod q iff V_k(P', 1) = 2 mod M = q^2/p = p^(2a-1),
which is mod p at a = 1, p = 2 included.  V_jk = V_j(V_k) (Lehmer, Ann. Math. 1930): for
r^e || L(q), V_(L/r^e) mod M is raised to the r-th power until it is 2 (order reduction from
the group order, Cohen, A Course in Computational Algebraic Number Theory, 1993, Alg. 1.4.3).
A u not of norm N mod M, or z^L != 1, raises InternalConsistencyError.  When q | y, u is
already in Z + q*O_K, so m(q) = 1 is returned after the norm check with no ladder: this is
every prime power for u = -1, the unit of every imaginary field but d = -1, -3.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .arith import CACHE_MAXSIZE, InternalConsistencyError, factorize
from .pell import FundamentalUnit
from .quadfield import FieldContext, field_char, make_field, qi_pow, unit_xy


def lucas_v(P: int, k: int, M: int) -> int:
    """V_k(P, 1) mod M for k >= 1, by a ladder on (V_j, V_{j+1}): two products per bit."""
    v0, v1 = P % M, (P * P - 2) % M  # (V_1, V_2)
    if k == 2:
        return v1
    for bit in bin(k)[3:]:
        # V_{2j} = V_j^2 - 2, V_{2j+1} = V_j V_{j+1} - P, V_{2j+2} = V_{j+1}^2 - 2
        if bit == "1":
            v0, v1 = (v0 * v1 - P) % M, (v1 * v1 - 2) % M
        else:
            v0, v1 = (v0 * v0 - 2) % M, (v0 * v1 - P) % M
    return v0


def local_data(F: FieldContext, U: FundamentalUnit, p: int, a: int) -> tuple[int, int, bool]:
    """(m(p^a), L(p^a), p inert), reading the field character once.

    Uncached: a caller that keeps its own per-field table calls this, so the
    process-lifetime cache of min_power_prime_power does not fill.
    """
    chi, q = field_char(F.d, p), p**a
    L = q // p * (p - chi)
    if not chi:
        # G_q is a p-group, and every x^(p^a) is in Z + q*O_K (pi^2 is in p*O_K, so x^p is
        # rational mod p, and each further p-th power gains a power of p): no raise is needed
        w, j = U.u, 0
        while w[1] % q:
            w, j = qi_pow(F, w, p, q), j + 1
        return p**j, L, False
    M = q * q // p  # z^k = 1 mod q iff V_k = 2 mod p^(2a - 1)
    x, y = unit_xy(F, U.u)
    x, y, N = x % M, y % M, U.norm_sign
    if (x * x - F.D * y * y - 4 * N) % M:
        raise InternalConsistencyError(f"u is not a unit of norm {N} mod {M} for d = {F.d}")
    if not y % q:  # u is already in Z + q*O_K
        return 1, L, chi == -1
    P = (x * x - 2 * N) * N % M  # z + 1/z for z = alpha/beta
    m = 1
    for r, e in factorize(L):
        t, j = lucas_v(P, L // r**e, M), 0
        while (t - 2) % M:
            if j == e:
                raise InternalConsistencyError(f"u^L is not in the order for L({q}, {F.d}) = {L}")
            t, j = lucas_v(t, r, M), j + 1
        m *= r**j
    return m, L, chi == -1


@lru_cache(maxsize=CACHE_MAXSIZE)
def min_power_prime_power(F: FieldContext, U: FundamentalUnit, p: int, a: int) -> int:
    """m(p^a), cached for the life of the process."""
    return local_data(F, U, p, a)[0]


def min_power(F: FieldContext, U: FundamentalUnit, n: int) -> int:
    """Least k with u^k in Z + n*O_K: the lcm of the prime-power values."""
    out = 1
    for p, a in factorize(n):
        out = lcm(out, min_power_prime_power(F, U, p, a))
    return out


def l_value(n: int, d: int) -> int:
    """L(n, d), the product of L(p^a) over the prime powers of n."""
    make_field(d)  # rejects d in {0, 1} and non-squarefree d, even when n = 1
    if n < 1:
        raise ValueError(f"order index must be >= 1, got {n}")
    out = 1
    for p, a in factorize(n):
        out *= p ** (a - 1) * (p - field_char(d, p))
    return out
