"""The unit index m(n) = [U(O_K) : U(Z + n*O_K)] and the index function L(n, d).

L(n, d) = |U(O_K/(n))| / phi(n) is multiplicative with L(1) = 1 and
L(p^a) = p^(a-1) * (p - (D/p)), (D/p) the field character (including p = 2);
these match the unit counts of the split, inert and ramified local quotients.

m(n), the least k >= 1 with u^k in the order of index n (u the fundamental unit,
for d < 0 the torsion generator), is the lcm of the m(p^a); m(q) is the order of u in
G_q = (O_K/q)^* / (Z/q)^*, of order L(q), as u^k is in Z + q*O_K iff q | its omega-coordinate.
At a ramified p, G_p has order p: m(p) is 1 if p | u's omega-coordinate, else p (nothing is
checked, as every x^p is rational mod p).  At an unramified p, u^k is in Z + p*O_K iff z^k = 1
in the reduced ring O_K/(p), z = alpha/beta for u = alpha = (x + y*sqrt(D))/2 of norm
N = alpha*beta, as conjugation fixes exactly F_p there.  P' = z + 1/z = (x^2 - 2N) * N is in
F_p and (z^k - 1)^2 = z^k * (V_k(P', 1) - 2), so z^k = 1 iff V_k(P', 1) = 2 (mod p), p = 2
included; V_jk = V_j(V_k) (Lehmer, Ann. Math. 1930).  For r^e || L, V_(L/r^e) is raised to
the r-th power until it is 2.  A u not of norm N mod p, or z^L != 1, raises
InternalConsistencyError.  For a >= 2 the kernel of G_(p^a) -> G_p has order p^(a-1), so
m(p^a) = m(p) * p^j for the fewest j < a of p-th powers (by qi_pow) that bring u^m(p) into
Z + p^a*O_K; a u^m(p) that a - 1 of them do not bring there raises InternalConsistencyError.
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


def prime_rank(F: FieldContext, U: FundamentalUnit, p: int, chi: int) -> int:
    """m(p) for chi = (D/p): by one divisibility at a ramified p, else by the torus route."""
    if not chi:
        return 1 if U.u[1] % p == 0 else p
    L = p - chi
    x, y = unit_xy(F, U.u)
    x, y, N = x % p, y % p, U.norm_sign
    if (x * x - F.D * y * y - 4 * N) % p:
        raise InternalConsistencyError(f"u is not a unit of norm {N} mod {p} for d = {F.d}")
    P = (x * x - 2 * N) * N % p  # z + 1/z for z = alpha/beta
    m = 1
    for r, e in factorize(L):
        t, j = lucas_v(P, L // r**e, p), 0
        while (t - 2) % p:  # z^k = 1 iff V_k = 2, also at p = 2 where 2 = 0
            if j == e:
                raise InternalConsistencyError(f"u^L is not in the order for L({p}, {F.d}) = {L}")
            t, j = lucas_v(t, r, p), j + 1
        m *= r**j
    return m


def local_data(F: FieldContext, U: FundamentalUnit, p: int, a: int) -> tuple[int, int, bool]:
    """(m(p^a), L(p^a), p inert), reading the field character once and m(p) once.

    Uncached: a caller that keeps its own per-field table calls this, so the
    process-lifetime cache of min_power_prime_power does not fill.
    """
    chi = field_char(F.d, p)
    m = prime_rank(F, U, p, chi)
    if a > 1:  # u^m(p) is in the kernel of G_(p^a) -> G_p, of order p^(a-1)
        q = p**a
        w = qi_pow(F, U.u, m, q)
        for j in range(a):
            if w[1] % q == 0:
                break
            w = qi_pow(F, w, p, q)
        else:
            raise InternalConsistencyError(f"u^{m * p ** (a - 1)} is not in Z + {q}*O_K at d = {F.d}")
        m *= p**j
    return m, p ** (a - 1) * (p - chi), chi == -1


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
