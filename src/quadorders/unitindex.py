"""The unit index m(n) = [U(O_K) : U(Z + n*O_K)].

m(n) is the least k >= 1 with u^k in the order of index n, u the fundamental
unit.  The exponents k with u^k in the order form a subgroup of Z, so m(n)
divides L(n, d) and it suffices to test divisors of L in ascending order;
m is multiplicative-by-lcm over the prime powers of n.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .arith import CACHE_MAXSIZE, InternalConsistencyError, divisors_sorted, factorize
from .lfun import l_prime_power
from .pell import FundamentalUnit
from .quadfield import QI, FieldContext, qi_mul, qi_pow


def min_power_search(F: FieldContext, U: FundamentalUnit, p: int, a: int) -> int:
    """Least k with u^k in Z + p^a * O_K, searched over the divisors of L(p^a, d).

    Uncached: a caller that keeps its own per-field table calls this, so the
    process-lifetime cache of min_power_prime_power does not fill.
    """
    q = p**a
    L = l_prime_power(p, a, F.d)
    base = (U.u[0] % q, U.u[1] % q)
    powers: dict[int, QI] = {}
    for k in divisors_sorted(L):
        if k == 1:
            w = base
        elif k % 2 == 0 and k // 2 in powers:
            half = powers[k // 2]
            w = qi_mul(F, half, half, q)
        else:
            w = qi_pow(F, base, k, q)
        powers[k] = w
        if w[1] == 0:
            return k
    raise InternalConsistencyError(
        f"no divisor of L({p}^{a}, {F.d}) = {L} brings u^k into the order"
    )


@lru_cache(maxsize=CACHE_MAXSIZE)
def min_power_prime_power(F: FieldContext, U: FundamentalUnit, p: int, a: int) -> int:
    """min_power_search, cached for the life of the process."""
    return min_power_search(F, U, p, a)


def min_power(F: FieldContext, U: FundamentalUnit, n: int) -> int:
    """Least k with u^k in Z + n*O_K: the lcm of the prime-power values."""
    if n < 1:
        raise ValueError(f"min_power requires n >= 1, got {n}")
    out = 1
    for p, a in factorize(n):
        out = lcm(out, min_power_prime_power(F, U, p, a))
    return out
