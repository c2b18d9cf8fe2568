"""Fundamental units of the maximal order: Pell-type solver and torsion cases.

For d > 0 the fundamental unit is the smallest unit > 1, i.e. the minimal
solution of x^2 - D y^2 = +-4 with x, y >= 1 where D is the field discriminant.
It is read off the continued-fraction expansion of (P0 + sqrt(D))/2 with P0 the
largest integer below sqrt(D) of the same parity as D: that irrational is
reduced, so the expansion is purely periodic and the convergent denominators at
the end of the first period give the fundamental automorph.  Expanding sqrt(D)
itself and scaling +-1 solutions would miss half-integral units such as
(1 + sqrt(5))/2, so the /2 form is expanded directly.

For d < 0 the unit group is finite and a generator is returned: i for d = -1
(order 4), (1 + sqrt(-3))/2 for d = -3 (order 6), and -1 otherwise (order 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, log

from .arith import CACHE_MAXSIZE, InternalConsistencyError, is_prime
from .quadfield import QI, FieldContext, qi_mul, qi_norm, unit_xy


@dataclass(frozen=True, slots=True)
class FundamentalUnit:
    """Generator of the unit group modulo {+-1}; torsion_order is the order of
    the torsion subgroup (2 for real fields, where the group is {+-1} x u^Z)."""

    u: QI
    norm_sign: int
    torsion_order: int


def _pell4_fundamental(D: int) -> tuple[int, int]:
    """Minimal (x, y) with x, y >= 1 and x^2 - D y^2 = +-4, for nonsquare D >= 5."""
    s = isqrt(D)
    P0 = s if (s - D) % 2 == 0 else s - 1
    Q0 = 2
    P, Q = P0, Q0
    q_cur, q_prev = 0, 1  # convergent denominators q_{k-1}, q_{k-2}
    for _ in range(16 * D + 64):
        a = (P + s) // Q
        q_cur, q_prev = a * q_cur + q_prev, q_cur
        P_next = a * Q - P
        Q_next = (D - P_next * P_next) // Q
        if (P_next, Q_next) == (P0, Q0):
            # epsilon = q_cur*(P0 + sqrt(D))/2 + q_prev = (x + y*sqrt(D))/2
            return q_cur * P0 + 2 * q_prev, q_cur
        P, Q = P_next, Q_next
    raise InternalConsistencyError(f"continued fraction of sqrt({D}) did not close")


@lru_cache(maxsize=CACHE_MAXSIZE)
def fundamental_unit(F: FieldContext) -> FundamentalUnit:
    if F.d == -1:
        return FundamentalUnit((0, 1), 1, 4)
    if F.d == -3:
        return FundamentalUnit((0, 1), 1, 6)
    if F.d < 0:
        return FundamentalUnit((-1, 0), 1, 2)
    x, y = _pell4_fundamental(F.D)
    # invert unit_xy: (x + y*sqrt(D))/2 = a + b*omega
    u = ((x - F.half * y) // 2, y)
    sign = qi_norm(F, u)
    if sign not in (-1, 1):
        raise InternalConsistencyError(f"norm of claimed unit for d={F.d} is {sign}")
    return FundamentalUnit(u, sign, 2)


def _iroot(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n, for n >= 0 and k >= 1."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if k == 1 or n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)  # r**k >= n, then Newton descends to the root
    while True:
        rn = ((k - 1) * r + n // r ** (k - 1)) // k
        if rn >= r:
            return r
        r = rn


def verify_unit(F: FieldContext, U: FundamentalUnit) -> bool:
    """Recheck U from scratch: unit norm, and minimality.

    d > 0: (x, y) must solve x^2 - D y^2 = +-4 and no smaller solution may
    exist.  A smaller unit would make (x + y*sqrt(D))/2 a k-th power for some
    prime k <= log(x + 1)/log((1 + sqrt(5))/2), and the root's x-coordinate
    differs from the real k-th root by less than 1, so only a few integer
    candidates per k need to be tested for solving x'^2 - D y'^2 = +-4.
    d < 0: u must have the stated multiplicative order and no smaller one.
    """
    if qi_norm(F, U.u) not in (-1, 1):
        return False
    if F.d < 0:
        w = (1, 0)
        for k in range(1, U.torsion_order):
            w = qi_mul(F, w, U.u)
            if w == (1, 0):
                return False
        return qi_mul(F, w, U.u) == (1, 0)
    x, y = unit_xy(F, U.u)
    if x < 1 or y < 1:
        return False
    D = F.D
    if x * x - D * y * y not in (-4, 4):
        return False
    # every unit > 1 is at least the golden ratio, which bounds the exponent
    k_max = int(log(x + 1) / log((1 + 5**0.5) / 2)) + 1
    for k in range(2, k_max + 1):
        if not is_prime(k):
            continue
        lo = max(_iroot(max(x - 1, 1), k) - 2, 1)
        hi = _iroot(x + 1, k) + 2
        for xp in range(lo, hi + 1):
            for delta in (-4, 4):
                num = xp * xp - delta
                if num <= 0 or num % D != 0:
                    continue
                yp = isqrt(num // D)
                if yp >= 1 and yp * yp * D == num and (yp, xp) < (y, x):
                    return False
    return True
