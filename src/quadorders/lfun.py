"""The multiplicative index function L(n, d) = |U(O_K/(n))| / phi(n).

On prime powers L(p^a) = p^(a-1) * (p - (D/p)), with (D/p) the field
character (including p = 2), and L(1) = 1, extended multiplicatively.  These
match the unit counts of the split, inert and ramified local quotients.
"""

from __future__ import annotations

from .arith import factorize
from .quadfield import field_char, make_field


def l_prime_power(p: int, a: int, d: int) -> int:
    if a < 1:
        raise ValueError(f"l_prime_power requires a >= 1, got {a}")
    make_field(d)  # rejects d in {0, 1} and non-squarefree d
    return p ** (a - 1) * (p - field_char(d, p))


def l_value(n: int, d: int) -> int:
    if n < 1:
        raise ValueError(f"l_value requires n >= 1, got {n}")
    make_field(d)  # the same check when n = 1 has no prime to pass it
    out = 1
    for p, a in factorize(n):
        out *= l_prime_power(p, a, d)
    return out
