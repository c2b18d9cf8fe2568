"""The multiplicative index function L(n, d) = |U(O_K/(n))| / phi(n).

On prime powers L(p^a) = p^(a-1) * (p - (D/p)), with (D/p) the field
character (including p = 2), and L(1) = 1, extended multiplicatively.  These
match the unit counts of the split, inert and ramified local quotients.
"""

from __future__ import annotations

from .arith import factorize, is_squarefree
from .quadfield import field_char


def l_prime_power(p: int, a: int, d: int) -> int:
    if a < 1:
        raise ValueError(f"l_prime_power requires a >= 1, got {a}")
    if not is_squarefree(d):
        raise ValueError(f"l_prime_power requires squarefree d, got {d}")
    return p ** (a - 1) * (p - field_char(d, p))


def l_value(n: int, d: int) -> int:
    if n < 1:
        raise ValueError(f"l_value requires n >= 1, got {n}")
    if not is_squarefree(d):
        raise ValueError(f"l_value requires squarefree d, got {d}")
    out = 1
    for p, a in factorize(n):
        out *= l_prime_power(p, a, d)
    return out
