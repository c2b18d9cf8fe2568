"""Arithmetic of quadratic integers a + b*omega, exact and modulo M, and the field character.

For squarefree d, the maximal order of Q(sqrt(d)) has Z-basis (1, omega) with
omega^2 = half*omega + t: omega = sqrt(d), (half, t) = (0, d) when
d = 2, 3 (mod 4), and omega = (1 + sqrt(d))/2, (half, t) = (1, (d-1)/4) when
d = 1 (mod 4).  Elements are plain (a, b) int tuples in that basis, so the
order of index n is exactly the set of elements with n | b.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .arith import CACHE_MAXSIZE, InternalConsistencyError, is_prime, is_squarefree

QI = tuple[int, int]  # a + b*omega as (a, b)


class FieldContext(NamedTuple):
    """Q(sqrt(d)) with field discriminant D and omega^2 = half*omega + t."""

    d: int
    D: int
    t: int
    half: int


@lru_cache(maxsize=CACHE_MAXSIZE)
def make_field(d: int) -> FieldContext:
    if d in (0, 1):
        raise ValueError(f"d={d} does not define a quadratic field")
    if not is_squarefree(d):
        raise ValueError(f"d={d} is not squarefree")
    if d % 4 == 1:
        return FieldContext(d, d, (d - 1) // 4, 1)
    return FieldContext(d, 4 * d, d, 0)


def qi_mul(F: FieldContext, x: QI, y: QI, M: int | None = None) -> QI:
    """x * y, with both coordinates reduced mod M when M is given."""
    (a, b), (c, e) = x, y
    bb = b * e
    a, b = a * c + F.t * bb, a * e + b * c + F.half * bb
    if M is None:
        return a, b
    return a % M, b % M


def qi_pow(F: FieldContext, x: QI, k: int, M: int) -> QI:
    """x**k mod M for k >= 1, by left-to-right square-and-multiply over qi_mul."""
    x = y = (x[0] % M, x[1] % M)
    for bit in bin(k)[3:]:
        y = qi_mul(F, y, y, M)
        if bit == "1":
            y = qi_mul(F, y, x, M)
    return y


def qi_norm(F: FieldContext, x: QI) -> int:
    a, b = x
    return a * a + F.half * a * b - F.t * b * b


def unit_xy(F: FieldContext, x: QI) -> tuple[int, int]:
    """Coordinates (X, Y) of x = a + b*omega written as (X + Y*sqrt(D))/2."""
    a, b = x
    return 2 * a + F.half * b, b


def omega_roots(F: FieldContext, p: int) -> tuple[int, ...]:
    """Roots mod p of omega's minimal polynomial x^2 - half*x - t, by exhaustive scan."""
    return tuple(r for r in range(p) if (r * r - F.half * r - F.t) % p == 0)


def field_char(d: int, p: int) -> int:
    """The Kronecker symbol (D/p) of Q(sqrt(d)) at a prime p: -1 inert, 0 ramified, 1 split.

    For odd p this is the Legendre symbol (d/p), by Euler's criterion.  Raises
    ValueError when p is not a prime.
    """
    if p == 2:
        r = d % 8
        return 1 if r == 1 else -1 if r == 5 else 0
    if not is_prime(p):
        raise ValueError(f"field_char requires a prime, got {p}")
    t = pow(d % p, (p - 1) // 2, p)
    if t == p - 1:
        return -1
    if t not in (0, 1):
        raise InternalConsistencyError(f"Euler criterion returned {t} mod {p}")
    return t
