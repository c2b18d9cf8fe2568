"""Class numbers of the maximal order, computed from reduced binary quadratic forms.

A form (a, b, c) has discriminant b^2 - 4ac = D.  For D < 0 every class of
positive definite forms contains exactly one reduced form (|b| <= a <= c with
b >= 0 on the boundary), so h is a direct count.  For D > 0 the reduced forms
(0 < b < sqrt(D), sqrt(D) - b < 2|a| < sqrt(D) + b) fall into disjoint cycles
under the reduction step rho, one cycle per narrow class; h equals the narrow
count when the fundamental unit has norm -1 and half of it otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .arith import CACHE_MAXSIZE, InternalConsistencyError
from .pell import FundamentalUnit
from .quadfield import FieldContext

Form = tuple[int, int, int]


@dataclass(frozen=True, slots=True)
class FormClassData:
    h: int
    h_plus: int | None  # None for an imaginary field


def _validate_discriminant(D: int) -> None:
    if D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a discriminant")


def reduced_forms_negative(D: int) -> list[Form]:
    """All reduced primitive positive definite forms of discriminant D < 0."""
    _validate_discriminant(D)
    if D >= 0:
        raise ValueError(f"reduced_forms_negative requires D < 0, got {D}")
    forms: list[Form] = []
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a, a + 1):
            if (b - D) % 2:
                continue
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            forms.append((a, b, c))
    forms.sort()
    return forms


def reduced_forms_indefinite(D: int) -> set[Form]:
    """All reduced primitive indefinite forms of nonsquare discriminant D > 0."""
    _validate_discriminant(D)
    s = isqrt(D)
    if D <= 0 or s * s == D:
        raise ValueError(f"reduced_forms_indefinite requires nonsquare D > 0, got {D}")
    forms: set[Form] = set()
    for b in range(1, s + 1):
        if (b - D) % 2:
            continue
        num = b * b - D
        for abs_a in range(max((s - b + 2) // 2, 1), (s + b) // 2 + 1):
            if num % (4 * abs_a):
                continue
            for a in (abs_a, -abs_a):
                c = num // (4 * a)
                if gcd(gcd(abs(a), b), abs(c)) == 1:
                    forms.add((a, b, c))
    return forms


def rho_step(D: int, form: Form) -> Form:
    """One reduction step on indefinite forms; permutes the reduced forms cyclically."""
    s = isqrt(D)
    a, b, c = form
    two_c = 2 * abs(c)
    bp = s - (s + b) % two_c
    return (c, bp, (bp * bp - D) // (4 * c))


def narrow_class_number(D: int) -> int:
    """Number of rho-cycles on the reduced indefinite forms of discriminant D."""
    forms = reduced_forms_indefinite(D)
    seen: set[Form] = set()
    cycles = 0
    for f in sorted(forms):
        if f in seen:
            continue
        cycles += 1
        g = f
        while True:
            seen.add(g)
            g = rho_step(D, g)
            if g == f:
                break
            if g not in forms or g in seen:
                raise InternalConsistencyError(f"rho left its cycle at {g} (D={D})")
    return cycles


@lru_cache(maxsize=CACHE_MAXSIZE)
def class_number(F: FieldContext, U: FundamentalUnit) -> FormClassData:
    """Class data of the maximal order of Q(sqrt(d))."""
    if F.d < 0:
        h = len(reduced_forms_negative(F.D))
        if h < 1:
            raise InternalConsistencyError(f"h({F.D}) = {h}")
        return FormClassData(h, None)
    h_plus = narrow_class_number(F.D)
    if U.norm_sign == -1:
        h = h_plus
    else:
        if h_plus % 2:
            raise InternalConsistencyError(
                f"narrow class number {h_plus} odd with unit norm +1 (D={F.D})"
            )
        h = h_plus // 2
    if h < 1:
        raise InternalConsistencyError(f"h({F.D}) = {h}")
    return FormClassData(h, h_plus)

