"""Class numbers of the maximal order, computed from reduced binary quadratic forms.

A form (a, b, c) has discriminant b^2 - 4ac = D.  For D < 0 every class of
positive definite forms contains exactly one reduced form (|b| <= a <= c with
b >= 0 on the boundary), so h is a direct count.  For D > 0 the reduced forms
(0 < b < sqrt(D), sqrt(D) - b < 2|a| < sqrt(D) + b) fall into disjoint cycles
under the reduction step rho, one cycle per narrow class (Cohen, A Course in
Computational Algebraic Number Theory, 1993, section 5.6; Buchmann & Vollmer, Binary
Quadratic Forms, 2007, ch. 6); h equals the narrow count when the fundamental unit has
norm -1 and half of it otherwise.  A reduced form has b^2 < D, so ac < 0, and rho
alternates the sign of a: each cycle is walked by rho^2 over its forms with a > 0, and
each middle form (a < 0) is reduced exactly when its mirror (-a, b, -c) is one of them,
as reducedness reads only b, |a| and |c|.

Both enumerations run over b >= 0, then over the divisor pairs a*c = N with
N = |b^2 - D|/4 (Cohen, section 5.3).  For D < 0, a runs over [b, sqrt(N)], so
a <= c, and (a, -b, c) is yielded too when 0 < b < a < c; class_number counts the
forms without keeping them.  For D > 0 the bounds on |a| and |c| are the same and
|a|*|c| = N, so the smaller of each pair x*y = N runs over ((sqrt(D) - b)/2, sqrt(N)]
and gives the two forms (x, b, -y) and (y, b, -x) with a > 0, the ones the walk visits.
Either way about 0.07*|D| candidates are tried, where a box over a and b tries |D|/3
(D < 0) or D/4 (D > 0).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from .arith import CACHE_MAXSIZE, InternalConsistencyError
from .pell import FundamentalUnit
from .quadfield import FieldContext

Form = tuple[int, int, int]


class FormClassData(NamedTuple):
    h: int
    h_plus: int | None  # None for an imaginary field


def _validate_discriminant(D: int) -> None:
    if D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a discriminant")


def reduced_forms_negative(D: int) -> Iterator[Form]:
    """The reduced primitive positive definite forms of discriminant D < 0, in b order."""
    _validate_discriminant(D)
    if D >= 0:
        raise ValueError(f"reduced_forms_negative requires D < 0, got {D}")
    for b in range(D % 2, isqrt(-D // 3) + 1, 2):
        N = (b * b - D) // 4
        for a in [a for a in range(max(b, 1), isqrt(N) + 1) if not N % a]:
            c = N // a
            if gcd(a, b, c) == 1:
                yield a, b, c
                if 0 < b < a < c:
                    yield a, -b, c


def reduced_forms_indefinite(D: int) -> set[Form]:
    """The reduced primitive indefinite forms with a > 0 of nonsquare discriminant D > 0;
    each has a mirror (-a, b, -c), reduced too, and these are all the reduced forms."""
    _validate_discriminant(D)
    s = isqrt(D)
    if D <= 0 or s * s == D:
        raise ValueError(f"reduced_forms_indefinite requires nonsquare D > 0, got {D}")
    forms: set[Form] = set()
    for b in range(2 - D % 2, s + 1, 2):
        N = (D - b * b) // 4
        for x in [x for x in range((s - b) // 2 + 1, isqrt(N) + 1) if not N % x]:
            y = N // x
            if gcd(x, b, y) == 1:
                forms.update(((x, b, -y), (y, b, -x)))
    return forms


def rho_step(D: int, s: int, form: Form) -> Form:
    """One reduction step on indefinite forms (s = isqrt(D)); permutes reduced forms cyclically."""
    _, b, c = form
    bp = s - (s + b) % (2 * abs(c))
    return c, bp, (bp * bp - D) // (4 * c)


def narrow_class_number(D: int) -> int:
    """Number of rho-cycles on the reduced indefinite forms of discriminant D, walked by
    rho^2 over the forms with a > 0.  Each middle form's mirror must be one of them, and
    each image one not yet reached."""
    forms = reduced_forms_indefinite(D)
    s, unvisited, cycles = isqrt(D), set(forms), 0
    while unvisited:
        f = g = unvisited.pop()
        cycles += 1
        while True:
            a, b, c = mid = rho_step(D, s, g)
            if (-a, b, -c) not in forms:
                raise InternalConsistencyError(f"rho left the reduced forms at {mid} (D={D})")
            if (g := rho_step(D, s, mid)) == f:
                break
            if g not in unvisited:
                raise InternalConsistencyError(f"rho left its cycle at {g} (D={D})")
            unvisited.remove(g)
    return cycles


@lru_cache(maxsize=CACHE_MAXSIZE)
def class_number(F: FieldContext, U: FundamentalUnit) -> FormClassData:
    """Class data of the maximal order of Q(sqrt(d))."""
    if F.d < 0:
        h = sum(1 for _ in reduced_forms_negative(F.D))
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

