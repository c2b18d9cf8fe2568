"""Classification of the order R = Z + n*O_K inside K = Q(sqrt(d)).

The finite criteria used here:
  ideal-preserving   every prime dividing n is inert in O_K;
  locally associated m(n) = L(n, d);
  associated         both of the above;
  |Cl(R)|            h * L / m  (m divides L);
  half-factorial     h <= 2, and for n > 1 additionally R associated and
                     n a prime or twice an odd prime.

_record applies them once and returns a row tuple in ClassificationRecord's
field order; a record is a NamedTuple, so it equals its row.  classify_order
wraps the row in a record, classify_field yields the bare rows of one field
for the scanner to render.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import lcm
from typing import NamedTuple

from .arith import InternalConsistencyError, factorize, is_prime
from .classgroup import class_number
from .pell import fundamental_unit
from .quadfield import FieldContext, field_char, make_field
from .unitindex import l_value, local_data, min_power


@dataclass(frozen=True, slots=True)
class OrderSpec:
    """The order of index n in the maximal order of Q(sqrt(d))."""

    d: int
    n: int

    def __post_init__(self) -> None:
        make_field(self.d)  # raises make_field's ValueError for a d that defines no field
        if self.n < 1:
            raise ValueError(f"order index must be >= 1, got {self.n}")


class ClassificationRecord(NamedTuple):
    d: int
    n: int
    D: int
    m: int
    L: int
    ideal_preserving: bool
    locally_associated: bool
    associated: bool
    h_maximal: int
    h_order: int
    hfd: bool


def is_ideal_preserving(spec: OrderSpec) -> bool:
    return all(field_char(spec.d, p) == -1 for p, _ in factorize(spec.n))


def _record(
    F: FieldContext, h: int, n: int, m: int, L: int, ip: bool, prime_shape: bool
) -> tuple:
    """The row of Z + n*O_K from m, L, ideal-preserving and whether n is p or 2p, p odd."""
    if L % m:
        raise InternalConsistencyError(f"m={m} does not divide L={L} for d={F.d}, n={n}")
    la = m == L
    assoc = ip and la
    hfd = h <= 2 and (n == 1 or (assoc and prime_shape))
    return (F.d, n, F.D, m, L, ip, la, assoc, h, h * (L // m), hfd)


def classify_order(spec: OrderSpec) -> ClassificationRecord:
    """The record of one cell; the reference that classify_field is tested against."""
    F = make_field(spec.d)
    U = fundamental_unit(F)
    h = class_number(F, U).h
    n = spec.n
    m = min_power(F, U, n)
    L = l_value(n, spec.d)
    prime_shape = is_prime(n) or (n % 4 == 2 and is_prime(n // 2))  # p or 2p, p odd
    return ClassificationRecord(*_record(F, h, n, m, L, is_ideal_preserving(spec), prime_shape))


def classify_field(d: int, n_min: int, n_max: int) -> Iterator[tuple]:
    """Yield the rows of Q(sqrt(d)) for n_min <= n <= n_max, in n order.

    Each cell is composed from its factorization n = prod p^a and a table of
    (m(p^a), L(p^a), p inert) kept for this call: m by lcm, L by product,
    ideal-preserving by AND.  An n_min < 1 raises factorize's ValueError.
    """
    F = make_field(d)
    U = fundamental_unit(F)
    h = class_number(F, U).h
    table: dict[tuple[int, int], tuple[int, int, bool]] = {}
    for n in range(n_min, n_max + 1):
        fac = factorize(n)
        m, L, ip = 1, 1, True
        for pa in fac:
            entry = table.get(pa)
            if entry is None:
                entry = table[pa] = local_data(F, U, *pa)
            m = lcm(m, entry[0])
            L *= entry[1]
            ip = ip and entry[2]
        # n is p, or 2p with p odd
        prime_shape = (len(fac) == 1 and fac[0][1] == 1) or (
            len(fac) == 2 and fac[0] == (2, 1) and fac[1][1] == 1
        )
        yield _record(F, h, n, m, L, ip, prime_shape)
