"""Classification of the order R = Z + n*O_K inside K = Q(sqrt(d)).

The finite criteria used here:
  ideal-preserving   every prime dividing n is inert in O_K;
  locally associated m(n) = L(n, d);
  associated         both of the above;
  |Cl(R)|            h * L / m  (m divides L);
  half-factorial     h <= 2, and for n > 1 additionally R associated and
                     n a prime or twice an odd prime.

classify_field, the one kernel, yields a set-up field's rows in record order over window_plan,
n = 1 (q = r = 1) too; classify_order is its window of one n, which the plan reads from factorize.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from math import lcm
from typing import NamedTuple

from .arith import InternalConsistencyError, factorize, is_prime, window_plan
from .classgroup import class_number
from .pell import FundamentalUnit, fundamental_unit
from .quadfield import FieldContext, field_char, make_field
from .unitindex import local_data


class _Order(NamedTuple):
    d: int
    n: int


class OrderSpec(_Order):
    """The order of index n in the maximal order of Q(sqrt(d)), checked when it is built."""

    __slots__ = ()

    def __new__(cls, d: int, n: int) -> OrderSpec:
        make_field(d)  # raises make_field's ValueError for a d that defines no field
        if n < 1:
            raise ValueError(f"order index must be >= 1, got {n}")
        return super().__new__(cls, d, n)

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> OrderSpec:  # so that _replace checks too
        return cls(*iterable)


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


def classify_order(spec: OrderSpec) -> ClassificationRecord:
    """The record of one cell: classify_field's window of the one n."""
    F = make_field(spec.d)
    U = fundamental_unit(F)
    h = class_number(F, U).h
    return ClassificationRecord._make(next(classify_field(F, U, h, spec.n, spec.n)))


def classify_field(
    F: FieldContext, U: FundamentalUnit, h: int, n_min: int, n_max: int
) -> Iterator[tuple]:
    """Yield F's rows (d, n, D, m, L, ip, la, assoc, h, h_order, hfd), a record's columns, with
    unit U and class number h, for n_min <= n <= n_max in n order; n_min < 1 raises ValueError.

    With n = q * r from arith.window_plan, q = p^a for the least prime p of n (q = r = 1 at
    n = 1), a cell is m = lcm(m[r], m(q)), L = L[r] * L(q), ip = ip[r] and p inert: r's from
    its cell, or from factorize(r) below the window, q's from a table kept for this call;
    both start at n = 1's cell (1, 1, True).  A cofactor is at most n // 2, or n = 1 itself,
    so only the cells up to max(n_max // 2, 1) are kept, in array('q') columns for m and L
    and a bytearray for ip: about 9 bytes per n of the window.
    """
    if n_min < 1:
        raise ValueError(f"n_min must be >= 1, got {n_min}")
    d, D = F.d, F.D
    table: dict[int, tuple[int, int, bool]] = {1: (1, 1, True)}

    def local(q: int) -> tuple[int, int, bool]:  # (m(q), L(q), p inert) on a table miss
        return table.setdefault(q, local_data(F, U, *factorize(q)[0]))

    powers, cofactors = window_plan(n_min, n_max) if n_min <= n_max else ((), ())
    half = max(n_max // 2, 1)  # the last n read back as a cofactor
    kept = max(0, half - n_min + 1)  # cells kept, by n - n_min
    ms, Ls, ips = array("q", [1]) * kept, array("q", [1]) * kept, bytearray([1]) * kept
    for n, q, r in zip(range(n_min, n_max + 1), powers, cofactors):
        m, L, ip = table.get(q) or local(q)
        if r >= n_min:
            m, L, ip = lcm(ms[r - n_min], m), Ls[r - n_min] * L, ip and ips[r - n_min] == 1
        elif r > 1:
            for p, a in factorize(r):
                mr, Lr, ipr = table.get(p**a) or local(p**a)
                m, L, ip = lcm(m, mr), L * Lr, ip and ipr
        if L % m:
            raise InternalConsistencyError(f"m={m} does not divide L={L} for d={d}, n={n}")
        if n <= half:
            j = n - n_min
            ms[j], Ls[j], ips[j] = m, L, ip
        la = m == L
        assoc = ip and la
        # half-factorial: n is 1, p, or 2p with p odd (r is then odd)
        hfd = assoc and h <= 2 and (n == 1 or is_prime(n) or (q == 2 and is_prime(r)))
        yield d, n, D, m, L, ip, la, assoc, h, h * (L // m), hfd
