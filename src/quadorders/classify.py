"""Classification of the order R = Z + n*O_K inside K = Q(sqrt(d)).

The finite criteria used here:
  ideal-preserving   every prime dividing n is inert in O_K;
  locally associated m(n) = L(n, d);
  associated         both of the above;
  |Cl(R)|            h * L / m  (m divides L);
  half-factorial     h <= 2, and for n > 1 additionally R associated and
                     n a prime or twice an odd prime.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import InternalConsistencyError, factorize, is_prime, is_squarefree
from .classgroup import class_number
from .lfun import l_value
from .pell import fundamental_unit
from .quadfield import field_char, make_field
from .unitindex import min_power


@dataclass(frozen=True, slots=True)
class OrderSpec:
    """The order of index n in the maximal order of Q(sqrt(d))."""

    d: int
    n: int

    def __post_init__(self) -> None:
        if self.d in (0, 1) or not is_squarefree(self.d):
            raise ValueError(f"d={self.d} does not define a quadratic field")
        if self.n < 1:
            raise ValueError(f"order index must be >= 1, got {self.n}")


@dataclass(frozen=True, slots=True)
class ClassificationRecord:
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
    F = make_field(spec.d)
    U = fundamental_unit(F)
    h = class_number(F, U).h
    m = min_power(F, U, spec.n)
    L = l_value(spec.n, spec.d)
    if L % m:
        raise InternalConsistencyError(
            f"m={m} does not divide L={L} for d={spec.d}, n={spec.n}"
        )
    ip = is_ideal_preserving(spec)
    la = m == L
    assoc = ip and la
    n = spec.n
    prime_shape = is_prime(n) or (n % 4 == 2 and is_prime(n // 2))  # p or 2p, p odd
    hfd = h <= 2 and (n == 1 or (assoc and prime_shape))
    return ClassificationRecord(
        d=spec.d,
        n=n,
        D=F.D,
        m=m,
        L=L,
        ideal_preserving=ip,
        locally_associated=la,
        associated=assoc,
        h_maximal=h,
        h_order=h * (L // m),
        hfd=hfd,
    )
