"""Brute-force verification of the order properties inside finite quotients.

Everything here works by direct enumeration of residue pairs in O_K/(M) and is
deliberately independent of the closed-form criteria: local associativity and
associativity are decided by generating the unit subgroup (Z/M)^* * <u> element
by element, ideal preservation by scanning for witnesses x in R with x in P
but not in P' (or P^2).  An element is a unit of O_K/(M) iff its norm is prime
to M.  Moduli are capped (default 200) since the scans are quadratic.  Only
ring arithmetic is shared with the fast path (qi_mul, qi_norm, the roots of
omega's minimal polynomial), never m, L or the field character (D/p).
"""

from __future__ import annotations

from math import gcd

from .arith import factorize
from .pell import FundamentalUnit
from .quadfield import QI, FieldContext, omega_roots, qi_mul, qi_norm

DEFAULT_ENUM_BOUND = 200


class OracleBoundError(ValueError):
    """The requested enumeration modulus exceeds the configured cap."""


def _check_modulus(M: int, bound: int) -> None:
    if M < 2:
        raise ValueError(f"oracle modulus must be >= 2, got {M}")
    if M > bound:
        raise OracleBoundError(f"modulus {M} exceeds enumeration bound {bound}")


class QuotientRing:
    """O_K/(M) as explicit coordinate pairs (a, b) with 0 <= a, b < M."""

    def __init__(self, F: FieldContext, M: int, bound: int = DEFAULT_ENUM_BOUND):
        _check_modulus(M, bound)
        self.F = F
        self.M = M
        self.elements = [(a, b) for a in range(M) for b in range(M)]

    def mul(self, x: QI, y: QI) -> QI:
        return qi_mul(self.F, x, y, self.M)

    def is_unit(self, x: QI) -> bool:
        return gcd(qi_norm(self.F, x), self.M) == 1

    def units(self) -> set[tuple[int, int]]:
        return {x for x in self.elements if self.is_unit(x)}


def quotient_unit_count(F: FieldContext, M: int, bound: int = DEFAULT_ENUM_BOUND) -> int:
    """|U(O_K/(M))| by enumeration."""
    return len(QuotientRing(F, M, bound).units())


def _unit_cosets(
    Q: QuotientRing, U: FundamentalUnit, multipliers: list[tuple[int, int]]
) -> set[tuple[int, int]]:
    """Union of the sets multipliers * u^k for k >= 0, closed when u^k turns rational."""
    n = Q.M
    u = (U.u[0] % n, U.u[1] % n)
    covered: set[tuple[int, int]] = set()
    w = (1 % n, 0)
    for _ in range(n * n + 1):
        for z in multipliers:
            covered.add(Q.mul(z, w))
        w = Q.mul(w, u)
        if w[1] == 0:
            for z in multipliers:
                covered.add(Q.mul(z, w))
            return covered
    raise RuntimeError(f"powers of the unit mod {n} never re-entered Z")


def brute_locally_associated(
    F: FieldContext, U: FundamentalUnit, n: int, bound: int = DEFAULT_ENUM_BOUND
) -> bool:
    """True iff every unit of O_K/(n) is a rational unit times a power of u."""
    Q = QuotientRing(F, n, bound)
    rational_units = [(z, 0) for z in range(n) if gcd(z, n) == 1]
    return _unit_cosets(Q, U, rational_units) == Q.units()


def brute_associated(
    F: FieldContext, U: FundamentalUnit, n: int, bound: int = DEFAULT_ENUM_BOUND
) -> bool:
    """True iff every element of O_K/(n) is a rational integer times a power of u."""
    Q = QuotientRing(F, n, bound)
    everything = [(z, 0) for z in range(n)]
    return len(_unit_cosets(Q, U, everything)) == n * n


def _ideal_image_mod(F: FieldContext, gens: list[QI], M: int) -> set[QI]:
    """Image in O_K/(M) of the O_K-ideal generated by gens, as an additive closure."""
    vecs = []
    for g in gens:
        vecs.append((g[0] % M, g[1] % M))
        vecs.append(qi_mul(F, g, (0, 1), M))
    span = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x = frontier.pop()
        for v in vecs:
            y = ((x[0] + v[0]) % M, (x[1] + v[1]) % M)
            if y not in span:
                span.add(y)
                frontier.append(y)
    return span


def _prime_ideals_above(F: FieldContext, n: int) -> list[tuple[int, int | None]]:
    """(p, root) for each prime ideal over each p | n; root None marks the inert case."""
    out: list[tuple[int, int | None]] = []
    for p, _ in factorize(n):
        out.extend((p, r) for r in omega_roots(F, p) or (None,))
    return out


def _in_prime(p: int, r: int | None, A: int, B: int) -> bool:
    # P = (p) when inert, else P = (p, omega - r); membership is a mod-p condition.
    if r is None:
        return A % p == 0 and B % p == 0
    return (A + B * r) % p == 0


def _witness_exists(n: int, M: int, good, bad) -> bool:
    """Scan the image of R = Z + n*O_K in O_K/(M) for x with good(x) and not bad(x)."""
    step = gcd(n, M)
    for A in range(M):
        for B in range(0, M, step):
            if good(A, B) and not bad(A, B):
                return True
    return False


def brute_ideal_preserving(F: FieldContext, n: int, bound: int = DEFAULT_ENUM_BOUND) -> bool:
    """Witness search for the ideal-theoretic criterion.

    R is ideal-preserving iff for every prime ideal P over a divisor of n,
    R meets P outside P^2, and for every ordered pair of distinct primes
    P != P', R meets P outside P'.  Scans run mod p^2 for the P/P^2 and
    same-p tests and mod p*p' across different rational primes.
    """
    if n < 1:
        raise ValueError(f"order index must be >= 1, got {n}")
    primes = _prime_ideals_above(F, n)
    for p, r in primes:
        M = p * p
        _check_modulus(M, bound)
        if r is None:
            def in_p2(A: int, B: int, q: int = M) -> bool:
                return A % q == 0 and B % q == 0
        else:
            span = _ideal_image_mod(
                F,
                [(p * p, 0), (-p * r, p), qi_mul(F, (-r, 1), (-r, 1))],
                M,
            )

            def in_p2(A: int, B: int, s=frozenset(span), q: int = M) -> bool:
                return (A % q, B % q) in s

        if not _witness_exists(
            n, M, lambda A, B, p=p, r=r: _in_prime(p, r, A, B), in_p2
        ):
            return False
    for p1, r1 in primes:
        for p2, r2 in primes:
            if (p1, r1) == (p2, r2):
                continue
            M = p1 * p1 if p1 == p2 else p1 * p2
            _check_modulus(M, bound)
            if not _witness_exists(
                n,
                M,
                lambda A, B, p=p1, r=r1: _in_prime(p, r, A, B),
                lambda A, B, p=p2, r=r2: _in_prime(p, r, A, B),
            ):
                return False
    return True
