"""Brute-force verification of the order properties inside finite quotients.

Everything here works by direct enumeration of residue pairs in O_K/(M) and is
deliberately independent of the closed-form criteria.  An element is a unit of
O_K/(M) iff its norm is prime to M; _units enumerates them once for the unit
count and for local associativity.  Local associativity and associativity are
decided by generating (Z/M)^* * <u>, resp. (Z/M) * <u>, element by element.
Ideal preservation is one witness loop over (P, excluded ideal) pairs, P^2 then
each other prime P': x in the image of R, in P, outside the excluded ideal,
whose image in O_K/(M) is the additive closure of its generators.  Moduli are
capped (default 200) since the scans are quadratic.  oracle_verdicts holds their
range: no value at n = 1 (O_K, no quotient) or past the cap.  Only ring arithmetic
is shared with the fast path (qi_mul, qi_norm, the roots of omega's minimal
polynomial), never m, L or the field character (D/p).
"""

from __future__ import annotations

from collections.abc import Iterator
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


def _units(F: FieldContext, M: int, bound: int) -> set[QI]:
    """The units of O_K/(M) as coordinate pairs (a, b) with 0 <= a, b < M."""
    _check_modulus(M, bound)
    return {(a, b) for a in range(M) for b in range(M) if gcd(qi_norm(F, (a, b)), M) == 1}


def quotient_unit_count(F: FieldContext, M: int, bound: int = DEFAULT_ENUM_BOUND) -> int:
    """|U(O_K/(M))| by enumeration."""
    return len(_units(F, M, bound))


def _unit_cosets(F: FieldContext, U: FundamentalUnit, n: int, multipliers: list[QI]) -> set[QI]:
    """Union of the sets multipliers * u^k mod n for k >= 0, up to the first rational u^k = c:
    c^2 = N(u)^k = +-1 makes c a unit, so multipliers * c, for multipliers all of Z/(n) or
    its units, is the k = 0 set already covered."""
    u = (U.u[0] % n, U.u[1] % n)
    covered: set[QI] = set()
    w = (1 % n, 0)
    for _ in range(n * n + 1):
        covered.update(qi_mul(F, z, w, n) for z in multipliers)
        w = qi_mul(F, w, u, n)
        if w[1] == 0:
            return covered
    raise RuntimeError(f"powers of the unit mod {n} never re-entered Z")


def brute_locally_associated(
    F: FieldContext, U: FundamentalUnit, n: int, bound: int = DEFAULT_ENUM_BOUND
) -> bool:
    """True iff every unit of O_K/(n) is a rational unit times a power of u."""
    units = _units(F, n, bound)
    return _unit_cosets(F, U, n, [(z, 0) for z in range(n) if gcd(z, n) == 1]) == units


def brute_associated(
    F: FieldContext, U: FundamentalUnit, n: int, bound: int = DEFAULT_ENUM_BOUND
) -> bool:
    """True iff every element of O_K/(n) is a rational integer times a power of u."""
    _check_modulus(n, bound)
    return len(_unit_cosets(F, U, n, [(z, 0) for z in range(n)])) == n * n


def _ideal_image_mod(F: FieldContext, gens: list[QI], M: int) -> set[QI]:
    """Image in O_K/(M) of the O_K-ideal generated by gens: the additive group spanned by
    each g and g*omega, grown by one vector v at a time as the cosets span + k*v."""
    span = {(0, 0)}
    for g in gens:
        for a, b in ((g[0] % M, g[1] % M), qi_mul(F, g, (0, 1), M)):
            grown, x = set(span), (a, b)
            while x not in span:
                grown.update([((s + x[0]) % M, (t + x[1]) % M) for s, t in span])
                x = ((x[0] + a) % M, (x[1] + b) % M)
            span = grown
    return span


def _ideal_pairs(F: FieldContext, n: int, bound: int) -> Iterator[tuple[tuple, tuple]]:
    """(P, P) for each prime ideal P = (p, root) over n (root None: p inert), then (P, Q) for
    each ordered pair of distinct ones.  Each p^2 meets the bound before omega_roots, which
    scans all of range(p), runs on p: a large p fails at once, after the smaller p's tests."""
    primes: list[tuple[int, int | None]] = []
    for p, _ in factorize(n):
        _check_modulus(p * p, bound)
        for P in [(p, r) for r in omega_roots(F, p) or (None,)]:
            primes.append(P)
            yield P, P
    yield from ((P, Q) for P in primes for Q in primes if Q != P)


def _prime_gens(p: int, r: int | None) -> list[QI]:
    """Generators of P = (p) when inert (r None), else of P = (p, omega - r)."""
    return [(p, 0)] if r is None else [(p, 0), (-r, 1)]


def _in_prime(p: int, r: int | None, A: int, B: int) -> bool:
    # P = (p) when inert, else P = (p, omega - r); membership is a mod-p condition.
    if r is None:
        return A % p == 0 and B % p == 0
    return (A + B * r) % p == 0


def _witness_exists(n: int, M: int, P: tuple[int, int | None], excluded: set[QI]) -> bool:
    """Scan the image of R = Z + n*O_K in O_K/(M) for x in P outside the excluded ideal,
    given by its image in O_K/(M) (the ideal contains M)."""
    p, r = P
    step = gcd(n, M)
    for A in range(M):
        for B in range(0, M, step):
            if _in_prime(p, r, A, B) and (A, B) not in excluded:
                return True
    return False


def brute_ideal_preserving(F: FieldContext, n: int, bound: int = DEFAULT_ENUM_BOUND) -> bool:
    """Witness search for the ideal-theoretic criterion.

    R is ideal-preserving iff for every prime ideal P over a divisor of n,
    R meets P outside P^2, and for every ordered pair of distinct primes
    P != P', R meets P outside P'.  Scans run mod p^2 for the P/P^2 test and
    mod p*p' for the pair test (p^2 when both lie over p).
    """
    if n < 1:
        raise ValueError(f"order index must be >= 1, got {n}")
    for P, Q in _ideal_pairs(F, n, bound):
        M = P[0] * Q[0]
        _check_modulus(M, bound)
        gens = _prime_gens(*Q)
        if Q == P:  # P^2 is generated by the products of P's generators
            gens = [qi_mul(F, g, h) for g in gens for h in gens]
        if not _witness_exists(n, M, P, _ideal_image_mod(F, gens, M)):
            return False
    return True


def oracle_verdicts(F: FieldContext, U: FundamentalUnit, n: int) -> dict[str, bool | None]:
    """Each oracle's flag at index n, by name in a fixed order; None at n = 1 or past its bound."""
    verdicts: dict[str, bool | None] = {}
    for name, oracle, args in (
        ("locally_associated", brute_locally_associated, (F, U, n)),
        ("ideal_preserving", brute_ideal_preserving, (F, n)),
        ("associated", brute_associated, (F, U, n)),
    ):
        try:
            verdicts[name] = oracle(*args) if n > 1 else None
        except OracleBoundError:
            verdicts[name] = None
    return verdicts
