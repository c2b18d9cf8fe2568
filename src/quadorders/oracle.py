"""Brute-force verification of the order properties inside finite quotients.

Everything here works by direct enumeration of O_K/(M) and is deliberately
independent of the closed-form criteria.  An element a + b*omega of O_K/(M),
0 <= a, b < M, is coded as the int a*M + b.  It is a unit iff its norm
N(a, b) = a^2 + B*ab + C*b^2 is prime to M; the coefficients come from qi_norm
itself, C = N(0, 1) and B = N(1, 1) - 1 - C, and _units tests N mod M against a
mask of the residues prime to M one row of b at a time, once for the unit count
and for local associativity.  Local associativity and associativity are decided
by generating (Z/M)^* * <u>, resp. (Z/M) * <u>, one power of u at a time; a
rational multiplier z scales both coordinates.  Ideal preservation is one
witness loop over (P, excluded ideal) pairs: x in the image of R, in P, outside
the excluded ideal.  Only the tests over one split or ramified p can fail, so
only they are scanned, mod p^2: P^2 for each P = (p, omega - r), then the other
prime P' over a split p.  The rest hold by x = p, in R and in P, outside
P^2 = (p^2) when P = (p) is inert and outside every prime over another rational
prime.  An excluded ideal's image in O_K/(M) is read through the Hermite form
(d1, c, d2) of the lattice spanned by its generators, their omega-multiples and
M*Z^2: (A, B) lies in it iff d2 | B and d1 | A - (B/d2)*c.  Moduli are capped
(default 200) since the scans are quadratic.  oracle_verdicts holds their
range: no value at n = 1 (O_K, no quotient) or past the cap.  Only ring
arithmetic is shared with the fast path (qi_mul, qi_norm, the roots of omega's
minimal polynomial), never m, L or the field character (D/p).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from math import gcd

from .arith import InternalConsistencyError, factorize
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


def _units(F: FieldContext, M: int, bound: int) -> set[int]:
    """The units of O_K/(M), each a + b*omega with 0 <= a, b < M coded as the int a*M + b,
    found one row of b at a time by the norm form N(a, b) = a^2 + B*ab + C*b^2."""
    _check_modulus(M, bound)
    C = qi_norm(F, (0, 1))
    B = qi_norm(F, (1, 1)) - 1 - C
    unit = bytes(gcd(k, M) == 1 for k in range(M))
    units: set[int] = set()
    for b in range(M):
        Bb, Cb = B * b, C * b * b
        units.update([a * M + b for a in range(M) if unit[(a * (a + Bb) + Cb) % M]])
    return units


def quotient_unit_count(F: FieldContext, M: int, bound: int = DEFAULT_ENUM_BOUND) -> int:
    """|U(O_K/(M))| by enumeration."""
    return len(_units(F, M, bound))


def _unit_cosets(
    F: FieldContext, U: FundamentalUnit, n: int, multipliers: Iterable[int]
) -> set[int]:
    """Union of the sets multipliers * u^k mod n, coded as _units codes them, for k >= 0 up to
    the first rational u^k = c: c^2 = N(u)^k = +-1 makes c a unit, so multipliers * c, for
    multipliers all of Z/(n) or its units, is the k = 0 set already covered.  A rational z
    scales both coordinates: z*(a, b) = (z*a, z*b)."""
    u = (U.u[0] % n, U.u[1] % n)
    covered: set[int] = set()
    a, b = 1 % n, 0
    for _ in range(n * n + 1):
        covered.update([z * a % n * n + z * b % n for z in multipliers])
        a, b = qi_mul(F, (a, b), u, n)
        if b == 0:
            return covered
    raise InternalConsistencyError(f"powers of the unit mod {n} never re-entered Z")


def brute_locally_associated(
    F: FieldContext, U: FundamentalUnit, n: int, bound: int = DEFAULT_ENUM_BOUND
) -> bool:
    """True iff every unit of O_K/(n) is a rational unit times a power of u."""
    units = _units(F, n, bound)
    return _unit_cosets(F, U, n, [z for z in range(n) if gcd(z, n) == 1]) == units


def brute_associated(
    F: FieldContext, U: FundamentalUnit, n: int, bound: int = DEFAULT_ENUM_BOUND
) -> bool:
    """True iff every element of O_K/(n) is a rational integer times a power of u."""
    _check_modulus(n, bound)
    return len(_unit_cosets(F, U, n, range(n))) == n * n


def _ideal_lattice(F: FieldContext, gens: list[QI], M: int) -> tuple[int, int, int]:
    """Hermite form (d1, c, d2) of the lattice spanned by each g, g*omega and M*Z^2, the
    preimage in O_K of the image in O_K/(M) of the ideal generated by gens: its members are
    x*(d1, 0) + y*(c, d2).  Each vector enters by Euclid on the second coordinates."""
    d1, c, d2 = M, 0, M
    for g in gens:
        for a, b in (g, qi_mul(F, g, (0, 1))):
            while b:
                q = d2 // b
                (c, d2), (a, b) = (a, b), (c - q * a, d2 - q * b)
            d1 = gcd(d1, a)
    if d2 < 0:
        c, d2 = -c, -d2
    return d1, c % d1, d2


def _ideal_pairs(F: FieldContext, n: int, bound: int) -> Iterator[tuple[tuple, tuple]]:
    """(P, P) for each prime ideal P = (p, omega - r) over a root r of omega mod p | n, then
    (P, P') for the two primes over each split p.  Each p^2 meets the bound before
    omega_roots, which scans all of range(p), runs on p: a large p fails at once, after the
    smaller p's tests.  A split p passes its P^2 tests, so its pairs wait for every p^2."""
    pairs = []
    for p, _ in factorize(n):
        _check_modulus(p * p, bound)
        primes = [(p, r) for r in omega_roots(F, p)]
        yield from ((P, P) for P in primes)
        pairs += [(P, Q) for P in primes for Q in primes if Q != P]
    yield from pairs


def _witness_exists(n: int, M: int, P: tuple[int, int], excluded: tuple[int, int, int]) -> bool:
    """Scan the image of R = Z + n*O_K in O_K/(M) for x in P = (p, omega - r) outside the
    excluded ideal, given by the Hermite form of its preimage (the ideal contains M).  Only
    members of P are walked: A = -B*r (mod p)."""
    p, r = P
    d1, c, d2 = excluded
    for B in range(0, M, gcd(n, M)):
        for A in range(-B * r % p, M, p):
            if B % d2 or (A - B // d2 * c) % d1:
                return True
    return False


def brute_ideal_preserving(F: FieldContext, n: int, bound: int = DEFAULT_ENUM_BOUND) -> bool:
    """Witness search for the ideal-theoretic criterion.

    R is ideal-preserving iff for every prime ideal P over a divisor of n,
    R meets P outside P^2, and for every ordered pair of distinct primes
    P != P', R meets P outside P'.  Only the tests over one split or ramified
    p are scanned, mod p^2: x = p lies in R and P and outside (p^2) = P^2 for
    an inert P = (p), and outside every prime over another rational prime.
    """
    if n < 1:
        raise ValueError(f"order index must be >= 1, got {n}")
    for P, Q in _ideal_pairs(F, n, bound):
        M = P[0] * P[0]
        gens = [(Q[0], 0), (-Q[1], 1)]
        if Q == P:  # P^2 is generated by the products of P's generators
            gens = [qi_mul(F, g, h) for g in gens for h in gens]
        if not _witness_exists(n, M, P, _ideal_lattice(F, gens, M)):
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
