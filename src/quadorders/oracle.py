"""Brute-force verification of the order properties inside finite quotients.

Everything here works by direct enumeration of O_K/(M) and is deliberately
independent of the closed-form criteria.  An element a + b*omega of O_K/(M),
0 <= a, b < M, is coded as the int a*M + b.  It is a unit iff its norm
N(a, b) = a^2 + B*ab + C*b^2 is prime to M; the coefficients come from qi_norm
itself, C = N(0, 1) and B = N(1, 1) - 1 - C, and _units tests N mod M against a
mask of the residues prime to M one row of b at a time.  The unit count of
O_K/(M) is the product over p^a || M of the counts so enumerated mod p^a (the
Chinese remainder theorem).  One walk over the powers of u mod n, where a
rational multiplier z scales both coordinates, builds the unit multiples
(Z/n)^* * <u> and the others; local associativity compares the first size with
the unit count, associativity the sum of both with n^2.  Ideal preservation is one
witness loop over (P, excluded ideal) pairs: x in the image of R, in P, outside
the excluded ideal.  Only the tests over one split or ramified p can fail, so
only they are scanned, mod p^2: P^2 for each P = (p, omega - r), then the other
prime P' over a split p.  The rest hold by x = p, in R and in P, outside
P^2 = (p^2) when P = (p) is inert and outside every prime over another rational
prime.  An excluded ideal's image in O_K/(M) is read through the Hermite form
(d1, c, d2) of the lattice spanned by its generators, their omega-multiples and
M*Z^2: (A, B) lies in it iff d2 | B and d1 | A - (B/d2)*c.  Moduli are capped
(default 200) since the scans are quadratic.  field_oracle(F, U) gives one
field's verdicts(n) and holds their range: no value at n = 1 (O_K, no quotient)
or past the cap.  For the life of the field it keeps what does not depend on n,
each enumerated on its first touch: the unit count of each O_K/(p^a), the roots
of omega mod each p, and each ideal test's outcome under (P, Q, gcd(n, p^2)),
all that the test reads of n; so the cap bounds it.  The walk over u stays per
n.  oracle_verdicts is its window of one n; the brute_* functions keep nothing
between calls.  Only ring arithmetic and factorization are shared with the fast
path (qi_mul, qi_norm, factorize, the roots of omega's minimal polynomial),
never m, L or the field character (D/p).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import suppress
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


def _units(F: FieldContext, M: int, bound: int) -> list[int]:
    """The units of O_K/(M), each a + b*omega with 0 <= a, b < M coded as the int a*M + b,
    found one row of b at a time by the norm form N(a, b) = a^2 + B*ab + C*b^2."""
    _check_modulus(M, bound)
    C = qi_norm(F, (0, 1))
    B = qi_norm(F, (1, 1)) - 1 - C
    unit = bytes(gcd(k, M) == 1 for k in range(M))
    rows = [(b, B * b, C * b * b) for b in range(M)]
    return [a * M + b for b, Bb, Cb in rows for a in range(M) if unit[(a * (a + Bb) + Cb) % M]]


def _unit_count(F: FieldContext, M: int, bound: int, counts: dict[int, int]) -> int:
    """|U(O_K/(M))| as the product over p^a || M of |U(O_K/(p^a))|, each enumerated on its
    first touch and kept in counts under p^a: O_K/(M) is the product of the O_K/(p^a) by the
    Chinese remainder theorem."""
    _check_modulus(M, bound)
    total = 1
    for p, a in factorize(M):
        if p**a not in counts:
            counts[p**a] = len(_units(F, p**a, bound))
        total *= counts[p**a]
    return total


def quotient_unit_count(F: FieldContext, M: int, bound: int = DEFAULT_ENUM_BOUND) -> int:
    """|U(O_K/(M))|, each O_K/(p^a) with p^a || M enumerated afresh."""
    return _unit_count(F, M, bound, {})


def _unit_cosets(F: FieldContext, U: FundamentalUnit, n: int, bound: int) -> tuple[int, int]:
    """(|(Z/n)^* <u>|, |(Z/n) <u>|) by one walk over u^k mod n, k >= 0 up to the first rational
    u^k = c: c^2 = N(u)^k = +-1 makes c a unit, so z*c runs over the z of the k = 0 step.
    Each z*u^k, coded as _units codes it, goes to the unit multiples for z prime to n and to
    the others for the rest; a unit z keeps a unit and a non-unit z a non-unit, so the two
    sets are disjoint.  A rational z scales both coordinates: z*(a, b) = (z*a, z*b)."""
    _check_modulus(n, bound)
    u = (U.u[0] % n, U.u[1] % n)
    rational_units = [z for z in range(n) if gcd(z, n) == 1]
    rational_others = [z for z in range(n) if gcd(z, n) != 1]
    unit_multiples: set[int] = set()
    other_multiples: set[int] = set()
    a, b = 1 % n, 0
    for _ in range(n * n + 1):
        unit_multiples.update([z * a % n * n + z * b % n for z in rational_units])
        other_multiples.update([z * a % n * n + z * b % n for z in rational_others])
        a, b = qi_mul(F, (a, b), u, n)
        if b == 0:
            return len(unit_multiples), len(unit_multiples) + len(other_multiples)
    raise InternalConsistencyError(f"powers of the unit mod {n} never re-entered Z")


def brute_locally_associated(
    F: FieldContext, U: FundamentalUnit, n: int, bound: int = DEFAULT_ENUM_BOUND
) -> bool:
    """True iff every unit of O_K/(n) is a rational unit times a power of u: (Z/n)^* <u> lies
    in U(O_K/(n)), so equal sizes mean equal sets."""
    return _unit_cosets(F, U, n, bound)[0] == quotient_unit_count(F, n, bound)


def brute_associated(
    F: FieldContext, U: FundamentalUnit, n: int, bound: int = DEFAULT_ENUM_BOUND
) -> bool:
    """True iff every element of O_K/(n) is a rational integer times a power of u."""
    return _unit_cosets(F, U, n, bound)[1] == n * n


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


def _ideal_pairs(
    F: FieldContext, n: int, bound: int, roots: dict[int, list[int]]
) -> Iterator[tuple[tuple, tuple]]:
    """(P, P) for each prime ideal P = (p, omega - r) over a root r of omega mod p | n, then
    (P, P') for the two primes over each split p.  Each p^2 meets the bound before
    omega_roots, which scans all of range(p), runs on p (once, kept in roots under p): a
    large p fails at once, after the smaller p's tests.  A split p passes its P^2 tests, so
    its pairs wait for every p^2."""
    pairs = []
    for p, _ in factorize(n):
        _check_modulus(p * p, bound)
        if p not in roots:
            roots[p] = omega_roots(F, p)
        primes = [(p, r) for r in roots[p]]
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


def _ideal_preserving(
    F: FieldContext, n: int, bound: int, roots: dict[int, list[int]], outcomes: dict[tuple, bool]
) -> bool:
    """The tests of _ideal_pairs in order, False at the first that finds no witness.  Each
    test's outcome is scanned on its first touch and kept in outcomes under (P, Q, gcd(n, p^2)):
    the Hermite form reads P, Q and p^2, and the witness scan reads n only through its step."""
    for P, Q in _ideal_pairs(F, n, bound, roots):
        M = P[0] * P[0]
        key = (P, Q, gcd(n, M))
        if key not in outcomes:
            gens = [(Q[0], 0), (-Q[1], 1)]
            if Q == P:  # P^2 is generated by the products of P's generators
                gens = [qi_mul(F, g, h) for g in gens for h in gens]
            outcomes[key] = _witness_exists(n, M, P, _ideal_lattice(F, gens, M))
        if not outcomes[key]:
            return False
    return True


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
    return _ideal_preserving(F, n, bound, {}, {})


def field_oracle(F: FieldContext, U: FundamentalUnit) -> Callable[[int], dict[str, bool | None]]:
    """verdicts(n): each oracle's flag at index n of the field, by name in a fixed order; None
    at n = 1 or past its bound.  For the life of the field it keeps the unit count of each
    O_K/(p^a), the roots of omega mod each p and each ideal test's outcome; one walk over the
    powers of u mod n gives both unit verdicts of each n."""
    counts: dict[int, int] = {}
    roots: dict[int, list[int]] = {}
    outcomes: dict[tuple, bool] = {}

    def verdicts(n: int) -> dict[str, bool | None]:
        la: bool | None = None
        ip: bool | None = None
        assoc: bool | None = None
        if 1 < n <= DEFAULT_ENUM_BOUND:
            unit_multiples, multiples = _unit_cosets(F, U, n, DEFAULT_ENUM_BOUND)
            la = unit_multiples == _unit_count(F, n, DEFAULT_ENUM_BOUND, counts)
            assoc = multiples == n * n
        if n > 1:
            with suppress(OracleBoundError):
                ip = _ideal_preserving(F, n, DEFAULT_ENUM_BOUND, roots, outcomes)
        return {"locally_associated": la, "ideal_preserving": ip, "associated": assoc}

    return verdicts


def oracle_verdicts(F: FieldContext, U: FundamentalUnit, n: int) -> dict[str, bool | None]:
    """field_oracle's window of one n."""
    return field_oracle(F, U)(n)
