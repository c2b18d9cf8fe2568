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
(default 200) since the scans are quadratic.  oracle_verdicts(F, U, n) gives each
oracle's verdict at one cell, none at n = 1 (O_K, no quotient) or past the cap.  What
it enumerates depends on a ring, not on the field, so four tables keep it for the
life of the process, each entry made on its first touch; (q, half, t mod q) fixes
O_K/(q) = Z[x]/(q, x^2 - half*x - t).  _UNIT_COUNTS: |U(O_K/(q))| under that key, at
most 2q for each of the 60 prime powers q <= 200, 10,170 in all.  _ROOTS: the roots of
omega mod p under (p, half, t mod p), for p <= 13 (p^2 within the cap), 82 in all.
_IDEAL_OUTCOMES: each ideal test's outcome under (P, Q, gcd(n, p^2), half, t mod p^2),
all that its Hermite form and witness scan read, at most 8 for each p <= 13, half and
residue t mod p^2, 6,032 in all.  _SPLITS: the residues mod n prime to n and the
others, for each n <= 200, 199 in all.  The walk over u stays per cell; brute_* and
quotient_unit_count give each call fresh tables.  Only ring arithmetic and
factorization are shared with the fast path (qi_mul, qi_norm, factorize, the roots of
omega's minimal polynomial), never m, L or the field character (D/p).
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import suppress
from math import gcd

from .arith import InternalConsistencyError, factorize
from .pell import FundamentalUnit
from .quadfield import QI, FieldContext, omega_roots, qi_mul, qi_norm

DEFAULT_ENUM_BOUND = 200

_UNIT_COUNTS: dict[tuple, int] = {}
_ROOTS: dict[tuple, tuple[int, ...]] = {}
_IDEAL_OUTCOMES: dict[tuple, bool] = {}
_SPLITS: dict[int, tuple[list[int], list[int]]] = {}


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


def _unit_count(F: FieldContext, M: int, bound: int, counts: dict[tuple, int]) -> int:
    """|U(O_K/(M))| as the product over q = p^a || M of |U(O_K/(q))|, each enumerated on its
    first touch and kept in counts under (q, half, t mod q), which fix O_K/(q): O_K/(M) is the
    product of the O_K/(q) by the Chinese remainder theorem."""
    _check_modulus(M, bound)
    total = 1
    for p, a in factorize(M):
        key = (p**a, F.half, F.t % p**a)
        if key not in counts:
            counts[key] = len(_units(F, p**a, bound))
        total *= counts[key]
    return total


def quotient_unit_count(F: FieldContext, M: int, bound: int = DEFAULT_ENUM_BOUND) -> int:
    """|U(O_K/(M))|, each O_K/(p^a) with p^a || M enumerated afresh."""
    return _unit_count(F, M, bound, {})


def _unit_cosets(
    F: FieldContext, U: FundamentalUnit, n: int, bound: int, splits: dict[int, tuple]
) -> tuple[int, int]:
    """(|(Z/n)^* <u>|, |(Z/n) <u>|) by one walk over u^k mod n, k >= 0 up to the first rational
    u^k = c: c^2 = N(u)^k = +-1 makes c a unit, so z*c runs over the z of the k = 0 step.
    Each z*u^k, coded as _units codes it, goes to the unit multiples for z prime to n and to
    the others for the rest, split once and kept in splits under n; z*u^k is a unit iff z is,
    so the two sets are disjoint.  A rational z scales both coordinates: z*(a, b) = (z*a, z*b)."""
    _check_modulus(n, bound)
    if n not in splits:
        splits[n] = [z for z in range(n) if gcd(z, n) == 1], [z for z in range(n) if gcd(z, n) > 1]
    rational_units, rational_others = splits[n]
    u = (U.u[0] % n, U.u[1] % n)
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
    return _unit_cosets(F, U, n, bound, {})[0] == quotient_unit_count(F, n, bound)


def brute_associated(
    F: FieldContext, U: FundamentalUnit, n: int, bound: int = DEFAULT_ENUM_BOUND
) -> bool:
    """True iff every element of O_K/(n) is a rational integer times a power of u."""
    return _unit_cosets(F, U, n, bound, {})[1] == n * n


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
    F: FieldContext, n: int, bound: int, roots: dict[tuple, tuple[int, ...]]
) -> Iterator[tuple[tuple, tuple]]:
    """(P, P) for each prime ideal P = (p, omega - r) over a root r of omega mod p | n, then
    (P, P') for the two primes over each split p.  Each p^2 meets the bound before omega_roots,
    which scans all of range(p), runs on p (once, kept in roots under (p, half, t mod p)): a
    large p fails at once, after the smaller p's tests.  Split pairs wait for every p^2."""
    pairs = []
    for p, _ in factorize(n):
        _check_modulus(p * p, bound)
        key = (p, F.half, F.t % p)
        if key not in roots:
            roots[key] = omega_roots(F, p)
        primes = [(p, r) for r in roots[key]]
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
    F: FieldContext, n: int, bound: int, roots: dict[tuple, tuple], outcomes: dict[tuple, bool]
) -> bool:
    """The tests of _ideal_pairs in order, False at the first that finds no witness.  Each test's
    outcome is scanned on its first touch and kept in outcomes under (P, Q, gcd(n, p^2), half,
    t mod p^2): the witness scan reads n only through its step, the Hermite form omega mod p^2."""
    for P, Q in _ideal_pairs(F, n, bound, roots):
        M = P[0] * P[0]
        key = (P, Q, gcd(n, M), F.half, F.t % M)
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


def oracle_verdicts(F: FieldContext, U: FundamentalUnit, n: int) -> dict[str, bool | None]:
    """Each oracle's flag at index n of the field, by name in a fixed order; None at n = 1 or
    past its bound.  The enumerations are read from the process's tables, and one walk over
    the powers of u mod n gives both unit verdicts."""
    la: bool | None = None
    ip: bool | None = None
    assoc: bool | None = None
    if 1 < n <= DEFAULT_ENUM_BOUND:
        unit_multiples, multiples = _unit_cosets(F, U, n, DEFAULT_ENUM_BOUND, _SPLITS)
        la = unit_multiples == _unit_count(F, n, DEFAULT_ENUM_BOUND, _UNIT_COUNTS)
        assoc = multiples == n * n
    if n > 1:
        with suppress(OracleBoundError):
            ip = _ideal_preserving(F, n, DEFAULT_ENUM_BOUND, _ROOTS, _IDEAL_OUTCOMES)
    return {"locally_associated": la, "ideal_preserving": ip, "associated": assoc}
