"""Brute-force verification of the order properties inside finite quotients.

The unit oracles enumerate O_K/(M), ideal preservation is lattice algebra in Z^2, and both
are deliberately independent of the closed-form criteria.  An element a + b*omega of O_K/(M),
0 <= a, b < M, is coded as the int a*M + b.  It is a unit iff its norm
N(a, b) = a^2 + B*ab + C*b^2 is prime to M; the coefficients come from qi_norm
itself, C = N(0, 1) and B = N(1, 1) - 1 - C, and _units tests N mod M against a
mask of the residues prime to M one row of b at a time.  The unit count of
O_K/(M) is the product over p^a || M of the counts so enumerated mod p^a (the
Chinese remainder theorem).  One walk over the powers of u mod n, where a rational
multiplier z scales both coordinates, builds the unit multiples (Z/n)^* * <u>, as many
as the units iff locally associated.  Only then does a pass over the kept powers build
the others, z*u^k with gcd(z, n) > 1, for associativity to count both against n^2;
elsewhere both fail: no such z*u^k is a unit, its norm z^2*N(u)^k not prime to n.  Ideal
preservation tests, for each prime P over a p | n, that R = Z + n*O_K meets P outside Q:
Q = P^2 for every P, the inert P = (p) included, and Q the other prime over a split p.  An
ideal holding p^2*O_K is the Hermite form (d1, c, d2) of the lattice spanned by its
generators, their omega-multiples and p^2*Z^2, whose members are x*(d1, 0) + y*(c, d2):
(A, B) lies in it iff d2 | B and d1 | A - (B/d2)*c.  R meets P in the span of (d1, 0) and
k*(c, d2), k = n/gcd(n, d2), so a test is two membership checks in Q, with no scan.  Only
the pairs over two rational primes go untested: p lies in R and P, not in Q.  Every
modulus, p^2 included, is capped at DEFAULT_ENUM_BOUND = 200, since the unit scans are
quadratic.  oracle_verdicts(F, U, n) gives each oracle's verdict at one cell, none at n = 1
(O_K, no quotient) or past the cap; the public oracles refuse n < 2.  What they read depends
on a ring, not on the field, so every entry point reads and fills three tables kept for the
life of the process, each entry made on its first touch; (q, half, t mod q) fixes
O_K/(q) = Z[x]/(q, x^2 - half*x - t).  _UNIT_COUNTS: |U(O_K/(q))| under that key, at most
2q for each of the 60 prime powers q <= 200, 10,170 in all.  _IDEAL_OUTCOMES: (every P^2
test over p holds, every split-pair test holds) under (p, half, t mod p^2), the ring alone:
n enters a test only as k*(c, d2), which lies in Q once p | k, as p*P does; P = (p, omega - r)
has d2 = 1, so k = n, and the inert (p) has (p, 0) outside (p^2) at every n; at most 2p^2
for each p <= 13 (p^2 within the cap), 754 in all.  _SPLITS: the walk's rows, z*x mod n over
the z prime to n and over the others for each residue x, as bytes: n^2 bytes for each
n <= 200, 2,686,699 bytes in all.  bytes holds residues below 256 only; the cap keeps them
there, and bytes() raises should one reach 256.  The walk over u stays per call.  Only ring
arithmetic and factorization are shared with the fast path (qi_mul, qi_norm, factorize, the
roots of omega's minimal polynomial), never m, L or the field character (D/p).
"""

from __future__ import annotations

from math import gcd

from .arith import InternalConsistencyError, factorize
from .pell import FundamentalUnit
from .quadfield import QI, FieldContext, omega_roots, qi_mul, qi_norm

DEFAULT_ENUM_BOUND = 200

_UNIT_COUNTS: dict[tuple, int] = {}
_IDEAL_OUTCOMES: dict[tuple, tuple[bool, bool]] = {}
_SPLITS: dict[int, tuple[list[bytes], list[bytes]]] = {}


class OracleBoundError(ValueError):
    """An oracle's modulus exceeds the cap, DEFAULT_ENUM_BOUND: n, where the unit oracles
    enumerate O_K/(n), or p^2 for a p | n, where ideal preservation works modulo p^2."""


def _check_modulus(M: int) -> None:
    if M < 2:
        raise ValueError(f"oracle modulus must be >= 2, got {M}")
    if M > DEFAULT_ENUM_BOUND:
        raise OracleBoundError(f"modulus {M} exceeds enumeration bound {DEFAULT_ENUM_BOUND}")


def _units(F: FieldContext, M: int) -> list[int]:
    """The units of O_K/(M), each a + b*omega with 0 <= a, b < M coded as the int a*M + b,
    found one row of b at a time by the norm form N(a, b) = a^2 + B*ab + C*b^2."""
    _check_modulus(M)
    C = qi_norm(F, (0, 1))
    B = qi_norm(F, (1, 1)) - 1 - C
    unit = bytes(gcd(k, M) == 1 for k in range(M))
    rows = [(b, B * b, C * b * b) for b in range(M)]
    return [a * M + b for b, Bb, Cb in rows for a in range(M) if unit[(a * (a + Bb) + Cb) % M]]


def quotient_unit_count(F: FieldContext, M: int) -> int:
    """|U(O_K/(M))| as the product over q = p^a || M of |U(O_K/(q))|, each enumerated on its
    first touch and kept in _UNIT_COUNTS under (q, half, t mod q), which fix O_K/(q): O_K/(M)
    is the product of the O_K/(q) by the Chinese remainder theorem."""
    _check_modulus(M)
    total = 1
    for p, a in factorize(M):
        key = (p**a, F.half, F.t % p**a)
        if key not in _UNIT_COUNTS:
            _UNIT_COUNTS[key] = len(_units(F, p**a))
        total *= _UNIT_COUNTS[key]
    return total


def _unit_cosets(F: FieldContext, U: FundamentalUnit, n: int) -> tuple[bool, bool]:
    """(locally associated, associated) by one walk over u^k mod n, k >= 0 up to the first
    rational u^k = c: c^2 = N(u)^k = +-1 makes c a unit, so z*c runs over the z of the k = 0
    step.  Each step keeps u^k = (a, b) and adds z*u^k over the z prime to n, zipped from
    the rows z*x mod n of _SPLITS[n] at x = a and b; the others wait until every unit is hit."""
    _check_modulus(n)
    if n not in _SPLITS:
        zs = [[z for z in range(n) if (gcd(z, n) == 1) == unit] for unit in (True, False)]
        _SPLITS[n] = tuple([bytes([z * x % n for z in row]) for x in range(n)] for row in zs)
    units = _SPLITS[n][0]
    u = (U.u[0] % n, U.u[1] % n)
    unit_multiples: set[tuple[int, int]] = set()
    powers = []
    a, b = 1 % n, 0
    for _ in range(n * n + 1):
        powers.append((a, b))
        unit_multiples.update(zip(units[a], units[b]))
        a, b = qi_mul(F, (a, b), u, n)
        if b == 0:
            la = len(unit_multiples) == quotient_unit_count(F, n)
            return la, la and _fills_quotient(n, powers, len(unit_multiples))
    raise InternalConsistencyError(f"powers of the unit mod {n} never re-entered Z")


def _fills_quotient(n: int, powers: list[tuple[int, int]], covered: int) -> bool:
    """True iff covered unit multiples and the z*u^k, gcd(z, n) > 1, over the powers u^k, zipped
    from the other rows of _SPLITS[n], make n^2: z*u^k is a unit iff z is, so none counts twice."""
    others, multiples = _SPLITS[n][1], set()
    for a, b in powers:
        multiples.update(zip(others[a], others[b]))
    return covered + len(multiples) == n * n


def brute_locally_associated(F: FieldContext, U: FundamentalUnit, n: int) -> bool:
    """True iff every unit of O_K/(n) is a rational unit times a power of u: (Z/n)^* <u> lies
    in U(O_K/(n)), so equal sizes mean equal sets."""
    return _unit_cosets(F, U, n)[0]


def brute_associated(F: FieldContext, U: FundamentalUnit, n: int) -> bool:
    """True iff every element of O_K/(n) is a rational integer times a power of u."""
    return _unit_cosets(F, U, n)[1]


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


def _test_holds(F: FieldContext, n: int, P: list[QI], Q: list[QI], M: int) -> bool:
    """R = Z + n*O_K meets the ideal generated by P outside the one generated by Q, both
    containing M*O_K.  R is the (a, b) with n | b, so R meets P = x*(d1, 0) + y*(c, d2) in the
    span of (d1, 0) and k*(c, d2), k = n / gcd(n, d2): the test holds iff one of the two lies
    outside Q, each read by Q's Hermite form."""
    d1, c, d2 = _ideal_lattice(F, P, M)
    e1, f, e2 = _ideal_lattice(F, Q, M)
    k = n // gcd(n, d2)
    return any(B % e2 or (A - B // e2 * f) % e1 for A, B in ((d1, 0), (k * c, k * d2)))


def brute_ideal_preserving(F: FieldContext, n: int) -> bool:
    """Lattice-membership test of the ideal-theoretic criterion.

    R is ideal-preserving iff for every prime ideal P over a divisor of n,
    R meets P outside P^2, and for every ordered pair of distinct primes
    P != P', R meets P outside P'.  _test_holds decides each, mod p^2: P^2
    for every P over p, the inert P = (p) included, and the pair over a split
    p.  Only the pairs over two rational primes go untested: p lies in R and
    P, not in P'.  Each p | n in increasing order meets the bound before
    omega_roots (a scan of range(p)) runs on it, and gives False if a P^2 test
    fails; the split pairs are read after every p.  Both outcomes of p are
    decided once, for any n, in _IDEAL_OUTCOMES[p, half, t mod p^2].
    """
    if n < 2:
        raise ValueError(f"order index must be >= 2, got {n}")
    pair_outcomes = []
    for p, _ in factorize(n):
        _check_modulus(M := p * p)
        key = (p, F.half, F.t % M)
        if key not in _IDEAL_OUTCOMES:
            primes = [[(p, 0), (-r, 1)] for r in omega_roots(F, p)] or [[(p, 0)]]
            _IDEAL_OUTCOMES[key] = (
                all(_test_holds(F, n, P, [qi_mul(F, g, h) for g in P for h in P], M)
                    for P in primes),
                all(_test_holds(F, n, P, Q, M) for P in primes for Q in primes if Q != P))
        squares_hold, pairs_hold = _IDEAL_OUTCOMES[key]
        if not squares_hold:
            return False
        pair_outcomes.append(pairs_hold)
    return all(pair_outcomes)


def oracle_verdicts(F: FieldContext, U: FundamentalUnit, n: int) -> dict[str, bool | None]:
    """Each oracle's flag at index n of the field, by name in a fixed order; None at n = 1 or
    past its bound.  One walk over the powers of u mod n gives both unit verdicts."""
    la, assoc = _unit_cosets(F, U, n) if 1 < n <= DEFAULT_ENUM_BOUND else (None, None)
    try:
        ip = brute_ideal_preserving(F, n) if n > 1 else None
    except OracleBoundError:
        ip = None
    return {"locally_associated": la, "ideal_preserving": ip, "associated": assoc}
