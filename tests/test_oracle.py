import hashlib
from math import gcd

import pytest

from quadorders import oracle
from quadorders.arith import is_squarefree
from quadorders.classify import OrderSpec, classify_order
from quadorders.oracle import (
    OracleBoundError,
    DEFAULT_ENUM_BOUND,
    _ideal_image_mod,
    _units,
    brute_associated,
    brute_ideal_preserving,
    brute_locally_associated,
    quotient_unit_count,
)
from quadorders.pell import fundamental_unit
from quadorders.quadfield import field_char, make_field, omega_roots, qi_mul


def test_quotient_unit_count_fixtures():
    F = make_field(2)
    assert quotient_unit_count(F, 5) == 24
    assert quotient_unit_count(F, 2) == 2
    assert quotient_unit_count(F, 3) == 8


def test_quotient_unit_counts_match_local_formulas():
    # inert p^a: p^(2a-2) (p^2 - 1); split: (p^a - p^(a-1))^2; ramified: p^(2a-1) (p-1)
    prime_powers = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
                    (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1)]
    for d in range(-30, 31):
        if d in (0, 1) or not is_squarefree(d):
            continue
        F = make_field(d)
        for p, a in prime_powers:
            if p**a > 49:
                continue
            chi = field_char(d, p)
            if chi == -1:
                expected = p ** (2 * a - 2) * (p * p - 1)
            elif chi == 1:
                expected = (p**a - p ** (a - 1)) ** 2
            else:
                expected = p ** (2 * a - 1) * (p - 1)
            assert quotient_unit_count(F, p**a) == expected, (d, p, a)


def test_bound_is_enforced():
    F = make_field(2)
    with pytest.raises(OracleBoundError):
        quotient_unit_count(F, 201)
    with pytest.raises(OracleBoundError):
        brute_locally_associated(F, fundamental_unit(F), 300)
    quotient_unit_count(F, 300, bound=300)
    with pytest.raises(ValueError):
        quotient_unit_count(F, 1)


def test_quotient_ring_unit_criterion():
    # norm coprime to M is exactly invertibility: every unit has an inverse pair
    for d in (2, 5, -3, -5):
        F = make_field(d)
        for M in (2, 3, 4, 6):
            elements = [(a, b) for a in range(M) for b in range(M)]
            units = _units(F, M, DEFAULT_ENUM_BOUND)
            one = (1 % M, 0)
            for x in units:
                assert any(qi_mul(F, x, y, M) == one for y in units)
            for x in set(elements) - units:
                assert all(qi_mul(F, x, y, M) != one for y in elements)


def test_brute_flags_fixtures():
    F2 = make_field(2)
    U2 = fundamental_unit(F2)
    assert brute_locally_associated(F2, U2, 2)
    assert not brute_locally_associated(F2, U2, 5)
    assert not brute_ideal_preserving(F2, 2)
    assert brute_ideal_preserving(F2, 5)
    assert not brute_associated(F2, U2, 2)
    F5 = make_field(5)
    U5 = fundamental_unit(F5)
    assert brute_locally_associated(F5, U5, 2)
    assert brute_ideal_preserving(F5, 2)
    assert brute_associated(F5, U5, 2)
    F3n = make_field(-3)
    assert brute_associated(F3n, fundamental_unit(F3n), 2)


def test_split_prime_fails_ideal_preservation():
    # a split p | n forces R-cap-P inside the conjugate prime
    F = make_field(17)
    assert field_char(17, 2) == 1
    assert not brute_ideal_preserving(F, 2)
    F = make_field(-5)
    assert field_char(-5, 3) == 1
    assert not brute_ideal_preserving(F, 3)


def test_bound_is_checked_before_the_roots(monkeypatch):
    # omega_roots scans all of range(p): a prime past the bound must be refused before it
    # runs, and a prime below the bound that already fails keeps its False
    seen = []

    def roots(F, p):
        assert p * p <= DEFAULT_ENUM_BOUND, f"omega_roots ran on p = {p}"
        seen.append(p)
        return omega_roots(F, p)

    monkeypatch.setattr(oracle, "omega_roots", roots)
    F = make_field(2)
    with pytest.raises(OracleBoundError, match="1000000014000000049"):
        brute_ideal_preserving(F, 1000000007)
    assert seen == []
    with pytest.raises(OracleBoundError):
        brute_ideal_preserving(F, 5 * 1000000007)  # 5 is inert in Q(sqrt(2)): no False
    assert seen == [5]
    assert not brute_ideal_preserving(F, 2 * 1000000007)  # 2 ramified: P meets R inside P^2
    assert seen == [5, 2]


def test_ramified_prime_fails_ideal_preservation():
    F = make_field(2)
    assert field_char(2, 2) == 0
    assert not brute_ideal_preserving(F, 2)
    F = make_field(-3)
    assert not brute_ideal_preserving(F, 3)


def hnf_lattice(vectors):
    """Hermite form (two row vectors) of the Z-lattice spanned by the inputs."""
    rows = [list(v) for v in vectors if v != (0, 0)]
    # eliminate the second coordinate from all but one row by gcd steps
    while True:
        rows = [r for r in rows if r != [0, 0]]
        with_b = [r for r in rows if r[1] != 0]
        if len(with_b) <= 1:
            break
        with_b.sort(key=lambda r: abs(r[1]))
        pivot = with_b[0]
        changed = False
        for r in with_b[1:]:
            q = r[1] // pivot[1]
            r[0] -= q * pivot[0]
            r[1] -= q * pivot[1]
            changed = True
        if not changed:
            break
    basis_b = next((r for r in rows if r[1] != 0), None)
    a_vals = [abs(r[0]) for r in rows if r[1] == 0 and r[0] != 0]
    basis_a = [gcd_all(a_vals), 0] if a_vals else None
    return basis_a, basis_b


def gcd_all(values):
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


def lattice_contains(basis_a, basis_b, x):
    a, b = x
    if basis_b is None:
        if b != 0:
            return False
    else:
        if b % basis_b[1] != 0:
            return False
        k = b // basis_b[1]
        a -= k * basis_b[0]
        b = 0
    if a == 0:
        return True
    return basis_a is not None and basis_a[0] != 0 and a % basis_a[0] == 0


def test_prime_square_image_matches_exact_lattice():
    # the mod-p^2 additive closure of P^2 agrees with exact membership in the
    # Z-lattice spanned by its generators, on a small-height window
    for d in (2, -5, 17, -3):
        F = make_field(d)
        for p in (2, 3, 5):
            M = p * p
            # one prime ideal (p, omega - r) per root; P^2 = (p^2) when p is inert
            cases = [
                (r, [(M, 0), (-p * r, p), qi_mul(F, (-r, 1), (-r, 1))]) for r in omega_roots(F, p)
            ] or [(None, [(M, 0)])]
            for r, gens in cases:
                span = _ideal_image_mod(F, gens, M)
                vectors = []
                for g in gens:
                    vectors.append(g)
                    vectors.append(qi_mul(F, g, (0, 1)))
                # the lattice of the ideal plus p^2 O_K, matching the quotient image
                vectors += [(M, 0), (0, M)]
                basis_a, basis_b = hnf_lattice(vectors)
                for a in range(-2 * M, 2 * M + 1):
                    for b in range(-2 * M, 2 * M + 1):
                        exact = lattice_contains(basis_a, basis_b, (a, b))
                        assert ((a % M, b % M) in span) == exact, (d, p, r, a, b)


def test_matches_closed_forms_small_grid():
    for d in range(-10, 11):
        if d in (0, 1) or not is_squarefree(d):
            continue
        F = make_field(d)
        U = fundamental_unit(F)
        for n in range(2, 13):
            r = classify_order(OrderSpec(d, n))
            assert brute_locally_associated(F, U, n) == r.locally_associated
            assert brute_ideal_preserving(F, n) == r.ideal_preserving
            assert brute_associated(F, U, n) == r.associated


def _outcome(run) -> str:
    try:
        return "T" if run() else "F"
    except OracleBoundError:
        return "B"


def test_oracle_verdicts_pinned():
    # each oracle's outcome (True, False, or past its bound) on every cell of
    # squarefree |d| <= 30, 2 <= n <= 40, one line "d,n,<la><ip><assoc>" a cell;
    # the oracles witness the closed forms, so a rewrite of them must not move
    # one outcome, including where OracleBoundError is raised
    lines = []
    for d in range(-30, 31):
        if d in (0, 1) or not is_squarefree(d):
            continue
        F = make_field(d)
        U = fundamental_unit(F)
        for n in range(2, 41):
            verdicts = (
                _outcome(lambda: brute_locally_associated(F, U, n)),
                _outcome(lambda: brute_ideal_preserving(F, n)),
                _outcome(lambda: brute_associated(F, U, n)),
            )
            lines.append(f"{d},{n},{''.join(verdicts)}\n")
    assert len(lines) == 1443
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "2e1d44e60adfe5ab51290f4c8bbbab5309931c5d3e1b424969b6f593517e99d0"
