import ast
import hashlib
import inspect
from collections import Counter
from contextlib import suppress
from math import gcd

import pytest

from quadorders import ScanConfig, ScanVerificationError, oracle, scan
from quadorders.arith import InternalConsistencyError, factorize, is_prime, is_squarefree
from quadorders.classify import OrderSpec, classify_order
from quadorders.oracle import (
    OracleBoundError,
    DEFAULT_ENUM_BOUND,
    _ideal_lattice,
    _units,
    brute_associated,
    brute_ideal_preserving,
    brute_locally_associated,
    oracle_verdicts,
    quotient_unit_count,
)
from quadorders.pell import FundamentalUnit, fundamental_unit
from quadorders.quadfield import field_char, make_field, omega_roots, qi_mul, qi_norm


# The reference oracles: the same enumerations spelled with pair tuples and sets, each
# norm by qi_norm, each multiple by qi_mul, each ideal image as its span set in O_K/(M)
# and each prime's membership as its own mod-p test.  oracle.py must decide as they do.


def _reference_check(M):
    if M > DEFAULT_ENUM_BOUND:
        raise OracleBoundError(f"modulus {M} exceeds enumeration bound {DEFAULT_ENUM_BOUND}")


def reference_units(F, M):
    _reference_check(M)
    return {(a, b) for a in range(M) for b in range(M) if gcd(qi_norm(F, (a, b)), M) == 1}


def reference_unit_cosets(F, U, n, multipliers):
    u = (U.u[0] % n, U.u[1] % n)
    covered = set()
    w = (1 % n, 0)
    for _ in range(n * n + 1):
        covered.update(qi_mul(F, z, w, n) for z in multipliers)
        w = qi_mul(F, w, u, n)
        if w[1] == 0:
            return covered
    raise InternalConsistencyError(f"powers of the unit mod {n} never re-entered Z")


def reference_ideal_image_mod(F, gens, M):
    """The additive group of O_K/(M) spanned by each g and g*omega, grown by one vector
    v at a time as the cosets span + k*v."""
    span = {(0, 0)}
    for g in gens:
        for a, b in ((g[0] % M, g[1] % M), qi_mul(F, g, (0, 1), M)):
            grown, x = set(span), (a, b)
            while x not in span:
                grown.update([((s + x[0]) % M, (t + x[1]) % M) for s, t in span])
                x = ((x[0] + a) % M, (x[1] + b) % M)
            span = grown
    return span


def _reference_in_prime(p, r, A, B):
    if r is None:
        return A % p == 0 and B % p == 0
    return (A + B * r) % p == 0


def reference_ideal_preserving(F, n):
    primes = []
    for p, _ in factorize(n):
        _reference_check(p * p)
        for P in [(p, r) for r in omega_roots(F, p)] or [(p, None)]:
            primes.append(P)
            if not _reference_pair(F, n, P, P):
                return False
    pairs = [(P, Q) for P in primes for Q in primes if Q != P]
    return all(_reference_pair(F, n, P, Q) for P, Q in pairs)


def _reference_pair(F, n, P, Q):
    M = P[0] * Q[0]
    _reference_check(M)
    (p, r), (q, s) = P, Q
    gens = [(q, 0)] if s is None else [(q, 0), (-s, 1)]
    if Q == P:
        gens = [qi_mul(F, g, h) for g in gens for h in gens]
    excluded = reference_ideal_image_mod(F, gens, M)
    step = gcd(n, M)
    return any(
        _reference_in_prime(p, r, A, B) and (A, B) not in excluded
        for A in range(M)
        for B in range(0, M, step)
    )


def verdicts_by_name(la, ip, assoc):
    """Each run's verdict by name, in oracle_verdicts' order, None where it meets the bound."""
    verdicts = {}
    for name, run in (("locally_associated", la), ("ideal_preserving", ip), ("associated", assoc)):
        try:
            verdicts[name] = run()
        except OracleBoundError:
            verdicts[name] = None
    return verdicts


def reference_verdicts(F, U, n):
    """oracle_verdicts by the reference oracles, None wherever they meet the bound."""
    def la():
        units = reference_units(F, n)
        rational_units = [(z, 0) for z in range(n) if gcd(z, n) == 1]
        return reference_unit_cosets(F, U, n, rational_units) == units

    def assoc():
        _reference_check(n)
        return len(reference_unit_cosets(F, U, n, [(z, 0) for z in range(n)])) == n * n

    return verdicts_by_name(la, lambda: reference_ideal_preserving(F, n), assoc)


def test_oracle_verdicts_match_the_reference_oracles():
    # every cell of squarefree |d| <= 100, 2 <= n <= 60, each None included
    cells = 0
    for d in range(-100, 101):
        if d in (0, 1) or not is_squarefree(d):
            continue
        F = make_field(d)
        U = fundamental_unit(F)
        for n in range(2, 61):
            assert oracle_verdicts(F, U, n) == reference_verdicts(F, U, n), (d, n)
            cells += 1
    assert cells == 7139


def brute_verdicts(F, U, n):
    """oracle_verdicts by the public brute_* oracles, None wherever they meet the bound."""
    return verdicts_by_name(lambda: brute_locally_associated(F, U, n),
                            lambda: brute_ideal_preserving(F, n),
                            lambda: brute_associated(F, U, n))


def test_shared_tables_match_fresh_tables_per_cell(fresh_oracle_tables):
    # every cell of squarefree |d| <= 100, 2 <= n <= 60, each None included: the verdicts
    # read from tables shared across all fields, filled by oracle_verdicts in d order and
    # again in reverse d order, then by the brute_* oracles in d order, are those of fresh
    # tables per cell
    ds = [d for d in range(-100, 101) if d not in (0, 1) and is_squarefree(d)]
    fields = [(F, fundamental_unit(F)) for F in map(make_field, ds)]
    cold = {}
    for F, U in fields:
        for n in range(2, 61):
            fresh_oracle_tables()
            cold[F.d, n] = oracle_verdicts(F, U, n)
    assert len(cold) == 7139
    for order, verdicts in ((fields, oracle_verdicts), (fields[::-1], oracle_verdicts),
                            (fields, brute_verdicts)):
        fresh_oracle_tables()
        for F, U in order:
            for n in range(2, 61):
                assert verdicts(F, U, n) == cold[F.d, n], (verdicts.__name__, F.d, n)


def test_each_ring_is_enumerated_once_per_process(monkeypatch, fresh_oracle_tables):
    # over n = 2..200 of several fields, each O_K/(q) is enumerated, and each ideal test
    # scanned, once per ring, (q, half, t mod q), across the fields: d = 2 and d = -5 share
    # O_K/(7), as 2 = -5 (mod 7), so the second enumerates no O_K/(7).  A prime's ideal tests
    # are decided together, in one run of lattice tests under its outcome's key
    # (p, gcd(n, p^2), half, t mod p^2).  Every entry point reads the same tables: the public
    # oracles enumerate nothing on a ring that oracle_verdicts has enumerated, nor on a
    # second call.
    calls = []
    units, holds = oracle._units, oracle._test_holds

    def spy_units(F, M):
        calls.append(("units", M, F.half, F.t % M))
        return units(F, M)

    def spy_holds(F, n, P, Q, M):
        calls.append(("ideal", P[0][0], gcd(n, M), F.half, F.t % M, tuple(P), tuple(Q)))
        return holds(F, n, P, Q, M)

    monkeypatch.setattr(oracle, "_units", spy_units)
    monkeypatch.setattr(oracle, "_test_holds", spy_holds)
    prime_powers = {p**a for n in range(2, DEFAULT_ENUM_BOUND + 1) for p, a in factorize(n)}
    fields = [make_field(d) for d in (2, -5, 17, -3, 10)]
    per_field = {}
    for F in fields:
        U = fundamental_unit(F)
        start = len(calls)
        for n in range(2, DEFAULT_ENUM_BOUND + 1):
            oracle_verdicts(F, U, n)
        per_field[F.d] = calls[start:]
    assert len(calls) == len(set(calls))
    assert {c[1:] for c in calls if c[0] == "units"} == {
        (q, F.half, F.t % q) for F in fields for q in prime_powers}
    assert ("units", 7, 0, 2) in per_field[2]
    assert [c for c in per_field[-5] if c[:2] == ("units", 7)] == []
    outcome_keys = [c[1:5] for c in calls if c[0] == "ideal"]
    runs = [k for i, k in enumerate(outcome_keys) if i == 0 or outcome_keys[i - 1] != k]
    assert runs and len(runs) == len(set(runs)) and set(runs) <= set(oracle._IDEAL_OUTCOMES)
    calls.clear()
    for F in fields:
        U = fundamental_unit(F)
        for n in (6, 49, 60, 200):
            brute_verdicts(F, U, n)
            quotient_unit_count(F, n)
    assert calls == []
    fresh_oracle_tables()
    for F in fields:
        for _ in range(2):
            brute_verdicts(F, fundamental_unit(F), 6)
            quotient_unit_count(F, 6)
    assert calls and len(calls) == len(set(calls))


def test_oracle_tables_stay_within_their_stated_bounds():
    # n = 2..2B over fields of both signs, each cell through one entry point in turn: each
    # key's modulus is within the enumeration bound B, and each table within the bound that
    # oracle.py's docstring states, worked out here from the prime powers up to B, whichever
    # entry point fills it; the oracles keep no lru_cache
    B = DEFAULT_ENUM_BOUND
    entry_points = (
        oracle_verdicts,
        brute_locally_associated,
        brute_associated,
        lambda F, U, n: brute_ideal_preserving(F, n),
        lambda F, U, n: quotient_unit_count(F, n),
    )
    for i, d in enumerate((2, 3, 5, 17, 94, -1, -2, -3, -5, -7, -94)):
        F = make_field(d)
        U = fundamental_unit(F)
        for n in range(2, 2 * B + 1):
            with suppress(OracleBoundError):
                entry_points[(i + n) % len(entry_points)](F, U, n)
    prime_powers = [q for q in range(2, B + 1) if len(factorize(q)) == 1]
    ideal_primes = [p for p in range(2, B + 1) if is_prime(p) and p * p <= B]
    assert len(prime_powers) == 60 and ideal_primes == [2, 3, 5, 7, 11, 13]
    bounds = {
        # a key (q, half, t mod q) for each q, half in (0, 1) and t mod q
        "_UNIT_COUNTS": 2 * sum(prime_powers),
        # a key (p, gcd(n, p^2), half, t mod p^2) for 2 values of the gcd, each half and
        # t mod p^2
        "_IDEAL_OUTCOMES": 4 * sum(p * p for p in ideal_primes),
    }
    assert bounds["_IDEAL_OUTCOMES"] == 1508
    for name, bound in bounds.items():
        assert 0 < len(getattr(oracle, name)) <= bound, name
        assert f"{bound:,} in all" in oracle.__doc__, name
    assert max(q for q, _, _ in oracle._UNIT_COUNTS) <= B
    assert max(p * p for p, *_ in oracle._IDEAL_OUTCOMES) <= B
    # n rows of n bytes for each n, the z prime to n in one row and the others in the other
    split_bytes = {n: sum(map(len, units + others))
                   for n, (units, others) in oracle._SPLITS.items()}
    assert split_bytes and all(size == n * n for n, size in split_bytes.items())
    assert max(split_bytes) <= B
    bound = sum(n * n for n in range(2, B + 1))
    assert bound == 2686699 and sum(split_bytes.values()) <= bound
    assert f"{bound:,} bytes in all" in oracle.__doc__
    assert "lru_cache" not in inspect.getsource(oracle)


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


def test_bound_is_enforced(monkeypatch):
    # each refusal comes before the modulus is factorized
    def no_factorize(M):
        raise AssertionError(f"factorize ran on {M}")

    F = make_field(2)
    U = fundamental_unit(F)
    with monkeypatch.context() as m:
        m.setattr(oracle, "factorize", no_factorize)
        with pytest.raises(OracleBoundError):
            quotient_unit_count(F, 201)
        with pytest.raises(OracleBoundError):
            brute_locally_associated(F, U, 300)
        with pytest.raises(ValueError):
            quotient_unit_count(F, 1)


@pytest.mark.parametrize("n", [0, 1])
def test_public_oracles_refuse_an_index_below_2(n):
    # n = 1 is O_K itself, with no quotient to enumerate: every public oracle refuses it
    F = make_field(2)
    U = fundamental_unit(F)
    for run in (
        lambda: brute_locally_associated(F, U, n),
        lambda: brute_associated(F, U, n),
        lambda: brute_ideal_preserving(F, n),
        lambda: quotient_unit_count(F, n),
    ):
        with pytest.raises(ValueError, match=f"must be >= 2, got {n}$"):
            run()


@pytest.mark.parametrize("d", [2, 3, 5, 94, -1, -3, -5])
def test_unit_count_over_prime_powers_matches_enumeration(d):
    # the product over p^a || M of the unit counts mod p^a is the count of the whole of
    # O_K/(M), enumerated directly by the reference oracle
    F = make_field(d)
    for M in range(2, DEFAULT_ENUM_BOUND + 1):
        assert quotient_unit_count(F, M) == len(reference_units(F, M)), (d, M)


def verified_60(tmp_path):
    # the verified-60 window of test_golden.py, in-process
    return ScanConfig(d_min=-60, d_max=60, n_min=1, n_max=60, verify=True,
                      out=str(tmp_path / "v.csv"))


@pytest.mark.parametrize("prime_power", [2, 9, 49])
def test_unit_count_one_too_low_fails_the_verified_scan(tmp_path, monkeypatch, prime_power):
    # one unit missing mod a single p^a: at some n with p^a || n the two sizes differ where
    # the closed form says locally associated, or agree where it says not
    units = oracle._units

    def one_short(F, M):
        found = units(F, M)
        if M == prime_power:
            found.pop()
        return found

    monkeypatch.setattr(oracle, "_units", one_short)
    with pytest.raises(ScanVerificationError, match="^locally_associated mismatch"):
        scan(verified_60(tmp_path))


def test_walk_without_non_unit_multipliers_fails_the_verified_scan(tmp_path, monkeypatch):
    # the walk as if it never collected a z*u^k with z sharing a factor with n: (Z/n)<u>
    # shrinks to (Z/n)^*<u>, which misses 0, so no n is associated
    def units_only(n, powers, covered):
        return covered == n * n

    monkeypatch.setattr(oracle, "_fills_quotient", units_only)
    with pytest.raises(ScanVerificationError, match="^associated mismatch"):
        scan(verified_60(tmp_path))


def test_associated_taken_as_locally_associated_fails_the_verified_scan(tmp_path, monkeypatch):
    # the shortcut wired wrong: once every unit is covered, assoc follows la without the n^2
    # test over the non-unit multiples; by the closed forms 239 cells of the window are
    # locally associated and not associated, so the scan cannot pass
    window = [(d, n) for d in range(-60, 61) if d not in (0, 1) and is_squarefree(d)
              for n in range(2, 61)]
    records = [classify_order(OrderSpec(d, n)) for d, n in window]
    assert sum(r.locally_associated and not r.associated for r in records) == 239
    monkeypatch.setattr(oracle, "_fills_quotient", lambda n, powers, covered: True)
    with pytest.raises(ScanVerificationError, match="^associated mismatch"):
        scan(verified_60(tmp_path))


def test_non_unit_walk_runs_exactly_where_every_unit_is_covered(monkeypatch):
    # every cell of squarefree |d| <= 100, 2 <= n <= 60: the walk over the non-unit multiples
    # runs once where the reference oracles find the order locally associated and nowhere
    # else, and they never find it associated without it, the fact the skip rests on
    fills = oracle._fills_quotient
    runs = []

    def spy(n, powers, covered):
        runs.append(n)
        return fills(n, powers, covered)

    monkeypatch.setattr(oracle, "_fills_quotient", spy)
    cells = 0
    for d in range(-100, 101):
        if d in (0, 1) or not is_squarefree(d):
            continue
        F = make_field(d)
        U = fundamental_unit(F)
        for n in range(2, 61):
            runs.clear()
            reference = reference_verdicts(F, U, n)
            la, assoc = reference["locally_associated"], reference["associated"]
            assert la or not assoc, (d, n)
            oracle_verdicts(F, U, n)
            assert runs == ([n] if la else []), (d, n)
            cells += 1
    assert cells == 7139


def test_oracle_imports_nothing_of_the_closed_forms():
    # the oracles witness the closed forms, so oracle.py imports none of their code: no
    # splitting character, unit index, classifier or class number
    tree = ast.parse(inspect.getsource(oracle))
    forbidden = {"field_char", "local_data", "classify_field", "class_number"}
    closed_form_modules = {"unitindex", "classify", "classgroup"}
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.module or "", alias.name) for alias in node.names]
    assert ("quadfield", "qi_mul") in imported
    for module, name in imported:
        assert module.split(".")[-1] not in closed_form_modules, (module, name)
        assert name.split(".")[-1] not in forbidden | closed_form_modules, (module, name)


def test_wrong_stored_ideal_test_fails_the_verified_scan(tmp_path, monkeypatch):
    # each ideal test's outcome is stored on its first touch and read by every later n of
    # the field with the same (P, Q, gcd(n, p^2)); a wrong outcome stored then stops the scan
    holds = oracle._test_holds
    touched = set()

    def wrong_on_first_touch(F, n, P, Q, M):
        found = holds(F, n, P, Q, M)
        key = (gcd(n, M), M, tuple(P), tuple(Q))
        if key in touched:
            return found
        touched.add(key)
        return not found

    monkeypatch.setattr(oracle, "_test_holds", wrong_on_first_touch)
    with pytest.raises(ScanVerificationError, match="^ideal_preserving mismatch"):
        scan(verified_60(tmp_path))


def test_quotient_ring_unit_criterion():
    # norm coprime to M is exactly invertibility, for every element of O_K/(M), each
    # decoded from the int a*M + b that _units holds it as
    for d in (2, 5, -3, -5):
        F = make_field(d)
        for M in (2, 3, 4, 6):
            elements = [(a, b) for a in range(M) for b in range(M)]
            units = {divmod(x, M) for x in _units(F, M)}
            one = (1 % M, 0)
            for x in elements:
                invertible = any(qi_mul(F, x, y, M) == one for y in elements)
                assert (x in units) == invertible == (gcd(qi_norm(F, x), M) == 1), (d, M, x)


def test_unit_walk_that_never_turns_rational_is_an_internal_error():
    # N(1 + 2*sqrt(2)) = -7: u is no unit mod 7, so its powers never re-enter Z
    F = make_field(2)
    U = FundamentalUnit(u=(1, 2), norm_sign=-1, torsion_order=2)
    assert qi_norm(F, U.u) == -7
    with pytest.raises(InternalConsistencyError, match="never re-entered Z"):
        brute_locally_associated(F, U, 7)
    with pytest.raises(InternalConsistencyError, match="never re-entered Z"):
        brute_associated(F, U, 7)


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


def _excluded_ideals(F):
    """(M, gens) for each P^2 over p and each prime Q over q modulo p*q, p, q in 2, 3, 5:
    the ideals that brute_ideal_preserving reads through their lattices."""
    for p in (2, 3, 5):
        # one prime ideal (p, omega - r) per root; P^2 = (p^2) when p is inert
        roots = omega_roots(F, p)
        for r in roots:
            yield p * p, [(p * p, 0), (-p * r, p), qi_mul(F, (-r, 1), (-r, 1))]
        if not roots:
            yield p * p, [(p * p, 0)]
        for q in (2, 3, 5):
            for s in omega_roots(F, q) or (None,):
                yield p * q, [(q, 0)] if s is None else [(q, 0), (-s, 1)]


def test_prime_square_image_matches_exact_lattice():
    # membership in the Hermite form of each excluded ideal's lattice agrees with exact
    # membership in the Z-lattice spanned by its generators, their omega-multiples and
    # M*Z^2, and with the mod-M span set of the reference oracles, on a small-height
    # window; the form is canonical, with 0 <= c < d1 and d1, d2 positive divisors of M
    for d in (2, -5, 17, -3):
        F = make_field(d)
        for M, gens in _excluded_ideals(F):
            d1, c, d2 = _ideal_lattice(F, gens, M)
            assert M % d1 == 0 and M % d2 == 0 and 0 <= c < d1 and d2 > 0, (d, M, gens)
            span = reference_ideal_image_mod(F, gens, M)
            vectors = []
            for g in gens:
                vectors.append(g)
                vectors.append(qi_mul(F, g, (0, 1)))
            # the lattice of the ideal plus M O_K, matching the quotient image
            vectors += [(M, 0), (0, M)]
            basis_a, basis_b = hnf_lattice(vectors)
            for a in range(-2 * M, 2 * M + 1):
                for b in range(-2 * M, 2 * M + 1):
                    exact = lattice_contains(basis_a, basis_b, (a, b))
                    hermite = b % d2 == 0 and (a - b // d2 * c) % d1 == 0
                    assert hermite == exact == ((a % M, b % M) in span), (d, M, gens, a, b)


def test_witness_walk_stays_inside_the_prime():
    # with R = O_K (n = 1), each prime P over p, (p, omega - r) or the inert (p), holds an
    # element outside P^2 but none outside P itself: the lattice test reads members of P only
    for d in (2, -5, 17, -3, 5, -1):
        F = make_field(d)
        for p in (2, 3, 5, 7):
            for P in [[(p, 0), (-r, 1)] for r in omega_roots(F, p)] or [[(p, 0)]]:
                square = [qi_mul(F, g, h) for g in P for h in P]
                M = p * p
                assert oracle._test_holds(F, 1, P, square, M)
                assert not oracle._test_holds(F, 1, P, P, M)


def test_unscanned_ideal_tests_always_hold():
    # brute_ideal_preserving tests no pair over two rational primes: by the reference oracle
    # each holds (x = p is a witness) on every cell of squarefree |d| <= 30, 2 <= n <= 60,
    # for every prime ideal over each p | n with p^2 in the bound
    tests = 0
    for d in range(-30, 31):
        if d in (0, 1) or not is_squarefree(d):
            continue
        F = make_field(d)
        for n in range(2, 61):
            primes = [(p, r) for p, _ in factorize(n) if p * p <= DEFAULT_ENUM_BOUND
                      for r in omega_roots(F, p) or (None,)]
            for P in primes:
                for Q in primes:
                    if Q[0] != P[0]:
                        assert _reference_pair(F, n, P, Q), (d, n, P, Q)
                        tests += 1
    assert tests == 4104


def test_ideal_pairs_stay_over_one_split_or_ramified_prime(monkeypatch):
    # each key runs the P^2 test of every prime P over p, the inert P = (p) included, and the
    # pair test only over a split p, each test once, under its prime outcome's key; each
    # stored outcome is (every P^2 test holds, every split-pair test holds) by the reference
    # oracle.  Q is named by its Hermite form, which the key fixes whatever field filled it
    decided = []
    holds = oracle._test_holds

    def spy(F, n, P, Q, M):
        key = (P[0][0], gcd(n, M), F.half, F.t % M)
        decided.append((key, tuple(P), _ideal_lattice(F, Q, M)))
        return holds(F, n, P, Q, M)

    monkeypatch.setattr(oracle, "_test_holds", spy)
    checked = set()
    for d in (2, -5, 17, -7, -3, 5, -1):
        F = make_field(d)
        for n in range(2, 200):
            with suppress(OracleBoundError):
                brute_ideal_preserving(F, n)
        for key, outcome in oracle._IDEAL_OUTCOMES.items():
            p, step = key[:2]
            if key not in {(p, g, F.half, F.t % (p * p)) for g in (p, p * p)}:
                continue
            checked.add(key)
            roots = omega_roots(F, p)
            primes = [((p, 0), (-r, 1)) for r in roots] or [((p, 0),)]
            M = p * p
            squares = [(P, _ideal_lattice(F, [qi_mul(F, g, h) for g in P for h in P], M))
                       for P in primes]
            pairs = {(P, _ideal_lattice(F, Q, M)) for P in primes for Q in primes if Q != P}
            tests = {(P, Q) for key_, P, Q in decided if key_ == key}
            # all() stops at the first failing P^2 test, so only the first one always runs
            assert squares[0] in tests and tests <= set(squares) | pairs, (d, key)
            assert not pairs or field_char(d, p) == 1, (d, key)
            # the reference oracle reads n only through gcd(n, p^2)
            refs = [(p, r) for r in roots] or [(p, None)]
            assert outcome == (all(_reference_pair(F, step, P, P) for P in refs),
                               all(_reference_pair(F, step, P, Q) for P in refs for Q in refs
                                   if Q != P)), (d, key)
    # every stored key is (p, gcd(n, p^2), half, t mod p^2) for some field and n
    assert checked == set(oracle._IDEAL_OUTCOMES)
    assert len(decided) == len(set(decided))


def test_lattice_test_matches_the_reference_test_by_test():
    # _test_holds decides each P^2 test, the inert P = (p) included, and each pair over one
    # split p as the reference scan does, on squarefree |d| <= 30 at every p <= 13 and
    # n in (p, p^2), both classes of gcd(n, p^2); the outcomes are counted by class
    outcomes = Counter()
    for d in range(-30, 31):
        if d in (0, 1) or not is_squarefree(d):
            continue
        F = make_field(d)
        for p in (2, 3, 5, 7, 11, 13):
            M = p * p
            primes = ({(p, r): [(p, 0), (-r, 1)] for r in omega_roots(F, p)}
                      or {(p, None): [(p, 0)]})
            for n in (p, M):
                for P, gens in primes.items():
                    for Q, excluded in primes.items():
                        if Q == P:
                            excluded = [qi_mul(F, g, h) for g in gens for h in gens]
                        got = oracle._test_holds(F, n, gens, excluded, M)
                        assert got == _reference_pair(F, n, P, Q), (d, n, P, Q)
                        outcomes[n == M, got] += 1
    assert outcomes == {(False, False): 218, (False, True): 244,
                        (True, False): 218, (True, True): 244}


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
