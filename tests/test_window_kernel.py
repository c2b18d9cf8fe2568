"""The scan's per-field kernel against the per-cell reference.

classify_field composes each cell from its cofactor over arith.window_plan;
test_classify.reference_record goes through factorize, min_power and l_value.  Each
case here scans a window and compares every row it checks with the reference's row.
The row templates of atlas are compared with record_to_csv_row and the JSON
encoding of record_to_json_obj, byte for byte.
"""

import io
import random
import tracemalloc
from array import array

import pytest

from quadorders import (
    ScanConfig,
    class_number,
    fundamental_unit,
    make_field,
    record_to_csv_row,
    record_to_json_obj,
    scan,
)
from quadorders.arith import WINDOW_WIDTH_MAX, check_window, factorize, window_plan
from quadorders.atlas import _BOOL_FIELDS, _write_task
from quadorders.classify import classify_field
from quadorders.cli import _to_json
from test_classify import reference_record


def scanned_rows(tmp_path, **window):
    out = tmp_path / "scan.csv"
    summary = scan(ScanConfig(out=str(out), **window))
    lines = out.read_text().splitlines()[1:]
    assert summary.records == len(lines)
    return {tuple(map(int, line.split(",")[:2])): line for line in lines}


def reference_row(d, n):
    return record_to_csv_row(reference_record(d, n))


def test_plan_is_least_prime_power_and_cofactor():
    # n = 1 has no prime: its cell is the identity the kernel composes from, q = r = 1
    # a window of one n is read from factorize(n), past any sieve's reach too, and past
    # the int64 columns of a sieved window: q = 2^70 is an int of its own
    for lo, hi in [(1, 3000), (2, 3000), (997, 1400), (10**6, 10**6 + 50), (65_500, 65_600),
                   (2, 2), (10**6, 10**6), (2**40, 2**40), (10**9 + 7, 10**9 + 7), (2**70, 2**70)]:
        powers, cofactors = window_plan(lo, hi)
        assert len(powers) == len(cofactors) == hi - lo + 1
        for n, q, r in zip(range(lo, hi + 1), powers, cofactors):
            p, a = factorize(n)[0] if n > 1 else (1, 1)
            assert (q, r) == (p**a, n // p**a), n
    assert window_plan(1, 1) == ([1], [1])
    assert window_plan(2, 1) == (array("q"), array("q"))


def test_one_n_plan_does_not_sieve():
    # a sieve to isqrt(2**40) peaks at megabytes; factorize(2**40) needs a few tuples
    window_plan.cache_clear()
    tracemalloc.start()
    try:
        window_plan(2**40, 2**40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_wide_plan_past_factorize_is_refused_before_allocating():
    # a sieve to isqrt(2**60 + 1) would be a 1 GB bytearray; 10^14 is where factorize stops
    window_plan.cache_clear()
    tracemalloc.start()
    try:
        for lo, hi in [(2**60, 2**60 + 1), (2, 10**14), (10**14 - 1, 10**14)]:
            with pytest.raises(ValueError, match=rf"n window \[{lo}, {hi}\] is too large"):
                window_plan(lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert window_plan(10**14, 10**14) == ([2**14], [5**14])


def test_too_wide_window_is_refused_before_allocating():
    # a window one n wider than WINDOW_WIDTH_MAX would take about 0.9 GB: it is refused by
    # its bounds alone, anywhere below 10^14, and the widest allowed is only checked here
    window_plan.cache_clear()
    tracemalloc.start()
    try:
        for lo in (1, 2, 10**13):
            hi = lo + WINDOW_WIDTH_MAX
            with pytest.raises(ValueError, match=rf"n window \[{lo}, {hi}\] is too large to scan "
                                                 rf"at once: it holds {WINDOW_WIDTH_MAX + 1:,} n"):
                window_plan(lo, hi)
            check_window(lo, hi - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert window_plan.cache_info().currsize == 0


def test_past_the_factorize_cache(tmp_path):
    # the factorize cache holds 65,536 entries; the plan has no such edge
    rows = scanned_rows(tmp_path, d_min=7, d_max=7, n_max=70_000)
    assert len(rows) == 69_999
    rng = random.Random(11)
    prime_powers = [n for n in range(65_537, 70_001) if len(factorize(n)) == 1]
    assert {257**2, 263**2, 41**3} <= set(prime_powers) and len(prime_powers) == 396
    for n in rng.sample(range(2, 70_001), 400) + prime_powers:
        assert rows[7, n] == reference_row(7, n), n


@pytest.mark.parametrize("d", [2, -7, 94, 991])
def test_window_far_from_one(tmp_path, d):
    # every cofactor of a composite n here is below the window, so each is folded
    rows = scanned_rows(tmp_path, d_min=d, d_max=d, n_min=10**6, n_max=10**6 + 50)
    assert len(rows) == 51
    for n in range(10**6, 10**6 + 51):
        assert rows[d, n] == reference_row(d, n), n


@pytest.mark.parametrize("n_min", [1, 3, 997])
def test_windows_with_cofactors_below(tmp_path, n_min):
    rows = scanned_rows(tmp_path, d_min=-7, d_max=7, n_min=n_min, n_max=1400)
    ds = {d for d, _ in rows}
    assert ds == {-7, -6, -5, -3, -2, -1, 2, 3, 5, 6, 7}
    for (d, n), line in rows.items():
        assert line == reference_row(d, n), (d, n)


def test_cells_equal_the_reference_across_windows():
    # a cell does not depend on where its window starts
    for d in (-3, 10, 79):
        F = make_field(d)
        U = fundamental_unit(F)
        field = F, U, class_number(F, U).h
        whole = list(classify_field(*field, 1, 400))
        for n_min in (2, 5, 128, 243, 400):
            assert list(classify_field(*field, n_min, 400)) == whole[n_min - 1 :], (d, n_min)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_row_templates_render_as_the_record_helpers(fmt):
    # negative d and D, d = -1 and -3 (extra torsion), h = 3 at d = 79 and -23, n = 1
    render = record_to_csv_row if fmt == "csv" else lambda rec: _to_json(record_to_json_obj(rec))
    seen = {name: set() for name in _BOOL_FIELDS}
    for d in (-1, -3, -23, -5, 2, 5, 79, 94):
        # a task of one field, 80 rows, with its hfd count
        buf = io.BytesIO()
        hfd = _write_task(([d], 1, 80, fmt, False), buf)
        lines = buf.getvalue().decode().split("\n")
        assert lines[-1] == "" and len(lines) - 1 == 80
        recs = [reference_record(d, n) for n in range(1, 81)]
        assert lines[:-1] == [render(rec) for rec in recs]
        assert hfd == sum(rec.hfd for rec in recs[1:])
        for rec in recs:
            for name in _BOOL_FIELDS:
                seen[name].add(getattr(rec, name))
    assert all(values == {False, True} for values in seen.values()), seen

