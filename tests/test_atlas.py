import json
import os
import random
import re
import time
import tracemalloc

import pytest

from quadorders import (
    OrderSpec,
    ScanConfig,
    ScanVerificationError,
    atlas,
    class_number,
    classify_order,
    oracle,
    record_to_csv_row,
    record_to_json_obj,
    report_hfd,
    scan,
)
from quadorders.arith import InternalConsistencyError, is_squarefree, window_plan
from quadorders.atlas import CSV_HEADER, Checkpoint, checkpoint_path, read_checkpoint
from quadorders.classify import classify_field
from quadorders.pell import fundamental_unit
from quadorders.quadfield import make_field
from test_classify import reference_record
from test_unitindex import reference_min_power


def small_cfg(out, **kw):
    base = dict(d_min=2, d_max=10, n_max=10, out=str(out))
    base.update(kw)
    return ScanConfig(**base)


def test_scan_small_grid(tmp_path):
    out = tmp_path / "grid.csv"
    summary = scan(small_cfg(out))
    # six squarefree d in [2, 10], nine n each
    assert summary.records == 54
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 55
    assert lines[1] == "2,2,8,2,2,0,1,0,1,1,0"
    # rows ordered by (d, n)
    keys = [tuple(map(int, ln.split(",")[:2])) for ln in lines[1:]]
    assert keys == sorted(keys)
    ck = read_checkpoint(checkpoint_path(str(out)))
    assert ck == Checkpoint(10, 54, summary.hfd)


def test_rows_match_classifier(tmp_path):
    # the scan classifies per field (classify_field); reference_record is the reference,
    # and each row's m is checked against the divisor search, an m algorithm of its own
    rng = random.Random(5)
    sample = rng.sample([d for d in range(-3000, 3000) if d not in (0, 1) and is_squarefree(d)], 6)
    assert min(sample) < 0 < max(sample)
    windows = [dict(d_min=2, d_max=10, n_max=10)]
    # 94 has a 7-digit unit; n up to 1,500 reaches 2^10, 3^6 and 37^2
    windows += [dict(d_min=d, d_max=d, n_min=1, n_max=1500) for d in [-1, -3, 2, 5, 94] + sample]
    for i, window in enumerate(windows):
        out = tmp_path / f"grid{i}.csv"
        summary = scan(ScanConfig(out=str(out), **window))
        lines = out.read_text().splitlines()[1:]
        assert summary.records == len(lines) > 0
        tables = {}
        for line in lines:
            d, n, _, m = map(int, line.split(",")[:4])
            assert line == record_to_csv_row(reference_record(d, n))
            F = make_field(d)
            assert m == reference_min_power(F, fundamental_unit(F), n, tables.setdefault(d, {}))
    # the kernel's row is the reference's record, column for column, d, D and h_maximal
    # included, also where the window starts at n, so the cofactor is folded from below it
    for d in [-1, -3, 2, 5, 94] + sample:
        F = make_field(d)
        U = fundamental_unit(F)
        h = class_number(F, U).h
        for n in range(1, 61):
            rec = reference_record(d, n)
            row = next(classify_field(F, U, h, n, n))
            assert type(row) is tuple and row == rec, (d, n)
            assert [type(x) for x in row] == [type(x) for x in rec]


def test_scan_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    scan(small_cfg(a))
    scan(small_cfg(b))
    assert a.read_bytes() == b.read_bytes()


def test_scan_worker_count_invariance(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    scan(small_cfg(a, jobs=1))
    scan(small_cfg(b, jobs=3))
    assert a.read_bytes() == b.read_bytes()


def test_scan_starts_no_more_workers_than_fields(tmp_path, monkeypatch):
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    # one field runs in-process at any --jobs: it forks no worker
    one, forked = tmp_path / "one.csv", tmp_path / "forked.csv"
    scan(small_cfg(one, d_min=5, d_max=5, jobs=1))
    scan(small_cfg(forked, d_min=5, d_max=5, jobs=4))
    assert forks == [] and forked.read_bytes() == one.read_bytes()
    # two fields at --jobs 8 fork two workers
    scan(small_cfg(forked, d_min=5, d_max=6, jobs=8))
    scan(small_cfg(one, d_min=5, d_max=6, jobs=1))
    assert len(forks) == 2 and forked.read_bytes() == one.read_bytes()


def wrap_verdicts(monkeypatch, change):
    """Pass each verdict dict through change where atlas.checked_columns, the one reader of
    oracle_verdicts for scan --verify and quadorders verify, reads it."""
    def changed(F, U, n):
        return change(oracle.oracle_verdicts(F, U, n))

    monkeypatch.setattr(atlas, "oracle_verdicts", changed)


def flip_associated(monkeypatch):
    """Make the verdicts that scan --verify and quadorders verify read disagree with every
    associated flag they check: each verdict other than None is negated."""
    def flipped(verdicts):
        if verdicts["associated"] is not None:
            verdicts["associated"] = not verdicts["associated"]
        return verdicts

    wrap_verdicts(monkeypatch, flipped)


def reverse_verdicts(monkeypatch):
    """The same verdicts that both verify paths read, named as before, in reverse order."""
    wrap_verdicts(monkeypatch, lambda verdicts: dict(reversed(verdicts.items())))


def assert_no_child_left():
    # every worker a scan forked has been waited for: the process has no child at all
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_worker_outlives_its_scan(tmp_path, monkeypatch):
    window = dict(d_min=2, d_max=30, n_max=10, jobs=2)
    full = tmp_path / "full.csv"
    scan(ScanConfig(out=str(full), **window))
    assert_no_child_left()
    # a worker's error, raised in the parent
    flip_associated(monkeypatch)
    with pytest.raises(ScanVerificationError):
        scan(ScanConfig(out=str(tmp_path / "v.csv"), verify=True, **window))
    assert_no_child_left()
    # an interrupt in the parent's write loop, with workers still running
    written = []

    def interrupt(path, ck):
        written.append(ck)
        raise KeyboardInterrupt

    monkeypatch.setattr(atlas, "_write_checkpoint", interrupt)
    with pytest.raises(KeyboardInterrupt):
        scan(ScanConfig(out=str(tmp_path / "k.csv"), **window))
    assert len(written) == 1
    assert_no_child_left()


def spy_checkpoints(monkeypatch):
    written = []
    real = atlas._write_checkpoint

    def spy(path, ck):
        written.append(ck)
        real(path, ck)

    monkeypatch.setattr(atlas, "_write_checkpoint", spy)
    return written


def test_small_n_fields_share_a_task(tmp_path, monkeypatch):
    # 121 fields of both signs at n <= 40, as a sweep: tasks of consecutive d, four per
    # worker, so at most 4 * jobs + 1 checkpoints, each on a field boundary
    one, pooled = tmp_path / "one.jsonl", tmp_path / "pooled.jsonl"
    window = dict(d_min=-97, d_max=97, n_max=40, fmt="jsonl")
    scan(ScanConfig(out=str(one), jobs=1, **window))
    written = spy_checkpoints(monkeypatch)
    summary = scan(ScanConfig(out=str(pooled), jobs=2, **window))
    assert pooled.read_bytes() == one.read_bytes()
    assert 2 <= len(written) <= 4 * 2 + 1
    assert written[-1] == Checkpoint(97, summary.records, summary.hfd) and summary.records == 121 * 39
    rows = [json.loads(line) for line in pooled.read_text().splitlines()]
    for ck in written:
        assert (rows[ck.rows - 1]["d"], rows[ck.rows - 1]["n"]) == (ck.last_d, 40)
        assert ck.hfd == sum(row["hfd"] for row in rows[: ck.rows])


def test_census_window_keeps_one_field_per_task(tmp_path, monkeypatch):
    # 9,999 rows a field: a task of two would pass _TASK_CELLS, so each field is its own
    written = spy_checkpoints(monkeypatch)
    scan(small_cfg(tmp_path / "census.csv", d_max=7, n_max=10**4, jobs=2))
    assert [ck.last_d for ck in written] == [2, 3, 5, 6, 7]
    assert [ck.rows for ck in written] == [9_999 * k for k in range(1, 6)]


class Interrupted(Exception):
    """Raised by a test's stand-in; at module level, so a worker can send it back."""


@pytest.mark.parametrize("jobs,fields_before,segment", [
    pytest.param(1, 5, None, id="jobs-1"), pytest.param(2, 6, None, id="jobs-2"),
    pytest.param(1, 5, 7, id="jobs-1-segments-of-7"), pytest.param(2, 6, 7, id="jobs-2-segments-of-7"),
])
def test_interrupted_task_leaves_the_tasks_before_it(tmp_path, monkeypatch, jobs, fields_before, segment):
    # 18 fields in [2, 30]. At --jobs 1, tasks of 5: the first 2 to 7, the second 10, 11,
    # 13, 14, 15; the scan stops at d = 14, inside the second, after setting up 10 to 13.
    # At --jobs 2, tasks of 3: d = 14 ends the third, 11, 13, 14, on worker 0, which the
    # stand-in reaches as it was patched before the fork; worker 1 has run the second.
    # In segments of 7 rows, the failing task's first segments are written (to the file,
    # or to worker 0's spool) before it fails, and never kept; the resume runs in segments
    # of 7 too
    full, part = tmp_path / "full.csv", tmp_path / "part.csv"
    window = dict(d_min=2, d_max=30, n_max=10)
    scan(ScanConfig(out=str(full), **window))
    if segment:
        monkeypatch.setattr(atlas, "_SEGMENT_ROWS", segment)
    real, seen = atlas.make_field, []

    def make_field(d):
        seen.append(d)
        if d == 14:
            raise Interrupted
        return real(d)

    monkeypatch.setattr(atlas, "make_field", make_field)
    with pytest.raises(Interrupted):
        scan(ScanConfig(out=str(part), jobs=jobs, **window))
    if jobs == 1:
        assert seen == [2, 3, 5, 6, 7, 10, 11, 13, 14]
    # the file holds exactly the rows of the tasks before the failing one, and the
    # checkpoint ends there
    rows = 9 * fields_before
    lines = full.read_bytes().splitlines(keepends=True)
    assert part.read_bytes() == b"".join(lines[: 1 + rows])
    assert read_checkpoint(checkpoint_path(str(part))) == Checkpoint(
        int(lines[rows].split(b",")[0]), rows, sum(line.endswith(b",1\n") for line in lines[1 : 1 + rows])
    )
    monkeypatch.setattr(atlas, "make_field", real)
    summary = scan(ScanConfig(out=str(part), resume=True, jobs=2, **window))
    assert part.read_bytes() == full.read_bytes()
    assert summary.records == len(lines) - 1


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("n_min", [1, 2])
@pytest.mark.parametrize("jobs", [1, 2])
def test_segments_do_not_change_the_scan(tmp_path, monkeypatch, fmt, n_min, jobs):
    # fields of 60 or 59 rows rendered in segments of 7, so that segments end inside each
    # field and each task, and the uncounted n = 1 row opens each field's
    # first segment; segments open on hfd rows too (n = 2, 23, 29, 37, 43): the bytes,
    # rows and hfd of one default-segment scan, and the hfd count report reads back
    window = dict(d_min=-30, d_max=30, n_min=n_min, n_max=60, fmt=fmt)
    whole, segmented = tmp_path / "whole", tmp_path / "segmented"
    expected = scan(ScanConfig(out=str(whole), **window))
    monkeypatch.setattr(atlas, "_SEGMENT_ROWS", 7)
    got = scan(ScanConfig(out=str(segmented), jobs=jobs, **window))
    assert segmented.read_bytes() == whole.read_bytes()
    assert (got.records, got.hfd) == (expected.records, expected.hfd)
    assert got.hfd == report_hfd(str(segmented)).total > 0


def test_a_worker_runs_its_stripe_while_the_parent_waits(tmp_path, monkeypatch):
    # task 0's first field waits until worker 1 has run its whole stripe, 16 fields of 599
    # rows in segments of 7, about 290 KB: more than a pipe and 32 segments hold, so a
    # worker whose rows pass through the parent would stall there, and the wait would time
    # out. The stand-in is patched before the fork, so both workers run it
    window = dict(d_min=2, d_max=60, n_max=600)
    one, forked = tmp_path / "one.csv", tmp_path / "forked.csv"
    scan(ScanConfig(out=str(one), **window))
    ds = atlas._squarefree_range(2, 60)
    done, real = tmp_path / "stripe-1-done", atlas._scan_one_d

    def stand_in(d, *args):
        deadline = time.monotonic() + 20
        while d == ds[0] and not done.exists():
            if time.monotonic() > deadline:
                raise TimeoutError("worker 1 has not run its stripe in 20 s")
            time.sleep(0.01)
        yield from real(d, *args)
        if d == ds[-1]:  # the last task, the eighth of 36 fields in tasks of 5: worker 1's
            done.touch()

    monkeypatch.setattr(atlas, "_scan_one_d", stand_in)
    monkeypatch.setattr(atlas, "_SEGMENT_ROWS", 7)
    summary = scan(ScanConfig(out=str(forked), jobs=2, **window))
    assert forked.read_bytes() == one.read_bytes() and summary.records == 36 * 599


def test_resume_is_byte_identical(tmp_path):
    full, part = tmp_path / "full.csv", tmp_path / "part.csv"
    scan(ScanConfig(d_min=2, d_max=15, n_max=8, out=str(full)))
    # stop after d = 7, then resume over the whole window
    scan(ScanConfig(d_min=2, d_max=7, n_max=8, out=str(part)))
    summary = scan(ScanConfig(d_min=2, d_max=15, n_max=8, out=str(part), resume=True))
    assert full.read_bytes() == part.read_bytes()
    assert summary.records == len(full.read_text().splitlines()) - 1


def test_resume_discards_partial_tail(tmp_path):
    out = tmp_path / "grid.csv"
    scan(small_cfg(out))
    ck = read_checkpoint(checkpoint_path(str(out)))
    # simulate rows written past the last durable checkpoint
    with open(out, "a") as fh:
        fh.write("11,2,44,1,1,0,0,0,1,1,0\ngarbage-not-even-csv\n")
    reference = scan(small_cfg(tmp_path / "ref.csv", d_max=15))
    summary = scan(small_cfg(out, d_max=15, resume=True))
    assert (tmp_path / "ref.csv").read_bytes() == out.read_bytes()
    assert summary.records == reference.records


def test_jsonl_resume_from_zero_row_checkpoint(tmp_path):
    full, part = tmp_path / "full.jsonl", tmp_path / "part.jsonl"
    window = dict(d_min=2, d_max=3, n_max=4, fmt="jsonl")
    reference = scan(ScanConfig(out=str(full), **window))
    assert reference.records == 6
    # a checkpoint taken before the first d: nothing in the file is durable
    scan(ScanConfig(out=str(part), **window))
    atlas._write_checkpoint(checkpoint_path(str(part)), Checkpoint(1, 0, 0))
    summary = scan(ScanConfig(out=str(part), resume=True, **window))
    assert part.read_bytes() == full.read_bytes()
    assert (summary.records, summary.hfd) == (6, reference.hfd)
    assert report_hfd(str(part)).total == reference.hfd


def test_resume_refuses_a_checkpoint_of_another_file(tmp_path):
    # the checkpoint of a d <= 10, 2 <= n <= 5 scan beside a file whose n runs to 7:
    # the row count and the first row agree, row 24 is (6, 7), not (10, 5)
    out = tmp_path / "grid.csv"
    scan(small_cfg(out, n_max=7))
    atlas._write_checkpoint(checkpoint_path(str(out)), Checkpoint(10, 24, 3))
    before = out.read_bytes()
    with pytest.raises(ValueError, match=r"line 25 holds \(d, n\) = \(6, 7\).*window"):
        scan(small_cfg(out, d_max=13, n_max=5, resume=True))
    assert out.read_bytes() == before


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("ends", ["lf", "crlf-last-row", "crlf-every-line", "no-end-last-row"])
def test_report_and_resume_read_line_ends_alike(tmp_path, fmt, ends):
    # report and --resume frame lines by one rule: a line not ended by a bare LF is
    # refused by both, and a refused resume leaves the file and its checkpoint as they were
    out, ck = tmp_path / f"grid.{fmt}", tmp_path / f"grid.{fmt}.checkpoint"
    scan(small_cfg(out, d_max=5, fmt=fmt))
    lines = out.read_bytes().split(b"\n")[:-1]
    if ends == "crlf-every-line":
        lines = [line + b"\r" for line in lines]
    elif ends == "crlf-last-row":
        lines[-1] += b"\r"
    out.write_bytes(b"\n".join(lines) + (b"" if ends == "no-end-last-row" else b"\n"))
    before, ck_before = out.read_bytes(), ck.read_bytes()

    def verdict(read):
        try:
            read()
        except ValueError as exc:
            return str(exc)
        return "accepted"

    reported = verdict(lambda: report_hfd(str(out)))
    resumed = verdict(lambda: scan(small_cfg(out, d_max=7, fmt=fmt, resume=True)))
    assert reported == resumed
    if ends == "lf":
        assert reported == "accepted"
        scan(small_cfg(tmp_path / f"ref.{fmt}", d_max=7, fmt=fmt))
        assert out.read_bytes() == (tmp_path / f"ref.{fmt}").read_bytes()
    else:
        bad_line = 1 if ends == "crlf-every-line" else len(lines)
        assert reported == f"line {bad_line}: does not end in a bare \\n"
        assert (out.read_bytes(), ck.read_bytes()) == (before, ck_before)


def test_jsonl_round_trip(tmp_path):
    out = tmp_path / "grid.jsonl"
    scan(small_cfg(out, fmt="jsonl"))
    lines = out.read_text().splitlines()
    assert len(lines) == 54
    for line in lines:
        obj = json.loads(line)
        rec = reference_record(obj["d"], obj["n"])
        assert obj == record_to_json_obj(rec)
    assert report_hfd(str(out)).total == report_hfd_total_csv(tmp_path)


def report_hfd_total_csv(tmp_path):
    out = tmp_path / "cmp.csv"
    scan(small_cfg(out))
    return report_hfd(str(out)).total


def test_empty_window_writes_a_file_with_no_rows(tmp_path):
    # each empty window (no squarefree d, or n_min > n_max) replaces a finished scan's file
    # and checkpoint by a file with no rows, at any jobs; a resume over the finished scan's
    # checkpoint is refused like any other window's, leaving both as they were
    windows = [dict(d_min=4, d_max=4, n_max=10), dict(d_min=99, d_max=100, n_max=10),
               dict(d_min=2, d_max=10, n_min=2, n_max=1), dict(d_min=2, d_max=10, n_min=9, n_max=1)]
    for fmt, no_rows in (("csv", CSV_HEADER.encode() + b"\n"), ("jsonl", b"")):
        out, ck = tmp_path / f"e.{fmt}", tmp_path / f"e.{fmt}.checkpoint"
        for window in windows:
            for jobs in (1, 2):
                assert scan(ScanConfig(d_min=-5, d_max=5, n_max=10, out=str(out), fmt=fmt)).records == 63
                before = out.read_bytes(), ck.read_bytes()
                with pytest.raises(ValueError, match="this window has 0; resume with the original"):
                    scan(ScanConfig(out=str(out), fmt=fmt, resume=True, jobs=jobs, **window))
                assert (out.read_bytes(), ck.read_bytes()) == before
                summary = scan(ScanConfig(out=str(out), fmt=fmt, jobs=jobs, **window))
                assert (summary.records, summary.hfd) == (0, 0)
                assert out.read_bytes() == no_rows and not ck.exists()
                assert report_hfd(str(out)).total == 0
                # with no checkpoint left, a resume scans the empty window afresh
                summary = scan(ScanConfig(out=str(out), fmt=fmt, resume=True, jobs=jobs, **window))
                assert summary.records == 0
                assert out.read_bytes() == no_rows and not ck.exists()


def test_window_without_d_is_not_planned(tmp_path):
    # the n window of a d range with no squarefree d is checked by its bounds, not planned:
    # a plan of 200,000 n would hold two columns of 200,000 ints; a window with a d is planned
    # in the scan's own process, so forked workers inherit the plan
    window_plan.cache_clear()
    tracemalloc.start()
    try:
        summary = scan(ScanConfig(d_min=4, d_max=4, n_max=200_000, out=str(tmp_path / "e.csv")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.records == 0 and peak < 256 * 1024, peak
    assert window_plan.cache_info().misses == 0
    scan(ScanConfig(d_min=2, d_max=3, n_max=50, out=str(tmp_path / "p.csv"), jobs=2))
    assert window_plan.cache_info().misses == 1


@pytest.mark.parametrize(
    "d_min, d_max",
    [
        (-16000, 16000),
        (-5, 5),
        (0, 1),
        (-1, -1),
        (5, 3),
        (3, -5),
        (10**9, 10**9 + 50),
        (-(10**6) - 30, -(10**6)),
    ],
)
def test_squarefree_range_is_the_squarefree_filter(d_min, d_max):
    expected = [d for d in range(d_min, d_max + 1) if d not in (0, 1) and is_squarefree(d)]
    assert atlas._squarefree_range(d_min, d_max) == expected


def test_verify_mode_small_window(tmp_path):
    out = tmp_path / "v.csv"
    summary = scan(ScanConfig(d_min=-6, d_max=6, n_max=8, out=str(out), verify=True))
    assert summary.records > 0
    # n = 1 has no quotient for the oracles to enumerate; its row is still written
    window = dict(d_min=-6, d_max=6, n_min=1, n_max=8)
    plain, checked = tmp_path / "plain.csv", tmp_path / "checked.csv"
    scan(ScanConfig(out=str(plain), **window))
    summary = scan(ScanConfig(out=str(checked), verify=True, **window))
    assert summary.records == 9 * 8
    assert checked.read_bytes() == plain.read_bytes()


def test_scan_sets_each_field_up_once(tmp_path):
    # the worker sets a field up once and hands F, U and h to the kernel and to --verify,
    # so neither the cells nor their oracle checks look the field up again
    setups = (make_field, fundamental_unit, class_number)
    window = dict(d_min=-7, d_max=7, n_min=1, n_max=12, jobs=1)
    k = 11  # the squarefree d in [-7, 7] but 1
    for verify in (False, True):
        before = [f.cache_info() for f in setups]
        scan(ScanConfig(out=str(tmp_path / f"{verify}.csv"), verify=verify, **window))
        after = [f.cache_info() for f in setups]
        assert [a.hits + a.misses - b.hits - b.misses for a, b in zip(after, before)] == [k] * 3


def test_verify_asks_the_oracles_once_per_cell(tmp_path, monkeypatch):
    # tasks of several fields each, and one oracle_verdicts per cell, in (d, n) order; a scan
    # without --verify asks none
    asked = []

    def spy(F, U, n):
        asked.append((F.d, n))
        return oracle.oracle_verdicts(F, U, n)

    monkeypatch.setattr(atlas, "oracle_verdicts", spy)
    window = dict(d_min=-7, d_max=7, n_min=1, n_max=12, jobs=1)
    scan(ScanConfig(out=str(tmp_path / "plain.csv"), **window))
    assert asked == []
    written = spy_checkpoints(monkeypatch)
    scan(ScanConfig(out=str(tmp_path / "checked.csv"), verify=True, **window))
    ds = atlas._squarefree_range(-7, 7)
    assert asked == [(d, n) for d in ds for n in range(1, 13)] and len(written) < len(ds)


def test_verdicts_are_matched_to_flags_by_name(tmp_path, monkeypatch):
    # the verdicts in reverse order check the same flags: paired by position, the closed
    # form's locally_associated would meet the associated oracle (true against false at
    # d = 2, n = 2)
    window = dict(d_min=-6, d_max=6, n_min=1, n_max=12)
    plain, checked = tmp_path / "plain.csv", tmp_path / "checked.csv"
    scan(ScanConfig(out=str(plain), **window))
    reverse_verdicts(monkeypatch)
    scan(ScanConfig(out=str(checked), verify=True, **window))
    assert checked.read_bytes() == plain.read_bytes()


def test_a_verdict_named_by_no_column_stops_the_scan(tmp_path, monkeypatch):
    # a verdict is read by its column's name: a name that is no column is an error, in
    # process and in a forked worker alike, never a verdict passed unchecked
    wrap_verdicts(monkeypatch, lambda verdicts: {**verdicts, "unit_index": True})
    for jobs in (1, 2):
        with pytest.raises(KeyError, match="unit_index"):
            scan(ScanConfig(d_min=2, d_max=3, n_max=2, out=str(tmp_path / "v.csv"), verify=True,
                            jobs=jobs))


def test_oracle_verdicts_skip_and_mismatch(tmp_path, monkeypatch):
    # 31^2 is past the ideal-preserving oracle's bound, 31 is not past the others'
    F = make_field(7)
    verdicts = oracle.oracle_verdicts(F, fundamental_unit(F), 31)
    assert list(verdicts.items()) == [
        ("locally_associated", False), ("ideal_preserving", None), ("associated", False)
    ]
    # an oracle that disagrees with the closed form stops the scan; a skipped oracle cannot
    flip_associated(monkeypatch)
    with pytest.raises(ScanVerificationError, match="associated mismatch at d=2, n=2"):
        scan(ScanConfig(d_min=2, d_max=2, n_max=2, out=str(tmp_path / "v.csv"), verify=True))
    # the same mismatch found in a forked worker keeps its type and its message
    with pytest.raises(ScanVerificationError,
                       match="^associated mismatch at d=2, n=2: closed-form=false oracle=true$"):
        scan(ScanConfig(d_min=2, d_max=3, n_max=2, out=str(tmp_path / "v.csv"), verify=True, jobs=2))


def test_report_counts_and_histogram(tmp_path):
    out = tmp_path / "grid.csv"
    summary = scan(ScanConfig(d_min=-30, d_max=-2, n_max=20, out=str(out)))
    rep = report_hfd(str(out))
    # the only imaginary hfd order with n > 1 is (-3, 2)
    assert rep.total == 1 == summary.hfd
    assert rep.per_d == {-3: 1}


def test_report_rejects_malformed_rows(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(CSV_HEADER + "\n2,2,8,2,2,0,1,0,1,1\n")
    with pytest.raises(ValueError, match="line 2"):
        report_hfd(str(bad))
    bad.write_text(CSV_HEADER + "\n2,2,8,2,2,0,1,0,1,1,7\n")
    with pytest.raises(ValueError, match="line 2"):
        report_hfd(str(bad))
    bad.write_text(CSV_HEADER + "\n2,2,8,2,2,0,1,0,1,1,1\nx,y\n")
    with pytest.raises(ValueError, match="line 3"):
        report_hfd(str(bad))
    bad.write_text("not,a,header\n")
    with pytest.raises(ValueError, match="line 1"):
        report_hfd(str(bad))
    good = "2,2,8,2,2,0,1,0,1,1,0\n"
    for rows, message in [
        (good + "2,3,8,4,4,1,1,1,1,1,2\n", "line 3: field hfd is not 0 or 1: '2'"),
        ("2,3,8,x,4,1,1,1,1,1,1\n", "line 2: field m is not a canonical integer: 'x'"),
        ("2,3,8,4,4,1,1,1,1,1,1.0\n", "line 2: field hfd is not 0 or 1: '1.0'"),
        ("2,3,8,4,4,3,x,1,1,1,1\n", "line 2: field ideal_preserving is not 0 or 1: '3'"),
        # the template's literal text is read first: each field runs to the next comma,
        # the last to the line end, so a twelfth field is read as part of the eleventh
        ("2,3,8,4,4,1,1,1,1,1,1,0\n", "line 2: field hfd is not 0 or 1: '1,0'"),
        ("2,3,8,4,4,1,1,1,1,1\n", "line 2: not in the spelling scan writes"),
        (good + "\n" + good, "line 3: blank line"),
        # only the spelling scan writes is read: no sign but -, no space, no underscore,
        # no leading zero, and a flag is 0 or 1 exactly
        ("2,+3,8,4,4,1,1,1,1,1,1\n", "line 2: field n is not a canonical integer: '+3'"),
        ("2,3,8,4,4,1,1,1,1,1, 1\n", "line 2: field hfd is not 0 or 1: ' 1'"),
        ("2,1_1,8,4,4,1,1,1,1,1,1\n", "line 2: field n is not a canonical integer: '1_1'"),
        ("2,3,8,4,4,-0,1,1,1,1,1\n", "line 2: field ideal_preserving is not 0 or 1: '-0'"),
        ("2,3,8,04,4,1,1,1,1,1,1\n", "line 2: field m is not a canonical integer: '04'"),
        ("-0,3,8,4,4,1,1,1,1,1,1\n", "line 2: field d is not a canonical integer: '-0'"),
    ]:
        bad.write_text(CSV_HEADER + "\n" + rows)
        with pytest.raises(ValueError) as exc:
            report_hfd(str(bad))
        assert str(exc.value) == message
    # scan writes bare LF line ends, and resume cannot append to a CRLF file
    # without mixing the two, so a row ending in CRLF is rejected by name
    bad.write_bytes(f"{CSV_HEADER}\n2,3,8,4,4,1,1,1,1,1,1\n-3,2,-3,3,3,1,1,1,1,1,1\r\n".encode())
    with pytest.raises(ValueError) as exc:
        report_hfd(str(bad))
    assert str(exc.value) == "line 3: does not end in a bare \\n"
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert report_hfd(str(empty)).total == 0


def test_csv_reader_never_passes_a_rejected_row(tmp_path, monkeypatch):
    # a canonical row only the block search refuses is a contradiction, not a row
    path = tmp_path / "grid.csv"
    path.write_text(CSV_HEADER + "\n2,3,8,4,4,1,1,1,1,1,1\n")
    monkeypatch.setattr(atlas, "_bad_line", lambda fmt: lambda block: 0)  # refuses line 1
    with pytest.raises(InternalConsistencyError, match="line 2"):
        report_hfd(str(path))


def reference_bad_line(fmt):
    """The block check the LF-anchored search replaced: (?m)^(?!ROW\n), tried at every byte."""
    row = re.escape(atlas._row_template(fmt)).replace("%d", r"(?:-?[1-9][0-9]*|0)")
    row = row.replace("%s", "(?:%s)" % "|".join(atlas._FLAG_WORDS[fmt]))
    search = re.compile(rb"(?m)^(?!%s\n)" % row.encode()).search
    return lambda block: search(block).start()


def first_block(tmp_path, fmt):
    """The first block of whole lines _scan_file checks in a scan file, past the CSV header."""
    out = tmp_path / f"grid.{fmt}"
    scan(ScanConfig(d_min=-40, d_max=40, n_max=80, fmt=fmt, out=str(out)))
    with open(out, "rb") as fh:
        block = next(atlas._line_blocks(fh))
    block = block[len(CSV_HEADER) + 1 :] if fmt == "csv" else block
    assert len(block) > atlas._BLOCK_SIZE - 100 and block.endswith(b"\n")
    return block


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_block_check_finds_the_line_the_reference_finds(tmp_path, fmt):
    # the same offset as the per-byte reference search: on a clean 64 KiB block, on 400
    # one-byte corruptions of it, and on empty, CRLF and unended blocks
    check, reference = atlas._bad_line(fmt), reference_bad_line(fmt)
    block = first_block(tmp_path, fmt)
    rng = random.Random(20)
    variants = [block, b"", b"\n", b"x", block[:-1], block[:-1] + b"\r\n"]
    variants += [block.replace(b"\n", b"\r\n", 1), block[: block.index(b"\n")]]
    for _ in range(400):
        pos = rng.randrange(len(block))
        byte = rng.choice(b"\n\r,:-0123456789{}\"x" + bytes(range(256)))
        variants.append(block[:pos] + bytes([byte]) + block[pos + 1 :])
    offsets = [check(v) for v in variants]
    assert offsets == [reference(v) for v in variants]
    assert offsets[:4] == [len(block), 0, 0, 0] and offsets[4] < len(block)
    assert sum(o < len(v) for o, v in zip(offsets, variants)) > 300


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_block_check_keeps_no_state_per_row(tmp_path, fmt):
    # a greedy (?:ROW\n)* match would keep backtracking state for each of about 2,000 rows
    check, block = atlas._bad_line(fmt), first_block(tmp_path, fmt)
    assert check(block) == len(block)
    tracemalloc.start()
    try:
        assert check(block) == len(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024, peak


def test_report_rejects_malformed_jsonl(tmp_path):
    bad = tmp_path / "bad.jsonl"
    rec = classify_order(OrderSpec(2, 2))
    good_line = json.dumps(record_to_json_obj(rec), separators=(",", ":"))
    bad.write_text(good_line + "\n{broken\n")
    with pytest.raises(ValueError, match="line 2"):
        report_hfd(str(bad))
    obj = record_to_json_obj(rec)
    obj["hfd"] = 1  # wrong type: must be boolean
    bad.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValueError, match="line 1"):
        report_hfd(str(bad))
    # only the spelling scan writes is read: compact, keys in field order
    reordered = dict(reversed(record_to_json_obj(rec).items()))
    for line in (json.dumps(record_to_json_obj(rec)), json.dumps(reordered, separators=(",", ":"))):
        bad.write_text(good_line + "\n" + line + "\n")
        with pytest.raises(ValueError) as exc:
            report_hfd(str(bad))
        assert str(exc.value) == "line 2: not in the spelling scan writes"


def test_each_field_names_its_off_spelling_text(tmp_path):
    # a good row, then the same row with one field's text off the spelling scan writes:
    # in both formats and for every field, the refusal names the row's line, the field
    # and the text
    rec = classify_order(OrderSpec(2, 3))
    formats = [("csv", ("0", "1"), CSV_HEADER + "\n"), ("jsonl", ("false", "true"), "")]
    for fmt, words, head in formats:
        if fmt == "csv":
            texts = [str(int(v)) for v in rec]
            spell = ",".join
        else:
            texts = [json.dumps(v) for v in rec]
            spell = lambda ts: "{" + ",".join(f'"{k}":{t}' for k, t in zip(rec._fields, ts)) + "}"
        good = spell(texts) + "\n"
        lineno = (head + good).count("\n") + 1
        path = tmp_path / f"bad.{fmt}"
        path.write_text(head + good)
        assert report_hfd(str(path)).total == rec.hfd
        for i, name in enumerate(rec._fields):
            flag = isinstance(rec[i], bool)
            what = " or ".join(words) if flag else "a canonical integer"
            for text in ["x", "+1", "01", " 1", "1.0"] + (["1"] if flag and fmt == "jsonl" else []):
                path.write_text(head + good + spell(texts[:i] + [text] + texts[i + 1 :]) + "\n")
                with pytest.raises(ValueError) as exc:
                    report_hfd(str(path))
                assert str(exc.value) == f"line {lineno}: field {name} is not {what}: {text!r}"


def test_scan_validation(tmp_path):
    with pytest.raises(ValueError):
        scan(ScanConfig(d_min=2, d_max=4, n_max=4, out=str(tmp_path / "x"), fmt="tsv"))
    with pytest.raises(ValueError):
        scan(ScanConfig(d_min=2, d_max=4, n_max=4, out=str(tmp_path / "x"), jobs=0))


def _outcome(path):
    try:
        return report_hfd(str(path))
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("fmt,window", [
    ("csv", dict(d_min=-14, d_max=14, n_max=12)),
    ("jsonl", dict(d_min=-6, d_max=6, n_max=6)),
])
def test_block_size_does_not_change_the_outcome(tmp_path, monkeypatch, fmt, window):
    # a scan crossing many block boundaries and ~200 seeded one-byte mutations of it:
    # every block size reads each alike, and a refusal names the mutated byte's line
    out = tmp_path / f"grid.{fmt}"
    summary = scan(ScanConfig(out=str(out), fmt=fmt, **window))
    data = out.read_bytes()
    assert len(data) > 40 * 64
    rng = random.Random(10)
    variants = [(data, None)]
    for _ in range(200):
        pos = rng.randrange(len(data))
        byte = rng.choice([b for b in range(256) if b != data[pos]])
        variants.append((data[:pos] + bytes([byte]) + data[pos + 1 :], pos))
    refused = 0
    for body, pos in variants:
        out.write_bytes(body)
        outcomes = []
        for size in (1, 7, 64, atlas._BLOCK_SIZE):
            monkeypatch.setattr(atlas, "_BLOCK_SIZE", size)
            outcomes.append(_outcome(out))
            monkeypatch.undo()
        assert outcomes == [outcomes[0]] * 4, pos
        if pos is None:
            assert outcomes[0].total == summary.hfd > 0
        elif isinstance(outcomes[0], str):
            refused += 1
            line = data.count(b"\n", 0, pos) + 1
            assert outcomes[0].startswith(f"line {line}: "), (pos, outcomes[0])
    assert refused > 150


def test_block_edges(tmp_path, monkeypatch):
    path = tmp_path / "grid.csv"
    scan(ScanConfig(d_min=2, d_max=7, n_max=9, out=str(path)))
    data = path.read_bytes()
    lines = data.split(b"\n")[:-1]
    head = len(lines[0]) + 1
    expected = report_hfd(str(path))

    def read(body, block_size):
        path.write_bytes(body)
        monkeypatch.setattr(atlas, "_BLOCK_SIZE", block_size)
        try:
            return _outcome(path)
        finally:
            monkeypatch.undo()

    # a row split across a block boundary: the first block ends inside row 1
    assert read(data, head + 5) == expected
    # a CRLF only on the last row of a block: the first block is the header and rows 1-3
    first_block = b"".join(line + b"\n" for line in lines[:4])
    crlf = first_block[:-1] + b"\r\n" + data[len(first_block) :]
    assert read(crlf, len(first_block) + 1) == "line 4: does not end in a bare \\n"
    # a non-UTF-8 byte in the middle of a block, past rows the block search accepted
    row = len(b"".join(line + b"\n" for line in lines[:20]))
    assert read(data[: row + 3] + b"\xff" + data[row + 4 :], 1 << 16) == "line 21: not UTF-8"
    # a last line with no line end, at every block size
    for size in (1, 7, 1 << 16):
        assert read(data[:-1], size) == f"line {len(lines)}: does not end in a bare \\n"
    # a file that holds only the header, and an empty file
    assert read(data[:head], 7) == atlas.HfdReport(0, {})
    assert read(b"", 7) == atlas.HfdReport(0, {})


def test_resume_checks_every_checkpointed_row(tmp_path):
    # resume reads the checkpointed rows through report's reader: a corrupt middle row
    # refuses the resume with report's message, and the file and checkpoint stay as they were
    out, ck = tmp_path / "grid.csv", tmp_path / "grid.csv.checkpoint"
    scan(small_cfg(out))
    data = bytearray(out.read_bytes())
    pos = data.index(b"\n", len(data) // 2) - 1  # the hfd flag of a middle row
    data[pos : pos + 1] = b"x"
    out.write_bytes(bytes(data))
    before, ck_before = out.read_bytes(), ck.read_bytes()
    with pytest.raises(ValueError) as reported:
        report_hfd(str(out))
    with pytest.raises(ValueError) as resumed:
        scan(small_cfg(out, d_max=13, resume=True))
    line = data.count(b"\n", 0, pos) + 1
    assert str(reported.value) == f"line {line}: field hfd is not 0 or 1: 'x'"
    assert str(resumed.value) == str(reported.value)
    assert (out.read_bytes(), ck.read_bytes()) == (before, ck_before)
