import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from quadorders import OrderSpec, arith, atlas, classify_order, make_field, record_to_json_obj
from quadorders.arith import WINDOW_WIDTH_MAX
from quadorders.cli import format_unit, main
from quadorders.oracle import DEFAULT_ENUM_BOUND
from quadorders.pell import FundamentalUnit
from test_atlas import flip_associated, reverse_verdicts


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_classify_text(capsys):
    rc, out, _ = run_cli(capsys, "classify", "-d", "2", "-n", "5")
    assert rc == 0
    assert "m=3" in out and "L=6" in out
    assert "ip=1" in out and "la=0" in out and "assoc=0" in out
    assert "h_maximal=1" in out and "h_order=2" in out


def test_classify_json_round_trips(capsys):
    rc, out, _ = run_cli(capsys, "classify", "-d", "-3", "-n", "2", "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj == record_to_json_obj(classify_order(OrderSpec(-3, 2)))
    assert obj["hfd"] is True


def test_classify_rejects_bad_d(capsys):
    rc, _, err = run_cli(capsys, "classify", "-d", "12", "-n", "2")
    assert rc == 2
    assert "d=12 is not squarefree" in err


def test_negative_d_parses(capsys):
    rc, out, _ = run_cli(capsys, "classify", "-d", "-7", "-n", "3")
    assert rc == 0
    assert "la=0" in out


def test_unit_output(capsys):
    rc, out, _ = run_cli(capsys, "unit", "-d", "5")
    assert rc == 0
    assert "(1+√5)/2" in out and "norm -1" in out
    rc, out, _ = run_cli(capsys, "unit", "-d", "2")
    assert "1+√2" in out and "norm -1" in out
    rc, out, _ = run_cli(capsys, "unit", "-d", "-3")
    assert "torsion order 6" in out
    rc, out, _ = run_cli(capsys, "unit", "-d", "-5")
    assert out.startswith("-1,")


def test_unit_with_huge_coordinates_renders_digit_counts():
    # coordinates past the interpreter's 4,300-digit int-to-str limit
    big = 10**4999
    F = make_field(2)
    assert format_unit(F, FundamentalUnit((big, -3 * big), 1, 2)) == (
        "<5000 digits>-<5000 digits>√2"
    )
    F = make_field(5)
    # (X + Y*sqrt(5))/2 with X = 2a + b = -3 * 10**4999
    text = format_unit(F, FundamentalUnit((-2 * big, big), -1, 2))
    assert text == "(-<5000 digits>+<5000 digits>√5)/2"


def test_lfun(capsys):
    rc, out, _ = run_cli(capsys, "lfun", "-n", "33", "-d", "2")
    assert rc == 0 and out.strip() == "48"
    rc, _, err = run_cli(capsys, "lfun", "-n", "4", "-d", "12")
    assert rc == 2
    for d in ("0", "1"):
        rc, out, err = run_cli(capsys, "lfun", "-n", "5", "-d", d)
        assert (rc, out) == (2, "")
        assert f"d={d} does not define a quadratic field" in err


def test_classnum(capsys):
    rc, out, _ = run_cli(capsys, "classnum", "-d", "10")
    assert rc == 0
    assert "h=2" in out and "h_plus=2" in out and "unit_norm=-1" in out
    rc, out, _ = run_cli(capsys, "classnum", "-d", "-5")
    assert "h=2" in out and "h_plus=-" in out


def test_verify_ok(capsys):
    rc, out, _ = run_cli(capsys, "verify", "-d", "2", "-n", "2")
    assert rc == 0
    assert out.startswith("OK")
    assert "la: closed-form=true oracle=true" in out
    assert "ip: false/false" in out
    assert "assoc: false/false" in out


def test_verify_matches_verdicts_to_flags_by_name(capsys, monkeypatch):
    # the verdicts in reverse order: paired by position, la's true would meet assoc's false
    reverse_verdicts(monkeypatch)
    rc, out, _ = run_cli(capsys, "verify", "-d", "2", "-n", "2")
    assert rc == 0
    assert out.startswith("OK") and "la: closed-form=true oracle=true" in out


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    def flipped(spec):
        rec = classify_order(spec)
        return rec._replace(ideal_preserving=not rec.ideal_preserving)

    monkeypatch.setattr("quadorders.cli.classify_order", flipped)
    rc, out, _ = run_cli(capsys, "verify", "-d", "2", "-n", "2")
    assert rc == 1
    assert out.startswith("MISMATCH") and "ip: true/false" in out


def test_a_value_too_large_to_factor_is_named(capsys, monkeypatch):
    # make_field factors |d| to test it squarefree: that refusal names d, sign and all,
    # and one of n still names n; a trial bound of 1000 makes each refusal instant
    monkeypatch.setattr(arith, "TRIAL_BOUND", 1000)
    big = 10**18 + 3  # a prime past 10^14: no test factors it, so no cache holds it
    for argv, name in [
        (("lfun", "-d", str(big), "-n", "2"), f"d = {big}"),
        (("classnum", "-d", str(-big)), f"d = {-big}"),
        (("classify", "-d", "2", "-n", str(big)), f"n = {big}"),
    ]:
        message = f"error: {name} is too large to factor: no factor of {big} up to 1000\n"
        assert run_cli(capsys, *argv) == (2, "", message)


def test_verify_bound_exceeded(capsys):
    # n = 5000 = 2^3 5^4 is past the bound at M = n, while ideal_preserving runs mod 2^2 and
    # 5^2; n = 17 is within it, but ideal_preserving works mod 17^2 = 289, past it
    for n, skipped in ((5000, "locally_associated, associated"),
                       (17, "ideal_preserving")):
        rc, _, err = run_cli(capsys, "verify", "-d", "2", "-n", str(n))
        assert rc == 2
        assert err.startswith(f"error: n={n} is outside the range of the oracle(s) {skipped}: ")
        assert "locally_associated and associated enumerate O_K/(M) at M = n" in err
        assert "ideal_preserving works modulo M = p^2 for each prime p | n" in err
        assert f"2 <= M <= {DEFAULT_ENUM_BOUND}, the enumeration bound" in err


def test_verify_n1_names_the_input(capsys):
    # n = 1 is O_K itself, with no quotient for the oracles to enumerate
    rc, _, err = run_cli(capsys, "verify", "-d", "2", "-n", "1")
    assert rc == 2
    assert err.startswith("error: n=1 is outside the range of the oracle(s) ")
    assert "modulus must be" not in err


def test_lfun_rejects_index_below_1(capsys):
    rc, _, err = run_cli(capsys, "lfun", "-d", "2", "-n", "0")
    assert rc == 2
    assert err == "error: order index must be >= 1, got 0\n"


def test_scan_and_report(capsys, tmp_path):
    out = tmp_path / "grid.csv"
    rc, text, _ = run_cli(
        capsys,
        "scan", "--d-min", "2", "--d-max", "10", "--n-max", "10",
        "--out", str(out),
    )
    assert rc == 0
    assert "records=54" in text
    rc, text, _ = run_cli(capsys, "report", str(out))
    assert rc == 0
    assert text.splitlines()[0].startswith("hfd_total=")


def test_report_malformed_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("d,n,D,m,L,ideal_preserving,locally_associated,associated,"
                   "h_maximal,h_order,hfd\nnonsense\n")
    rc, _, err = run_cli(capsys, "report", str(bad))
    assert rc == 1
    assert "line 2" in err


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "classify", "-d", "2")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "quadorders.cli", "classify", "-d", "5", "-n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "assoc=1" in proc.stdout


@pytest.mark.parametrize("d,n", [(2, 2), (2, 5), (5, 2), (-3, 2), (-1, 2), (17, 2)])
def test_verify_agrees_everywhere_sampled(capsys, d, n):
    rc, out, _ = run_cli(capsys, "verify", "-d", str(d), "-n", str(n))
    assert rc == 0
    assert out.startswith("OK")


def test_resume_refuses_other_window_or_format(capsys, tmp_path):
    out = tmp_path / "grid.csv"
    base = ("scan", "--d-min", "2", "--out", str(out))
    assert run_cli(capsys, *base, "--d-max", "10", "--n-max", "5")[0] == 0
    before = out.read_bytes()
    # a wider n window would append longer rows to the same file
    rc, _, err = run_cli(capsys, *base, "--d-max", "13", "--n-max", "8", "--resume")
    assert rc == 2 and "window" in err
    # JSONL would be appended to a CSV file
    rc, _, err = run_cli(capsys, *base, "--d-max", "13", "--n-max", "5", "--resume",
                         "--format", "jsonl")
    assert rc == 2 and "jsonl" in err
    assert out.read_bytes() == before
    rc, text, _ = run_cli(capsys, "report", str(out))
    assert rc == 0
    # the matching window still resumes
    assert run_cli(capsys, *base, "--d-max", "13", "--n-max", "5", "--resume")[0] == 0
    assert len(out.read_text().splitlines()) == 1 + 8 * 4
    # windows whose checkpointed row count matches, in either format: the same n width
    # starting elsewhere (6 d x 4 n), and 8 d from -2 x 3 n (also 24 rows, ending at (10, 5))
    for fmt in ("csv", "jsonl"):
        out = tmp_path / f"shifted.{fmt}"
        base = ("scan", "--out", str(out), "--format", fmt, "--d-max")
        assert run_cli(capsys, *base, "10", "--d-min", "2", "--n-max", "5")[0] == 0
        before = out.read_bytes()
        for shifted in (("--d-min", "2", "--n-min", "3", "--n-max", "6"),
                        ("--d-min", "-2", "--n-min", "3", "--n-max", "5")):
            rc, _, err = run_cli(capsys, *base, "13", *shifted, "--resume")
            assert rc == 2 and "window" in err, (fmt, shifted)
            assert out.read_bytes() == before


def test_report_into_a_closed_pipe_exits_0(tmp_path):
    # 8,000 d make a report past 64 KiB, so the reader closes the pipe mid-write
    path = tmp_path / "grid.csv"
    rows = "".join(f"{d},2,{d},1,1,1,1,1,1,1,1\n" for d in range(2, 8002))
    path.write_text(atlas.CSV_HEADER + "\n" + rows)
    with subprocess.Popen([sys.executable, "-m", "quadorders.cli", "report", str(path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"hfd_total=8000\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (0, b"")


def test_report_reads_a_jsonl_scan_from_a_pipe(tmp_path):
    # the format is sniffed without a seek, so a JSONL scan need not be a regular file
    out = tmp_path / "grid.jsonl"
    atlas.scan(atlas.ScanConfig(d_min=-3, d_max=-3, n_max=3, out=str(out), fmt="jsonl"))
    proc = subprocess.run([sys.executable, "-m", "quadorders.cli", "report", "/dev/stdin"],
                          input=out.read_bytes(), capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"hfd_total=1\nd=-3 hfd=1\n", b"")


def test_report_reads_a_csv_scan_from_a_pipe_in_short_writes(tmp_path):
    # a CSV scan past 64 KiB, written into the pipe in pieces that end mid-row:
    # the reader's blocks are whatever the pipe hands back, run on to the next line end
    out = tmp_path / "grid.csv"
    atlas.scan(atlas.ScanConfig(d_min=2, d_max=17, n_max=300, out=str(out)))
    data = out.read_bytes()
    assert len(data) > 1 << 16
    rep = atlas.report_hfd(str(out))
    expected = f"hfd_total={rep.total}\n" + "".join(
        f"d={d} hfd={k}\n" for d, k in sorted(rep.per_d.items()))
    argv = [sys.executable, "-m", "quadorders.cli", "report", "/dev/stdin"]
    pipes = dict(stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with subprocess.Popen(argv, **pipes) as proc:
        for start in range(0, len(data), 4099):
            proc.stdin.write(data[start : start + 4099])
            proc.stdin.flush()
        proc.stdin.close()
        stdout, stderr = proc.stdout.read(), proc.stderr.read()
        assert (proc.wait(timeout=60), stdout.decode(), stderr) == (0, expected, b"")


def test_resume_refuses_a_respelled_jsonl_scan(capsys, tmp_path):
    # json.dumps's default spelling (a space after : and ,) is not the one scan writes:
    # resume would append compact rows after spaced ones, so it refuses and changes nothing
    out = tmp_path / "grid.jsonl"
    argv = ("scan", "--d-min", "2", "--d-max", "3", "--n-max", "3", "--format", "jsonl",
            "--out", str(out))
    assert run_cli(capsys, *argv)[0] == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    out.write_text("".join(json.dumps(row) + "\n" for row in rows))
    before, ck_before = out.read_bytes(), (tmp_path / "grid.jsonl.checkpoint").read_bytes()
    rc, _, err = run_cli(capsys, *argv[:4], "5", *argv[5:], "--resume")
    assert (rc, err) == (1, "error: line 1: not in the spelling scan writes\n")
    assert out.read_bytes() == before
    assert (tmp_path / "grid.jsonl.checkpoint").read_bytes() == ck_before


def _scan_oracle_disagrees(monkeypatch, tmp_path):
    flip_associated(monkeypatch)
    return ("scan", "--d-min", "2", "--d-max", "2", "--n-max", "2", "--verify",
            "--out", str(tmp_path / "v.csv"))


def _resume_with_bad_checkpoint(monkeypatch, tmp_path, checkpoint="d=oops\n", row=None):
    out = tmp_path / "grid.csv"
    argv = ("scan", "--d-min", "2", "--d-max", "3", "--n-max", "3", "--out", str(out))
    assert main(list(argv)) == 0
    (tmp_path / "grid.csv.checkpoint").write_text(checkpoint)
    if row is not None:
        out.write_text(out.read_text().rsplit("\n", 2)[0] + "\n" + row + "\n")
    return *argv, "--resume"


def _report_on(tmp_path, body):
    path = tmp_path / "grid.csv"
    path.write_bytes(atlas.CSV_HEADER.encode() + b"\n" + body)
    return "report", str(path)


def _resume_csv_as_jsonl(monkeypatch, tmp_path):
    argv = ("scan", "--d-min", "2", "--d-max", "3", "--n-max", "3", "--out", str(tmp_path / "g.csv"))
    assert main(list(argv)) == 0
    return *argv, "--resume", "--format", "jsonl"


def _classify_m_not_dividing_l(monkeypatch, tmp_path):
    # (m, L, inert) for every prime power; L(5, 2) = 6
    monkeypatch.setattr("quadorders.classify.local_data", lambda F, U, p, a: (4, 6, True))
    return "classify", "-d", "2", "-n", "5"


def _scan_out_of_memory(monkeypatch, tmp_path):
    def no_memory(cfg):  # stands in for a window too wide to allocate; nothing is allocated
        raise MemoryError

    monkeypatch.setattr("quadorders.cli.scan", no_memory)
    return "scan", "--d-min", "2", "--d-max", "3", "--n-max", "3", "--out", str(tmp_path / "x.csv")


@pytest.mark.parametrize("make_argv,rc", [
    # a RuntimeError exits 1: an oracle mismatch, corrupt data, an internal contradiction
    pytest.param(_scan_oracle_disagrees, 1, id="scan-verify-mismatch"),
    # the same mismatch in a forked worker, sent back to the parent as the same error
    pytest.param(lambda mp, tp: (*_scan_oracle_disagrees(mp, tp), "--d-max", "3", "--jobs", "2"), 1,
                 id="scan-verify-mismatch-jobs-2"),
    pytest.param(_resume_with_bad_checkpoint, 1, id="resume-malformed-checkpoint"),
    # the checkpoint is sound, the last row it makes durable is not
    pytest.param(lambda mp, tp: _resume_with_bad_checkpoint(
        mp, tp, "d=3\nrows=4\nhfd=1\n", "3,3,x"), 1, id="resume-malformed-row"),
    pytest.param(_classify_m_not_dividing_l, 1, id="classify-m-not-dividing-L"),
    # a line the scan-file reader rejects exits 1, in report as in resume
    pytest.param(lambda mp, tp: _report_on(tp, b"2,3,8,4,4,1,1,1,1,1,x\n"), 1,
                 id="report-malformed-row"),
    pytest.param(lambda mp, tp: _report_on(tp, b"2,3,8,4,4,1,1,1,1,1,\xff\n"), 1,
                 id="report-non-utf8-byte"),
    # any other ValueError (a cell outside the oracles' range among them) exits 2
    pytest.param(lambda mp, tp: ("verify", "-d", "2", "-n", "5000"), 2, id="verify-past-bound"),
    # a prime n past the bound: refused before the roots mod n are searched, at once
    pytest.param(lambda mp, tp: ("verify", "-d", "2", "-n", "1000000007"), 2,
                 id="verify-large-prime"),
    # a prime n past 10^14: factorize stops trial division at 10^7 and refuses it
    pytest.param(lambda mp, tp: ("classify", "-d", "2", "-n", str(10**18 + 3)), 2,
                 id="classify-n-too-large-to-factor"),
    pytest.param(lambda mp, tp: ("verify", "-d", "2", "-n", str(10**18 + 3)), 2,
                 id="verify-n-too-large-to-factor"),
    pytest.param(lambda mp, tp: ("scan", "--d-min", "2", "--d-max", "3", "--n-max", "3",
                                 "--jobs", "0", "--out", str(tp / "x.csv")), 2, id="scan-jobs-0"),
    # a window of two n past 10^14: refused before a sieve to 2^30 is allocated
    pytest.param(lambda mp, tp: ("scan", "--d-min", "2", "--d-max", "3", "--n-min", str(2**60),
                                 "--n-max", str(2**60 + 1), "--out", str(tp / "x.csv")), 2,
                 id="scan-n-window-too-large-to-sieve"),
    # a window wider than arith.WINDOW_WIDTH_MAX: refused before its plan is allocated
    pytest.param(lambda mp, tp: ("scan", "--d-min", "2", "--d-max", "3", "--n-max", str(10**9),
                                 "--out", str(tp / "x.csv")), 2, id="scan-n-window-too-wide"),
    pytest.param(_resume_csv_as_jsonl, 2, id="resume-csv-scan-as-jsonl"),
    # out of memory exits 2 with a message, not a traceback
    pytest.param(_scan_out_of_memory, 2, id="scan-out-of-memory"),
])
def test_exit_codes_through_main(capsys, monkeypatch, tmp_path, make_argv, rc):
    argv = make_argv(monkeypatch, tmp_path)
    capsys.readouterr()
    got, out, err = run_cli(capsys, *argv)
    assert got == rc and out == "" and err.startswith("error: "), (got, out, err)


def test_scan_killed_mid_window_resumes_to_the_uninterrupted_bytes(capsys, tmp_path):
    # a --jobs 2 scan in its own session, SIGKILLed with its forked workers once its checkpoint
    # records rows (polled, not timed), then resumed to the end: the bytes and the report of
    # the same window scanned without a stop
    window = ("scan", "--d-min", "-400", "--d-max", "400", "--n-max", "300", "--jobs", "2")
    full, part = tmp_path / "full.csv", tmp_path / "part.csv"
    assert run_cli(capsys, *window, "--out", str(full))[0] == 0
    ck = atlas.checkpoint_path(str(part))
    proc = subprocess.Popen([sys.executable, "-m", "quadorders.cli", *window, "--out", str(part)],
                            stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        while proc.poll() is None and not (os.path.exists(ck) and atlas.read_checkpoint(ck).rows):
            time.sleep(0.001)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    rows = atlas.read_checkpoint(ck).rows
    assert 0 < rows < len(full.read_bytes().splitlines()) - 1
    assert run_cli(capsys, *window, "--resume", "--out", str(part))[0] == 0
    assert hashlib.sha256(part.read_bytes()).digest() == hashlib.sha256(full.read_bytes()).digest()
    assert run_cli(capsys, "report", str(part)) == run_cli(capsys, "report", str(full))


# a scan whose worker SIGKILLs itself at d = 14, as the OOM killer would; the script
# replaces _scan_one_d before the scan forks, so the workers inherit the stand-in
_DYING_WORKER = """
import os, signal, sys
from quadorders import atlas, cli
real = atlas._scan_one_d

def dying(d, *args):
    if d == 14:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(d, *args)

atlas._scan_one_d = dying
sys.exit(cli.main(sys.argv[1:]))
"""


def test_scan_with_a_killed_worker_fails_and_resumes(capsys, tmp_path):
    # the parent names the dead worker and its wait status and exits 1, where it once waited
    # without end (the timeout stops a hang here, not the suite); the checkpoint stays on
    # the last whole task, and a resume gives the bytes of a scan without a stop
    window = ("scan", "--d-min", "2", "--d-max", "60", "--n-max", "40", "--jobs", "2")
    full, part = tmp_path / "full.csv", tmp_path / "part.csv"
    assert run_cli(capsys, *window, "--out", str(full))[0] == 0
    proc = subprocess.run([sys.executable, "-c", _DYING_WORKER, *window, "--out", str(part)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert re.fullmatch(r"error: scan worker 1 \(pid \d+\) ended before task 1: "
                        r"wait status 9 \(killed by SIGKILL\)\n", proc.stderr), proc.stderr
    # tasks of five d: the first, 2 to 7, is written; the second holds d = 14
    lines = full.read_bytes().splitlines(keepends=True)
    assert atlas.read_checkpoint(atlas.checkpoint_path(str(part))) == atlas.Checkpoint(
        7, 5 * 39, sum(line.endswith(b",1\n") for line in lines[1 : 1 + 5 * 39]))
    assert part.read_bytes() == b"".join(lines[: 1 + 5 * 39])
    assert run_cli(capsys, *window, "--resume", "--out", str(part))[0] == 0
    assert part.read_bytes() == full.read_bytes()


# a --jobs 2 scan in a session of its own: worker 0, at d = 17, the first d of task 2,
# waits until the checkpoint records tasks 0 and 1, and then SIGKILLs the whole session,
# the parent waiting for task 2 and worker 1, whose spool holds rows
_KILLED_SCAN = """
import os, signal, sys, time
from quadorders import atlas, cli
real, ck = atlas._scan_one_d, atlas.checkpoint_path(sys.argv[-1])

def killing(d, *args):
    deadline = time.monotonic() + 30
    while d == 17 and time.monotonic() < deadline:
        if os.path.exists(ck) and atlas.read_checkpoint(ck).rows == 10 * 39:
            os.killpg(0, signal.SIGKILL)
        time.sleep(0.01)
    return real(d, *args)

atlas._scan_one_d = killing
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_scan_leaves_only_its_output_and_checkpoint(capsys, monkeypatch, tmp_path):
    # a worker's spool is unlinked from the start: after a finished, a failed (by a worker's
    # exception) and a SIGKILLed --jobs 2 scan, each in a directory of its own, the directory
    # holds the output and its checkpoint alone, the checkpoint after the last whole task
    window = ("scan", "--d-min", "2", "--d-max", "60", "--n-max", "40", "--jobs", "2")
    outs = {name: tmp_path / name / "grid.csv" for name in ("finished", "failed", "killed")}
    for out in outs.values():
        out.parent.mkdir()
    assert run_cli(capsys, *window, "--out", str(outs["finished"]))[0] == 0
    killed = [sys.executable, "-c", _KILLED_SCAN, *window, "--out", str(outs["killed"])]
    proc = subprocess.run(killed, capture_output=True, start_new_session=True, timeout=60)
    assert proc.returncode == -signal.SIGKILL
    real = atlas.make_field

    def make_field(d):  # d = 14 is in task 1, worker 1's first
        if d == 14:
            raise RuntimeError("stopped at d = 14")
        return real(d)

    monkeypatch.setattr(atlas, "make_field", make_field)
    rc, _, err = run_cli(capsys, *window, "--out", str(outs["failed"]))
    assert rc == 1 and err == "error: stopped at d = 14\n"
    for name, rows in (("finished", 36 * 39), ("failed", 5 * 39), ("killed", 10 * 39)):
        assert sorted(os.listdir(outs[name].parent)) == ["grid.csv", "grid.csv.checkpoint"], name
        assert atlas.read_checkpoint(atlas.checkpoint_path(str(outs[name]))).rows == rows, name


def test_refused_n_window_leaves_a_finished_scan_as_it_was(capsys, tmp_path):
    # the window is refused before --out is opened for writing or its checkpoint removed,
    # whatever the d range: with a squarefree d in it or none, no --out is created either;
    # so is a d window wider than arith.WINDOW_WIDTH_MAX, before its d are listed
    out = tmp_path / "keep.csv"
    ck = tmp_path / "keep.csv.checkpoint"
    assert run_cli(capsys, "scan", "--d-min", "2", "--d-max", "5", "--out", str(out),
                   "--n-max", "5")[0] == 0
    before = out.read_bytes(), ck.read_bytes()
    assert len(before[0]) == 347
    n_window = ("--n-min", str(2**60), "--n-max", str(2**60 + 1))
    wide_d = ("--d-min", "2", "--d-max", str(2 + WINDOW_WIDTH_MAX), "--n-max", "5")
    for window, refusal in [(("--d-min", "2", "--d-max", "5", *n_window), "too large to sieve"),
                            (("--d-min", "4", "--d-max", "4", *n_window), "too large to sieve"),
                            (("--d-min", "8", "--d-max", "9", *n_window), "too large to sieve"),
                            (wide_d, f"d window [2, {2 + WINDOW_WIDTH_MAX}] is too large to scan")]:
        for path in (out, tmp_path / "new.csv"):
            rc, _, err = run_cli(capsys, "scan", *window, "--out", str(path))
            assert rc == 2 and refusal in err, window
        assert (out.read_bytes(), ck.read_bytes()) == before
        assert not (tmp_path / "new.csv").exists()
        assert not os.path.exists(atlas.checkpoint_path(str(tmp_path / "new.csv")))
