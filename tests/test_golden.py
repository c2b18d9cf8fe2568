"""Golden output: pinned scan windows must stay byte-identical.

Each entry of WINDOWS is one `quadorders scan` through the CLI in a subprocess,
pinned by the line count, sha256 and `report` hfd_total of the file it writes;
adding a window is adding one entry. Any change to a digest is a change of
output and needs a documented reason.

Heavy entries, the checks derived from the golden window and the census of the
oracles' verdicts run only when QUADORDERS_CENSUS=1 is set. `QUADORDERS_CENSUS=1 python -m pytest -q
tests/test_golden.py` runs them all; `-k paper` selects the paper's census
window (a 212 MB file), `-k "not paper"` the rest.
"""

import hashlib
import os
import subprocess
import sys
from typing import NamedTuple

import pytest

from quadorders.arith import is_squarefree
from quadorders.cli import main
from quadorders.oracle import oracle_verdicts
from quadorders.pell import fundamental_unit
from quadorders.quadfield import make_field

OPT_IN = pytest.mark.skipif(os.environ.get("QUADORDERS_CENSUS") != "1",
                            reason="heavy: set QUADORDERS_CENSUS=1")
# seconds for one CLI run, so that a hang fails one entry with its argv; the slowest, the
# paper window, takes about 15 s on two cores, and verified-200 about 5 s
TIMEOUT = 120

GOLDEN = "--d-min -199 --d-max 199 --n-min 1 --n-max 2000"
GOLDEN_FIRST = "--d-min -199 --d-max 0 --n-min 1 --n-max 2000"
GOLDEN_CSV = "b4ed56f1145494aad886903fca6be6d1033de25b05638163664ef592c82946bc"
GOLDEN_JSONL = "2cd6c0f799ff2d4dbab78bc2d74f2b217a2e48856d6282c6e86a06904fc86a78"
SWEEP = "--d-min -3000 --d-max 3000 --n-max 40 --format jsonl --jobs 2"
SWEEP_DIGEST = "80e74c9d032ba74b0f8a84334f6618d4c79804aed8a3e3af3aae762c7e171f44"
VERIFIED_60 = "36410fae735fb5e15bb137aff527f17865cf9749474bd749bcaf587f2f3a3927"
VERIFIED_200 = "df23193e1f9bf81a621ead8c35ed7b783f60d866ca8324d74873bb861e6b34ff"
FIELD_2 = "3ae7f14f5c4000d13a0f9037ac0a5bbc4e1d5e166cbd43d5843c4aa7782a9a5f"
FIELD_94 = "896c13e7b307d9003e407df5b2a06e9a4cc6cfec5529645e46ecd50a9538afc8"


class Window(NamedTuple):
    scan: str  # the scan's options, without --out
    rows: int  # lines in the file, the CSV header included
    digest: str
    hfd: int
    first: str = ""  # a first part, scanned in-process, that `scan` then --resumes
    flags: str = ""  # interpreter flags
    heavy: bool = False


# A scan with and without --verify writes the same rows, so both carry one digest.
WINDOWS = {
    # recorded before the field arithmetic was consolidated
    "golden-300-csv": Window("--d-min -199 --d-max 199 --n-min 1 --n-max 300", 72_901,
                             "7cd6ee5c7926a095618498bd2e5a0ca3c0270151746ed7c1a9770918ebed6c8d",
                             497),
    "golden-300-jsonl": Window("--d-min -199 --d-max 199 --n-min 1 --n-max 300 --format jsonl",
                               72_900,
                               "5987e6bdf4679e37afdd31c0037fb2517e4e16fdcaf23139c9d271adf338eaaf",
                               497),
    # the ROADMAP golden window on two forked workers; it reaches prime powers up to 2,000
    "golden-csv": Window(f"{GOLDEN} --jobs 2", 486_001, GOLDEN_CSV, 2065, heavy=True),
    # three workers, whose stripes of tasks (k, k + 3, ...) differ in length; from Python
    # 3.12 on, os.fork warns (DeprecationWarning) in a process with threads, so this run
    # fails if the parent has one when it forks
    "golden-csv-jobs-3": Window(f"{GOLDEN} --jobs 3", 486_001, GOLDEN_CSV, 2065,
                                flags="-W error::DeprecationWarning", heavy=True),
    # the resume pass reads the first part back and appends the rest
    "golden-csv-resumed": Window(f"{GOLDEN} --jobs 2", 486_001, GOLDEN_CSV, 2065,
                                 first=GOLDEN_FIRST, heavy=True),
    # JSONL rows render on a path of their own
    "golden-jsonl": Window(f"{GOLDEN} --format jsonl --jobs 2", 486_000, GOLDEN_JSONL, 2065,
                           heavy=True),
    "golden-jsonl-resumed": Window(f"{GOLDEN} --format jsonl --jobs 2", 486_000, GOLDEN_JSONL,
                                   2065, first=f"{GOLDEN_FIRST} --format jsonl", heavy=True),
    # past n = 1: each composite n has a cofactor of at most n/2 <= 700, below the
    # window, folded from its factorization in both forked workers
    "golden-997": Window("--d-min -60 --d-max 60 --n-min 997 --n-max 1400 --jobs 2", 29_493,
                         "13dad40e0562b44306916cf955d7d6fa12a3f4397925a19f0aa4a94e5e4dc651", 113),
    # every cell checked by the three brute oracles, on forked workers and in-process
    "verified-60": Window("--d-min -60 --d-max 60 --n-min 1 --n-max 60 --verify --jobs 2",
                          4_381, VERIFIED_60, 61, heavy=True),
    "verified-60-jobs-1": Window("--d-min -60 --d-max 60 --n-min 1 --n-max 60 --verify --jobs 1",
                                 4_381, VERIFIED_60, 61, heavy=True),
    # n reaches the oracles' default bound of 200, so the local associativity and
    # associativity oracles run at every modulus they accept
    "verified-200": Window("--d-min -30 --d-max 30 --n-min 1 --n-max 200 --verify --jobs 2",
                           7_401, VERIFIED_200, 84, heavy=True),
    "unverified-200": Window("--d-min -30 --d-max 30 --n-min 1 --n-max 200 --jobs 2", 7_401,
                             VERIFIED_200, 84),
    # every 13-smooth n <= 10^4 in reach of the ideal-preservation oracle, where the P^2
    # tests of each p run before any pair test; recorded while the oracle still scanned
    # the inert and two-prime tests
    "verified-2": Window("--d-min 2 --d-max 2 --n-min 1 --n-max 10000 --verify", 10_001,
                         FIELD_2, 236, heavy=True),
    "unverified-2": Window("--d-min 2 --d-max 2 --n-min 1 --n-max 10000", 10_001, FIELD_2, 236),
    "verified-94": Window("--d-min 94 --d-max 94 --n-min 1 --n-max 10000 --verify", 10_001,
                          FIELD_94, 0, heavy=True),
    "unverified-94": Window("--d-min 94 --d-max 94 --n-min 1 --n-max 10000", 10_001, FIELD_94, 0),
    # m(p^a) for every prime power up to 10^4 in large real fields; recorded before the
    # torus V ladder and the p-th powers at ramified p
    "census-900": Window("--d-min 900 --d-max 999 --n-min 2 --n-max 10000 --jobs 2", 609_940,
                         "e192a027844595230499af8822e67983eaf04ab78f51c992dc5b1b44d519d28a", 2290,
                         heavy=True),
    # m(p^a) of the torsion generators: i and the sixth root of unity at d = -1, -3, and
    # -1 elsewhere; recorded while m(p^a) was lifted from m(p)
    "census-imag": Window("--d-min -99 --d-max -1 --n-min 2 --n-max 10000 --jobs 2", 609_940,
                          "23e4d995e9f73e096baa59162ddbe04c06f45bb95c565a83179438b038ec1687", 1,
                          heavy=True),
    # class numbers up to |D| = 64,000 from reduced forms; recorded from the a-by-b box
    # enumeration that the divisor-pair one replaced
    "classnums": Window("--d-min -16000 --d-max 16000 --n-min 1 --n-max 2 --jobs 2", 38_911,
                        "346be89a774d1254ab58382fee183989680c7b05c630e8fc3ca264d1901beb6e", 910,
                        heavy=True),
    # the sweep's shape, 3,647 squarefree |d| <= 3000 sent in tasks of consecutive d, then
    # resumed by tasks that start past the first part's last d; recorded when every d was
    # its own task
    "sweep": Window(SWEEP, 142_233, SWEEP_DIGEST, 1129, heavy=True),
    "sweep-resumed": Window(SWEEP, 142_233, SWEEP_DIGEST, 1129,
                            first="--d-min -3000 --d-max 0 --n-max 40 --format jsonl", heavy=True),
    # a field a million n wide, rendered and written in segments; recorded while a field's
    # rows were one block (a scan peaking at 328 MB)
    "field-7-wide": Window("--d-min 7 --d-max 7 --n-max 1000000", 1_000_000,
                           "b39a45166efc2490e2f3e1858cd49b45632ff993fac80db20418709e1adc7f8b", 0,
                           heavy=True),
    # fields of 200,000 n on forked workers, spooled in segments; recorded while a
    # task came back as one block and the parent held every block read before its turn
    "wide-jobs-2": Window("--d-min 2 --d-max 7 --n-max 200000 --jobs 2", 999_996,
                          "500320551d6b7b8ebc4dfccb0eea55574605e3db115d428bd8496235dc4dfdc6",
                          8_080, heavy=True),
    # the paper's census window, squarefree 1 < d < 1000 at 1 < n <= 10^4; recorded
    # before m(p^a) was lifted from m(p)
    "paper-window": Window("--d-min 2 --d-max 999 --n-min 2 --n-max 10000 --jobs 2", 6_069_394,
                           "6858ae0364a3affaca2db3d32b110258c629c288af6254965ac5345ca715abd2",
                           28_930, heavy=True),
}


def cli(*argv, flags="", timeout=TIMEOUT):
    return subprocess.run([sys.executable, *flags.split(), "-m", "quadorders.cli", *argv],
                          capture_output=True, text=True, timeout=timeout)


def _lines_and_digest(path):
    h, lines = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
            lines += block.count(b"\n")
    return lines, h.hexdigest()


def _clear(directory):
    # pytest keeps its last base temp directories, which would otherwise hold every
    # window, the paper's 212 MB among them, three times
    for path in directory.iterdir():
        path.unlink()


@pytest.mark.parametrize("name", [pytest.param(name, marks=OPT_IN if w.heavy else ())
                                  for name, w in WINDOWS.items()])
def test_pinned_window(tmp_path, capsys, name):
    w = WINDOWS[name]
    out = str(tmp_path / "window")
    try:
        if w.first:
            assert main(["scan", *w.first.split(), "--out", out]) == 0
            capsys.readouterr()
        resume = ("--resume",) if w.first else ()
        proc = cli("scan", *w.scan.split(), *resume, "--out", out, flags=w.flags)
        assert proc.returncode == 0, proc.stderr
        assert _lines_and_digest(out) == (w.rows, w.digest)
        assert main(["report", out]) == 0
        assert f"hfd_total={w.hfd}" in capsys.readouterr().out.splitlines()
    finally:
        _clear(tmp_path)


# a scan through the CLI in a child interpreter that, as it exits, writes to stderr its own
# peak RSS and the largest of its forked workers' (0 with none), in KiB
_PEAK_RSS = """
import resource, sys
from quadorders.arith import is_squarefree
from quadorders.cli import main
from quadorders.oracle import oracle_verdicts
from quadorders.pell import fundamental_unit
from quadorders.quadfield import make_field
rc = main(sys.argv[1:])
peaks = (resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
print(*peaks, file=sys.stderr)
sys.exit(rc)
"""


@OPT_IN
@pytest.mark.parametrize("name,bound_mb", [("field-7-wide", 100), ("wide-jobs-2", 50)])
def test_scan_memory_is_bounded(tmp_path, name, bound_mb):
    # a field is rendered in segments over half-width cofactor columns, and the parent copies
    # each task out of its worker's spool a block at a time: the scan and each of its workers
    # stay under the bound (328 MB at d = 7, and 59 and 107 MB on two workers, before)
    out = str(tmp_path / "window")
    try:
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, "scan", *WINDOWS[name].scan.split(),
                               "--out", out], capture_output=True, text=True, timeout=TIMEOUT)
        assert proc.returncode == 0, proc.stderr
        scan_kib, worker_kib = map(int, proc.stderr.split())
        assert max(scan_kib, worker_kib) <= bound_mb * 1024, (scan_kib, worker_kib)
    finally:
        _clear(tmp_path)


@OPT_IN
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_corrupt_byte_is_refused_by_report_and_resume(tmp_path, fmt):
    # one byte of a middle row made 'x': report and a resume over the whole window read
    # the checkpointed rows through one reader, so both refuse the file (rc 1) with the
    # same message, naming the line that holds the byte
    out = tmp_path / f"golden.{fmt}"
    scan = ("scan", *GOLDEN.split(), "--format", fmt, "--jobs", "2", "--out", str(out))
    try:
        assert cli(*scan).returncode == 0
        data = bytearray(out.read_bytes())
        pos = len(data) // 2
        data[pos] = ord("x")
        out.write_bytes(data)
        line = data.count(b"\n", 0, pos) + 1
        report, resume = cli("report", str(out)), cli(*scan, "--resume")
        assert (report.returncode, resume.returncode) == (1, 1)
        assert report.stderr.startswith(f"error: line {line}: "), report.stderr
        assert resume.stderr == report.stderr
    finally:
        _clear(tmp_path)


@pytest.fixture(scope="module")
def golden_jsonl(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "golden.jsonl"
    proc = cli("scan", *GOLDEN.split(), "--format", "jsonl", "--jobs", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    yield out.read_text().splitlines()
    _clear(out.parent)


@OPT_IN
@pytest.mark.parametrize("d,n", [(-199, 1), (-199, 2000), (2, 5), (94, 1999), (199, 1024), (-3, 2)])
def test_single_cell_is_one_line_of_the_jsonl_window(golden_jsonl, d, n):
    # classify --json takes the scan kernel's window of its one n
    proc = cli("classify", "--json", "-d", str(d), "-n", str(n))
    assert golden_jsonl.count(proc.stdout.rstrip("\n")) == 1, proc


@OPT_IN
@pytest.mark.parametrize("command", ["classify", "verify"])
def test_n_too_large_to_factor_is_refused_in_time(command):
    # a prime n = 10^18 + 3: factorize stops trial division at 10^7, so both refuse it in
    # about a second; test_cli.py pins the exit code and message in-process, where a hang
    # would stop the suite instead of failing one test
    assert cli(command, "-d", "2", "-n", str(10**18 + 3), timeout=20).returncode == 2


@OPT_IN
def test_oracle_verdict_census():
    # oracle_verdicts on each of the 36,600 cells of squarefree |d| <= 150, n = 1..200, one
    # line "d,n,<la><ip><assoc>" a cell, each T, F or N (None: n = 1 or past a bound); the
    # oracles witness the closed forms, so a rewrite of them must move no verdict.  Pinned
    # while ideal preservation still scanned O_K/(p^2) for a witness
    words = {True: "T", False: "F", None: "N"}
    lines = []
    for d in range(-150, 151):
        if d in (0, 1) or not is_squarefree(d):
            continue
        F = make_field(d)
        U = fundamental_unit(F)
        for n in range(1, 201):
            verdicts = oracle_verdicts(F, U, n).values()
            lines.append(f"{d},{n},{''.join(words[v] for v in verdicts)}\n")
    assert len(lines) == 36_600
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "9c1efe97600fa8258dc360f9dc3f038279584cf3a493ccb95de143fb07ff2850"
