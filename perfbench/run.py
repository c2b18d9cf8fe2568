"""Drift-corrected benchmark of the quadorders census scanner.

    python3 perfbench/run.py --workload census --seed 0 --seconds 15 --trace 0

Runs one workload (see workloads.py) as a closed loop for --seconds reference
seconds and checks every operation's output against the recorded digests.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer ones from a traced replay; every metric is printed as
`name value unit`, and the last line is one JSON object with the keys
correct, attempted, failed and metrics.  Times and rates are at reference
machine speed; see calib.py and README.md.

The measured loop (loop.py), the set-up probes (setup_probe.py) and the
replays (replay.py) each run in fresh interpreters started from here.  Exits
non-zero without a result when the program cannot be imported from this
checkout's src/, or when an operation changes interpreter state that the
calibration kernel depends on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 25
LOOP_PROCESSES = 4
MIN_OPS = 3
SUBPROCESS_TIMEOUT_S = 100.0
CENSUS_CELLS = sum(WORKLOADS["census"].cells(b) for b in WORKLOADS["census"].blocks)


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def check_origin(path: str) -> None:
    src = (ROOT / "src").resolve()
    if not Path(path).resolve().is_relative_to(src):
        raise BenchError(f"quadorders was imported from {path}, not from {src}")


def code_identity() -> dict:
    """The commit when the checkout is a git work tree, and a hash of the program's sources."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT.resolve():
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "src_sha256": h.hexdigest()}


def measure(w, order, seconds, min_ops, tmp, setup_probe: list[str] | None) -> dict:
    """The closed loop, in LOOP_PROCESSES fresh interpreters one after another.

    Each interpreter runs seconds / LOOP_PROCESSES reference seconds and
    carries on where the previous one stopped.  Spreading a run over several
    processes averages out the few-percent speed offset that each process
    gets.  With a setup_probe command, SETUP_PROBES set-ups run before, between
    and after the stretches, so they too see the machine in several states.
    """
    ops, failures, setups = [], [], []
    kernel_s = samples = 0
    if setup_probe:
        run_child(setup_probe)  # fills the bytecode cache, as any first run would
    for i in range(LOOP_PROCESSES + 1):
        if setup_probe:
            setups += [run_child(setup_probe)["ref_s"] for _ in range(SETUP_PROBES // (LOOP_PROCESSES + 1))]
        if i == LOOP_PROCESSES:
            break
        start = len(ops) % len(order)
        spec = {
            "root": str(ROOT),
            "workload": w.name,
            "blocks": order[start:] + order[:start],
            "seconds": seconds / LOOP_PROCESSES,
            "min_ops": min_ops if i == 0 else 1,
            "scratch": tmp,
        }
        r = run_child([str(BENCH / "loop.py")], json.dumps(spec))
        ops += r["ops"]
        failures += r["failures"]
        kernel_s += r["kernel_s_sum"]
        samples += r["kernel_samples"]
    good = [op for op in ops if op["ok"]]
    cells = sum(op["cells"] for op in good)
    return {
        "ops": ops,
        "failures": failures,
        "cells_per_s": cells / sum(op["ref_s"] for op in good) if good else 0.0,
        "raw_cells_per_s": cells / sum(op["work_s"] for op in good) if good else 0.0,
        "kernel_ms": 1e3 * kernel_s / samples if samples else 0.0,
        "setup_s": statistics.median(setups) if setups else None,
    }


def run_child(args: list[str], stdin: str | None = None) -> dict:
    proc = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check_origin(result["quadorders_file"])
    return result


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or of any process it started and waited for.

    The loop interpreters dominate; for sweep, their fork-pool workers count too.
    """
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024


def per_layer(w, loop, counted, traced) -> dict[str, tuple[float, str]]:
    sec = traced["seconds"]
    cells, fields = traced["cells"], traced["fields"]
    cold_fields = traced["calls"].get("pell.fundamental_unit", 0)

    def us(span, per):
        return 1e6 * sec.get(span, 0.0) / per if per else 0.0

    m: dict[str, tuple[float, str]] = {
        "pell.fundamental_unit_us_per_field": (us("pell.fundamental_unit", cold_fields), "us"),
        "classgroup.class_number_us_per_field": (us("classgroup.class_number", cold_fields), "us"),
        "unitindex.min_power_us_per_cell": (us("unitindex.min_power", cells), "us"),
        "lfun.l_value_us_per_cell": (us("lfun.l_value", cells), "us"),
        "classify.is_ideal_preserving_us_per_cell": (us("classify.is_ideal_preserving", cells), "us"),
        "classify.classify_order_us_per_cell": (us("classify.classify_order", cells), "us"),
        "classify.self_us_per_cell": (us("classify.self", cells), "us"),
    }
    for name, (checked, skipped) in traced["oracle"].items():
        m[f"oracle.{name}_us_per_checked_cell"] = (us("oracle." + name, checked), "us")
        m[f"oracle.{name}_checked_frac"] = (checked / (checked + skipped) if checked + skipped else 0.0, "ratio")
        m[f"oracle.{name}_checked"] = (checked, "count")
        m[f"oracle.{name}_skipped"] = (skipped, "count")
    m["atlas.render_csv_us_per_row"] = (us("atlas.render_csv", cells), "us")
    m["atlas.render_jsonl_us_per_row"] = (us("atlas.render_jsonl", cells), "us")
    m["atlas.report_us_per_row"] = (us("atlas.report", cells), "us")

    # Reference time of the same blocks' scans in the measured loop, minus the
    # cell, render and read-back work the replay timed; at jobs > 1 that work
    # is shared by the workers.  What is left is write + checkpoint (+ IPC).
    scan_ref_s = {}
    for op in loop["ops"]:
        scan_ref_s.setdefault(tuple(op["block"]), op["ref_s"])
    overhead = 0.0
    for t in traced["per_op"]:
        overhead += scan_ref_s[tuple(t["block"])] - t["report_ref_s"] - t["work_ref_s"] / w.jobs
    m["atlas.scan_overhead_us_per_d"] = (1e6 * overhead / fields if fields else 0.0, "us")
    m["atlas.ipc_bytes_per_d"] = (traced["ipc_bytes"] / fields if fields else 0.0, "bytes")

    work = sum(t["work_ref_s"] for t in traced["per_op"])
    setup = sum(sec.get(k, 0.0) for k in ("quadfield.make_field", "pell.fundamental_unit", "classgroup.class_number"))
    classify = sum(sec.get(k, 0.0) for k in ("classify.OrderSpec", "unitindex.min_power", "lfun.l_value", "classify.is_ideal_preserving", "classify.self"))
    render = sec.get("atlas.render_" + w.fmt, 0.0)
    oracles = sum(v for k, v in sec.items() if k.startswith("oracle."))
    for name, part in (("field_setup", setup), ("classify", classify), ("render", render), ("oracle", oracles)):
        m[f"split.{name}_frac"] = (part / work if work else 0.0, "ratio")

    c = counted["counts"]
    for key, label in (
        ("unitindex.min_power_prime_power", "unitindex.prime_power"),
        ("arith.is_prime", "arith.is_prime"),
        ("quadfield.make_field", "quadfield.make_field"),
    ):
        hits, misses = c[key + "_cache_hits"], c[key + "_cache_misses"]
        m[label + "_cache_hit_frac"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    for key, value in sorted(c.items()):
        if key.endswith(("_cache_hits", "_cache_misses")):
            m[key] = (value, "count")
    ops = counted["ops"]
    for key in ("cells", "fields", "checkpoints"):
        m[f"atlas.{key}_per_op"] = (c[key] / ops, "count")

    traced_cps = cells / sum(t["ref_s"] for t in traced["per_op"])
    m["bench.raw_cells_per_s"] = (loop["raw_cells_per_s"], "1/s")
    m["bench.cal_ms"] = (loop["kernel_ms"], "ms")
    m["bench.trace_overhead_frac"] = (loop["cells_per_s"] / traced_cps - 1, "ratio")
    census = CENSUS_CELLS / loop["cells_per_s"] if w.name == "census" and loop["cells_per_s"] else 0.0
    m["bench.full_census_est_s"] = (census, "s")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description="Drift-corrected quadorders benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        w = WORKLOADS[args.workload]
        order = w.ops(args.seed)
        tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            probe = [str(BENCH / "setup_probe.py"), str(ROOT), w.name, str(args.seed)]
            min_ops = w.traced_ops if args.trace else MIN_OPS
            loop = measure(w, order, args.seconds, min_ops, tmp, None if args.trace else probe)
            failed = len([op for op in loop["ops"] if not op["ok"]])
            attempted = len(loop["ops"])
            failures = list(loop["failures"])
            if args.trace:
                spec = {"root": str(ROOT), "workload": w.name, "blocks": order[: w.traced_ops], "scratch": tmp}
                counted = run_child([str(BENCH / "replay.py")], json.dumps({**spec, "mode": "count"}))
                traced = run_child([str(BENCH / "replay.py")], json.dumps({**spec, "mode": "trace"}))
                for r in (counted, traced):
                    attempted += r["ops"]
                    failed += len(r["failures"])
                    failures += [f"{b}: {p}" for b, ps in r["failures"].items() for p in ps]
                metrics = per_layer(w, loop, counted, traced)
            else:
                metrics = {
                    "cells_per_s": (loop["cells_per_s"], "1/s"),
                    "setup_s": (loop["setup_s"], "s"),
                    "peak_rss_mb": (peak_rss_mb(), "MB"),
                }
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    for f in failures[:20]:
        print("FAILED", f)
    info = {
        "workload": w.name,
        "seed": args.seed,
        "ops": len(loop["ops"]),
        "raw_cells_per_s": loop["raw_cells_per_s"],
        "kernel_ms": loop["kernel_ms"],
        **code_identity(),
    }
    print("info", json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
