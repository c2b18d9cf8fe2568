"""One stretch of the measured closed loop, in a fresh interpreter.

    python3 perfbench/loop.py < spec.json

The spec names the checkout root, the workload, the blocks in the order to
visit them, the reference seconds to run for, the least number of operations
and a scratch directory.  Each operation is `scan` + `report_hfd` on one
block; its output is checked and its CPU time converted to reference seconds
with the kernel samples taken during it (calib.py).  Prints one JSON object.

Exits 3 without a result if an operation changed interpreter state that the
calibration kernel's speed depends on, and 2 if quadorders cannot be
imported from the checkout.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from calib import Sampler, cpu_time  # noqa: E402
from checks import check_scan  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WALL_CAP_S = 25.0  # a stretch ends here whatever the machine's speed


def interpreter_state() -> tuple:
    """Process-global settings that would change the kernel's speed along with the program's."""
    return (gc.isenabled(), gc.get_threshold(), sys.getswitchinterval(), sys.get_int_max_str_digits())


def measure(qo, w, blocks, seconds, min_ops, expected, ref_kernel_s, out) -> dict:
    state = interpreter_state()
    ops = []
    failures = []
    ref_total = 0.0
    start = time.perf_counter()
    with Sampler(worker_dir=os.path.dirname(out)) as sampler:
        while (ref_total < seconds or len(ops) < min_ops) and time.perf_counter() - start < WALL_CAP_S:
            block = blocks[len(ops) % len(blocks)]
            cfg = qo.ScanConfig(**w.config(block, out))
            c0 = cpu_time()
            t0 = time.perf_counter()
            try:
                summary = qo.scan(cfg)
                report = qo.report_hfd(out)
                t1, cpu = time.perf_counter(), cpu_time() - c0
                problems = check_scan(w, block, out, expected, summary, report)
            except Exception as exc:  # a failed operation is counted, not fatal
                t1, cpu = time.perf_counter(), cpu_time() - c0
                problems = [f"{type(exc).__name__}: {exc}"]
            if interpreter_state() != state:
                print(f"operation on {block} changed interpreter state: {state} -> {interpreter_state()}", file=sys.stderr)
                sys.exit(3)
            sampler.collect_workers()
            # CPU seconds of this process and its pool workers, shared by `jobs` cores
            work, ref = (x / w.jobs for x in sampler.ref_seconds(t0, t1, cpu, ref_kernel_s))
            ref_total += ref
            ops.append({"block": block, "cells": w.cells(block), "work_s": work, "ref_s": ref, "ok": not problems})
            failures.extend(f"{block}: {p}" for p in problems)
    return {
        "ops": ops,
        "failures": failures,
        "kernel_s_sum": sum(k for _, k in sampler.samples),
        "kernel_samples": len(sampler.samples),
    }


def main() -> None:
    spec = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    try:
        import quadorders
    except ImportError as exc:
        print(f"cannot import quadorders: {exc}", file=sys.stderr)
        sys.exit(2)
    reference = json.loads((BENCH / "reference.json").read_text())
    w = WORKLOADS[spec["workload"]]
    result = measure(
        quadorders,
        w,
        [tuple(b) for b in spec["blocks"]],
        spec["seconds"],
        spec["min_ops"],
        reference["digests"][w.name],
        reference["kernel_s"],
        os.path.join(spec["scratch"], "scan.out"),
    )
    result["quadorders_file"] = quadorders.__file__
    print(json.dumps(result))


if __name__ == "__main__":
    main()
