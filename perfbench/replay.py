"""Replay a workload's operations in a fresh interpreter, for per-layer numbers.

    python3 perfbench/replay.py < spec.json

The spec names the checkout root, the workload, the blocks to replay, a
scratch directory and the mode:

  count  runs each block through `scan` (one process) and reports the exact
         counts: lru-cache hits and misses of the program's public cached
         functions, rows, fields and checkpoints.  No timing.
  trace  replays each block cell by cell through the public functions of
         each layer, timing every call, renders the rows, writes the same
         file the scanner writes and times `report_hfd` on it.

Both modes compare every block's output with the digest recorded in
reference.json.  Each runs in its own fresh interpreter, so every cache starts
cold, as it does in a scan.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from calib import Sampler, cpu_time  # noqa: E402
from checks import check_output, check_scan  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ORACLES = ("brute_locally_associated", "brute_associated", "brute_ideal_preserving")
# (module, function) of the program's public lru-cached functions.
CACHES = (
    ("arith", "is_prime"),
    ("arith", "is_squarefree"),
    ("quadfield", "make_field"),
    ("pell", "fundamental_unit"),
    ("classgroup", "class_number"),
    ("unitindex", "min_power_prime_power"),
)


def cache_counts(qo) -> dict[str, int]:
    out = {}
    for module, fn in CACHES:
        info = getattr(getattr(qo, module), fn).cache_info()
        out[f"{module}.{fn}_cache_hits"] = info.hits
        out[f"{module}.{fn}_cache_misses"] = info.misses
    return out


def count(qo, w, blocks, expected, scratch) -> dict:
    """Scan each block in this process and count what the caches and the scanner did."""
    out = os.path.join(scratch, "count.out")
    totals: dict[str, int] = {}
    failures: dict[str, list[str]] = {}
    for block in blocks:
        cfg = qo.ScanConfig(**{**w.config(block, out), "jobs": 1})
        before = cache_counts(qo)
        try:
            summary = qo.scan(cfg)
            report = qo.report_hfd(out)
        except Exception as exc:  # one failed operation must not hide the others
            failures[str(block)] = [f"{type(exc).__name__}: {exc}"]
            continue
        after = cache_counts(qo)
        fields = w.fields(block)
        problems = check_scan(w, block, out, expected, summary, report)
        if problems:
            failures[str(block)] = problems
        step = {k: after[k] - before[k] for k in after}
        step.update(cells=summary.records, fields=len(fields), checkpoints=len(fields))
        for k, v in step.items():
            totals[k] = totals.get(k, 0) + v
    return {"counts": totals, "ops": len(blocks), "failures": failures}


class Spans:
    """Summed wall seconds and call counts per span name, kept in memory."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + calls

    def scaled(self, factor: float) -> "Spans":
        out = Spans()
        out.seconds = {k: v * factor for k, v in self.seconds.items()}
        out.calls = dict(self.calls)
        return out

    def merge(self, other: "Spans") -> None:
        for k, v in other.seconds.items():
            self.add(k, v, other.calls[k])


def trace_block(qo, w, block, seen: set[int]):
    """Replay one block; returns (spans, rows, hfd, oracle counts, ipc bytes, problems)."""
    clock = time.perf_counter
    spans = Spans()
    oracle = {name: [0, 0] for name in ORACLES}  # checked, skipped
    problems = []
    rows: list[str] = []
    hfd = 0
    ipc = 0
    OrderSpec = qo.OrderSpec
    for d in w.fields(block):
        t0 = clock()
        F = qo.make_field(d)
        t1 = clock()
        U = qo.fundamental_unit(F)
        t2 = clock()
        C = qo.class_number(F, U)
        t3 = clock()
        if d not in seen:  # first sight in this process: the caches are cold
            seen.add(d)
            spans.add("quadfield.make_field", t1 - t0)
            spans.add("pell.fundamental_unit", t2 - t1)
            spans.add("classgroup.class_number", t3 - t2)
        d_rows: list[str] = []
        d_hfd = 0
        for n in range(w.n_min, w.n_max + 1):
            s0 = clock()
            spec = OrderSpec(d, n)
            a = clock()
            m = qo.min_power(F, U, n)
            b = clock()
            L = qo.l_value(n, d)
            c = clock()
            ip = qo.is_ideal_preserving(spec)
            e = clock()
            rec = qo.classify_order(spec)
            f = clock()
            qo.make_field(d)
            qo.fundamental_unit(F)
            qo.class_number(F, U)
            qo.min_power(F, U, n)
            qo.l_value(n, d)
            qo.is_ideal_preserving(spec)
            g = clock()
            spans.add("classify.OrderSpec", a - s0)
            spans.add("unitindex.min_power", b - a)
            spans.add("lfun.l_value", c - b)
            spans.add("classify.is_ideal_preserving", e - c)
            spans.add("classify.classify_order", f - e)
            # classify_order minus its children, both on the same warm state
            spans.add("classify.self", (f - e) - (g - f))
            if (rec.m, rec.L, rec.ideal_preserving, rec.h_maximal) != (m, L, ip, C.h):
                problems.append(f"classify_order({d}, {n}) disagrees with its parts")
            if w.verify:
                problems.extend(run_oracles(qo, F, U, rec, spans, oracle, clock))
            h = clock()
            if w.fmt == "csv":
                row = qo.record_to_csv_row(rec)
            else:
                row = json.dumps(qo.record_to_json_obj(rec), separators=(",", ":"))
            i = clock()
            spans.add("atlas.render_" + w.fmt, i - h)
            d_rows.append(row)
            if rec.hfd and n > 1:
                d_hfd += 1
        # what a pool worker sends the parent for this d
        ipc += len(pickle.dumps((d, d_rows, d_hfd), protocol=pickle.HIGHEST_PROTOCOL))
        rows.extend(d_rows)
        hfd += d_hfd
    return spans, rows, hfd, oracle, ipc, problems


def run_oracles(qo, F, U, rec, spans, oracle, clock) -> list[str]:
    problems = []
    calls = (
        ("brute_locally_associated", (F, U, rec.n), rec.locally_associated),
        ("brute_associated", (F, U, rec.n), rec.associated),
        ("brute_ideal_preserving", (F, rec.n), rec.ideal_preserving),
    )
    for name, args, claimed in calls:
        t0 = clock()
        try:
            got = getattr(qo, name)(*args)
        except qo.OracleBoundError:
            oracle[name][1] += 1
            continue
        spans.add("oracle." + name, clock() - t0)
        oracle[name][0] += 1
        if got != claimed:
            problems.append(f"{name} at d={rec.d}, n={rec.n}: oracle {got}, closed form {claimed}")
    return problems


def trace(qo, w, blocks, expected, scratch, ref_kernel_s) -> dict:
    out = os.path.join(scratch, "trace.out")
    total = Spans()
    oracle = {name: [0, 0] for name in ORACLES}
    seen: set[int] = set()
    cells = fields = ipc = 0
    failures: dict[str, list[str]] = {}
    per_op = []
    with Sampler() as sampler:
        for block in blocks:
            c0 = cpu_time()
            t0 = time.perf_counter()
            try:
                spans, rows, hfd, oc, ipc_b, problems = trace_block(qo, w, block, seen)
                with open(out, "w", newline="") as fh:
                    if w.fmt == "csv":
                        fh.write(qo.atlas.CSV_HEADER + "\n")
                    fh.write("".join(r + "\n" for r in rows))
                r0 = time.perf_counter()
                report = qo.report_hfd(out)
                spans.add("atlas.report", time.perf_counter() - r0)
            except Exception as exc:  # one failed operation must not hide the others
                failures[str(block)] = [f"{type(exc).__name__}: {exc}"]
                continue
            t1 = time.perf_counter()
            _, ref = sampler.ref_seconds(t0, t1, cpu_time() - c0, ref_kernel_s)
            # Kernel samples and preemption land in spans in proportion to
            # their length, so scaling by ref / window both removes them and
            # normalises.
            scaled = spans.scaled(ref / (t1 - t0))
            total.merge(scaled)
            problems += check_output(w, block, out, expected, len(rows), hfd, report.total)
            if problems:
                failures[str(block)] = problems
            for name in ORACLES:
                oracle[name][0] += oc[name][0]
                oracle[name][1] += oc[name][1]
            cells += len(rows)
            fields += len(w.fields(block))
            ipc += ipc_b
            # The scan's own cost of this block: first-touch children plus
            # classify_order's self time stand in for a cold classify_order.
            work_s = sum(
                v
                for k, v in scaled.seconds.items()
                if k not in ("atlas.report", "classify.classify_order")
            )
            per_op.append(
                {
                    "block": block,
                    "ref_s": ref,
                    "work_ref_s": work_s,
                    "report_ref_s": scaled.seconds["atlas.report"],
                }
            )
    return {
        "seconds": total.seconds,
        "calls": total.calls,
        "oracle": oracle,
        "cells": cells,
        "fields": fields,
        "ipc_bytes": ipc,
        "per_op": per_op,
        "ops": len(blocks),
        "failures": failures,
    }


def main() -> None:
    spec = json.load(sys.stdin)
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import quadorders as qo

    w = WORKLOADS[spec["workload"]]
    blocks = [tuple(b) for b in spec["blocks"]]
    reference = json.loads((BENCH / "reference.json").read_text())
    expected = reference["digests"][w.name]
    if spec["mode"] == "count":
        result = count(qo, w, blocks, expected, spec["scratch"])
    else:
        result = trace(qo, w, blocks, expected, spec["scratch"], reference["kernel_s"])
    result["quadorders_file"] = qo.__file__
    print(json.dumps(result))


if __name__ == "__main__":
    main()
