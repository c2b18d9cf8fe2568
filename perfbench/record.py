"""Write reference.json: every block's output digest and the reference kernel time.

    python3 perfbench/record.py

Scans every block of every workload once (the census window alone is about
6.07M cells, a few minutes on two cores) and stores the sha256 of each output
file, so the benchmark can check every operation of every seed.  Run it only on
a commit whose output is trusted: the digests pin that output.

The reference kernel time is the median of many kernel samples on the
recording machine.  It only sets the scale of the reported rates; changing it
rescales every figure, so keep it fixed once results have been compared.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
from multiprocessing import get_context
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from calib import timed_kernel  # noqa: E402
from checks import sha256  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

JOBS = 2


def _digest(task: tuple[str, tuple[int, int], str]) -> tuple[str, str, str]:
    name, block, tmp = task
    sys.path.insert(0, str(ROOT / "src"))
    import quadorders

    w = WORKLOADS[name]
    out = os.path.join(tmp, f"{name}_{block[0]}_{block[1]}.out")
    quadorders.scan(quadorders.ScanConfig(**{**w.config(block, out), "jobs": 1}))
    digest = sha256(out)
    os.remove(out)
    os.remove(out + ".checkpoint")
    return name, f"{block[0]},{block[1]}", digest


def main() -> None:
    kernel_s = statistics.median(timed_kernel() for _ in range(5000))
    digests: dict[str, dict[str, str]] = {name: {} for name in WORKLOADS}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tasks = [(w.name, b, tmp) for w in WORKLOADS.values() for b in w.blocks]
        with get_context("spawn").Pool(JOBS) as pool:
            for name, key, digest in pool.imap_unordered(_digest, tasks):
                digests[name][key] = digest
    ref = {"kernel_s": kernel_s, "digests": digests}
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"kernel_s {kernel_s:.6f}, {sum(map(len, digests.values()))} digests")


if __name__ == "__main__":
    main()
