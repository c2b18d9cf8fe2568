"""Time one set-up in a fresh interpreter: `import quadorders` plus building the inputs.

    python3 perfbench/setup_probe.py ROOT WORKLOAD SEED

Prints one JSON object: the set-up's CPU seconds without the kernel samples
taken during it, its reference seconds, and the file quadorders came from.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from calib import Sampler, cpu_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    root, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    ref_kernel_s = json.loads((BENCH / "reference.json").read_text())["kernel_s"]
    w = WORKLOADS[name]
    with Sampler(period=0.002) as sampler:
        c0 = cpu_time()
        t0 = time.perf_counter()
        sys.path.insert(0, os.path.join(root, "src"))
        import quadorders

        configs = [
            quadorders.ScanConfig(**w.config(b, os.path.join(root, "out"))) for b in w.ops(seed)
        ]
        t1 = time.perf_counter()
        cpu = cpu_time() - c0
    work, ref = sampler.ref_seconds(t0, t1, cpu, ref_kernel_s)
    print(json.dumps({"raw_s": work, "ref_s": ref, "configs": len(configs), "quadorders_file": quadorders.__file__}))


if __name__ == "__main__":
    main()
