"""Print every end-to-end and per-layer metric of every workload, with its unit.

    python3 perfbench/report.py [--seed 0] [--seconds 15]

Runs perfbench/run.py once untraced and once traced per workload and prints
one `workload metric value unit` line per metric, then whether every
operation's output was correct.  Takes about four minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    args = ap.parse_args()
    all_correct = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} trace={trace} failed: {proc.stderr.strip()}")
                all_correct = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for metric, v in result["metrics"].items():
                print(f"{name:7} {metric:55} {v['value']:>14.6g} {v['unit']}")
            print(f"{name:7} {'attempted/failed (trace=%d)' % trace:55} {result['attempted']:>8}/{result['failed']}")
            all_correct &= result["correct"]
    print("every output correct" if all_correct else "SOME OUTPUT WRONG")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
