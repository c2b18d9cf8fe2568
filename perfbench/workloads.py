"""The benchmark's workloads: which scans each one runs, derived from a seed.

Every workload is a closed loop with one client in one process: an operation
is one `scan` over a block of consecutive d followed by `report_hfd` on its
output, so both the write path and the read path of `atlas` run.  A workload
has a fixed universe of blocks; the seed only picks the order in which they
are visited, and each block's output digest is recorded in reference.json, so
every operation of every seed is checked byte for byte.

This module imports nothing from the program: the program receives only the
ScanConfig fields built here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: tuple[tuple[int, int], ...]  # (d_min, d_max), inclusive
    n_min: int
    n_max: int
    fmt: str
    jobs: int
    verify: bool
    # Consecutive blocks (similar cost) are grouped into this many strata,
    # and the operation order visits the strata round-robin, so a run's mix
    # of cheap and dear blocks hardly depends on the seed.  (Real fields cost
    # the oracles ~1.8x what imaginary ones do; field setup grows with |d|.)
    strata: int
    # Operations replayed by the traced run; fixed, so its counts repeat exactly.
    traced_ops: int

    def ops(self, seed: int) -> list[tuple[int, int]]:
        """Every block once, in the seed's order."""
        rng = random.Random(f"{self.name}:{seed}")
        size = -(-len(self.blocks) // self.strata)
        groups = [list(self.blocks[i : i + size]) for i in range(0, len(self.blocks), size)]
        for g in groups:
            rng.shuffle(g)
        rng.shuffle(groups)
        order = []
        for i in range(size):
            order.extend(g[i] for g in groups if i < len(g))
        return order

    def config(self, block: tuple[int, int], out: str) -> dict:
        """Keyword arguments of quadorders.ScanConfig for one operation."""
        return {
            "d_min": block[0],
            "d_max": block[1],
            "n_min": self.n_min,
            "n_max": self.n_max,
            "out": out,
            "fmt": self.fmt,
            "jobs": self.jobs,
            "verify": self.verify,
        }

    def fields(self, block: tuple[int, int]) -> list[int]:
        """The d a scan of this block covers: squarefree, not 0 or 1."""
        return [d for d in range(block[0], block[1] + 1) if d not in (0, 1) and squarefree(d)]

    def cells(self, block: tuple[int, int]) -> int:
        return len(self.fields(block)) * (self.n_max - self.n_min + 1)


def squarefree(d: int) -> bool:
    m = abs(d)
    p = 2
    while p * p <= m:
        if m % (p * p) == 0:
            return False
        p += 1
    return True


def _grid(lo: int, hi: int, width: int) -> tuple[tuple[int, int], ...]:
    return tuple((a, min(a + width, hi) - 1) for a in range(lo, hi, width))


def _by_size(blocks) -> tuple[tuple[int, int], ...]:
    """Blocks ordered by how large |d| gets in them, which mostly sets field setup cost."""
    return tuple(sorted(blocks, key=lambda b: max(abs(b[0]), abs(b[1]))))


# Why each workload exists, and what it should move: README.md, BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="census",
            blocks=tuple((d, d) for d in range(2, 1000) if squarefree(d)),
            n_min=2,
            n_max=10_000,
            fmt="csv",
            jobs=1,
            verify=False,
            strata=1,
            traced_ops=4,
        ),
        Workload(
            name="sweep",
            blocks=_by_size(_grid(-16_000, 16_000, 200)),
            n_min=2,
            n_max=40,
            fmt="jsonl",
            jobs=2,
            verify=False,
            strata=10,
            traced_ops=10,
        ),
        Workload(
            name="verify",
            blocks=_grid(-1000, 1000, 20),
            n_min=2,
            n_max=28,
            fmt="csv",
            jobs=1,
            verify=True,
            strata=10,
            traced_ops=4,
        ),
    )
}
