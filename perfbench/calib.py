"""Calibration kernel: a fixed pure-Python loop that tracks the machine's speed.

On a small shared VM the same Python code runs up to ~2x slower for stretches
of 1-100 ms (most likely another tenant on the sibling hyperthread), and for
some seconds at a time other tenants take 5-15% of the CPU away from the
process, so no raw wall-clock rate repeats within a tenth.  The benchmark therefore

- counts CPU seconds (of this process and of the worker processes it has
  waited for), not wall seconds, so time spent preempted does not count; and
- times this kernel, also in CPU seconds, every 10 ms *during* the measured
  work from a SIGALRM handler (in the scanner's fork-pool workers too, when
  it has any), and converts each operation's CPU time into reference
  seconds:

      ref_seconds = work_cpu_seconds * REF_KERNEL_S * mean(1 / kernel_seconds)

where the mean is over the samples taken inside the operation and
work_cpu_seconds excludes the samples themselves.  A rate per reference second
reads the same on a slow and on a fast stretch.

The kernel uses the kinds of operation the program spends its time on: small
slotted objects (plain and frozen dataclasses), tuple-keyed dict updates,
modular int arithmetic and str.join over formatted ints.  It imports nothing
from the program, so a change to the program cannot change its cost.
"""

from __future__ import annotations

import os
import resource
import signal
import time
from dataclasses import dataclass

ITERATIONS = 100  # one sample: about 0.25-0.5 ms
PERIOD_S = 0.01
WARMUP_CALLS = 10


class _Pair:
    __slots__ = ("a", "b", "m")

    def __init__(self, a: int, b: int, m: int) -> None:
        self.a = a
        self.b = b
        self.m = m


@dataclass(frozen=True, slots=True)
class _Key:
    p: int
    e: int


def kernel() -> int:
    """Run the loop once and return a checksum, so no work can be skipped."""
    table: dict[tuple, int] = {}
    parts: list[str] = []
    acc = 1
    for i in range(ITERATIONS):
        m = 97 + i % 13
        x = _Pair(i % m, (i * 7 + 3) % m, m)
        y = _Pair((x.a * x.a + 5 * x.b * x.b) % m, (2 * x.a * x.b + x.b) % m, m)
        key = (_Key(m, i & 3), y.b % 11)
        table[key] = table.get(key, 0) + y.a
        acc = acc * 31 + y.a * y.b
        acc %= 1000003
        if i & 7 == 7:
            parts.append(",".join((str(x.a), str(y.b), str(m), str(int(y.a > x.a)))))
    return acc + len(table) + len("\n".join(parts))


def timed_kernel() -> float:
    """CPU seconds of one kernel call on this thread."""
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


def cpu_time() -> float:
    """CPU seconds used so far by this process and by the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Sampler:
    """Times the kernel every `period` seconds of wall time while active.

    Use as a context manager around measured work.  Samples are kept in
    memory as (wall-clock start, kernel CPU seconds) pairs.  An interval timer
    is not inherited by fork(), so with a `worker_dir` the sampler restarts
    itself in every process forked while it is active (the scanner's pool
    workers); those append their samples to files there, which
    `collect_workers()` reads once the workers have ended.
    """

    def __init__(self, period: float = PERIOD_S, worker_dir: str | None = None) -> None:
        self.period = period
        self.worker_dir = worker_dir
        self.samples: list[tuple[float, float]] = []
        self.worker_samples: list[tuple[float, float]] = []
        self._busy = False
        self._old = None
        self._sink: int | None = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            sample = (time.perf_counter(), timed_kernel())
            # The VM's thread CPU clock very rarely reads no time at all for
            # a sample; such a sample says nothing about speed.
            if sample[1] > 0:
                self.samples.append(sample)
                if self._sink is not None:
                    os.write(self._sink, b"%r %r\n" % sample)
        finally:
            self._busy = False

    def _start_in_child(self) -> None:
        self.samples = []
        self._busy = False
        path = os.path.join(self.worker_dir, f"{os.getpid()}.samples")
        self._sink = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def __enter__(self) -> "Sampler":
        for _ in range(WARMUP_CALLS):  # let the interpreter specialise the loop first
            kernel()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        if self.worker_dir is not None:
            _forking.append(self)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        if self in _forking:
            _forking.remove(self)

    def collect_workers(self) -> None:
        """Move the samples of ended forked workers into self.worker_samples."""
        for name in os.listdir(self.worker_dir):
            if name.endswith(".samples"):
                path = os.path.join(self.worker_dir, name)
                with open(path) as fh:
                    for line in fh:
                        t, k = line.split()
                        self.worker_samples.append((float(t), float(k)))
                os.remove(path)

    def ref_seconds(self, t0: float, t1: float, cpu_s: float, ref_kernel_s: float) -> tuple[float, float]:
        """(work CPU seconds, reference seconds) of work that used cpu_s in [t0, t1).

        The speed is read from the samples of the processes that did the work:
        forked workers when there were any, else this process.  Samples from
        this process alone track forked workers badly (11% run-to-run spread
        on sweep, against 2% from the workers' own).  An interval too short to
        hold a sample borrows the nearest one.
        """
        own = [k for t, k in self.samples if t0 <= t < t1]
        workers = [k for t, k in self.worker_samples if t0 <= t < t1]
        ks = workers or own
        if not ks and self.samples:
            ks = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        while not ks:
            ks = [k for k in (timed_kernel(),) if k > 0]
        work = max(cpu_s - sum(own) - sum(workers), 0.0)
        return work, work * ref_kernel_s * sum(1 / k for k in ks) / len(ks)


# Samplers that restart themselves in forked children (see Sampler).
_forking: list[Sampler] = []
os.register_at_fork(after_in_child=lambda: [s._start_in_child() for s in _forking])
