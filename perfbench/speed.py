"""Operation times rescaled to a nominal machine speed.

The CPU speed of the shared 2-core host drifts by about 25% over seconds
and minutes, for every process alike: a fixed loop takes 1.6 ms at one
moment and 3 ms at another. A fixed reference is therefore timed around
each operation, and the operation's time is rescaled to the speed at which
the reference takes its nominal time (about its time on an idle core of
the machine the baseline was taken on): time * nominal / reference time.
"""

from __future__ import annotations

import math
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, NamedTuple

from workloads import ROOT, src_env

PROBE_INTERVAL_S = 0.05


class _Density:
    """A Gaussian density in plain Python: method calls and float math, the
    shape of the package's own hot loops."""

    def __init__(self, mean: float, variance: float):
        self.mean = mean
        self.sd = math.sqrt(variance)

    def pdf(self, x: float) -> float:
        z = (x - self.mean) / self.sd
        return math.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))


def loop_s() -> float:
    """Wall time of a fixed pure-Python loop: the speed of this process's core."""
    density = _Density(0.1, 1.3)
    start = time.perf_counter()
    terms = []
    for i in range(4000):
        v = density.pdf(i * 1e-3)
        if v > 1e-300:
            terms.append(v * math.log(v))
    math.fsum(terms)
    return time.perf_counter() - start


def child_start_s() -> float:
    """Wall time of `python -c "import numpy"`: how fast a child process starts and
    imports, the bulk of a CLI call, at this moment."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=src_env(), cwd=ROOT,
                   check=True, timeout=60)
    return time.perf_counter() - start


class Reference(NamedTuple):
    measure: Callable[[], float]
    nominal_s: float


LOOP = Reference(loop_s, 0.0017)
CHILD_START = Reference(child_start_s, 0.13)


def reference_for(workload) -> Reference:
    """In-process work is compared with the loop, CLI children with a child's start."""
    return LOOP if workload.in_process else CHILD_START


class SpeedProbe:
    """Times one operation and estimates the CPU speed while it ran.

    The reference runs before and after the operation and, with `sample`,
    every PROBE_INTERVAL_S during it from a timer signal; the time spent in
    those samples is not counted as operation time. Only the loop reference
    is sampled, and only outside the traced run, so no probe lands inside a
    span or competes with a child process for the host's cores. `before`
    reuses the closing sample of the previous operation.
    """

    def __init__(self, reference: Reference, sample: bool = False,
                 before: float | None = None):
        self.reference = reference
        self.sample = sample
        self.samples: list[float] = [] if before is None else [before]
        self.wall = 0.0
        self.scale = 1.0
        self._probing = 0.0

    def __enter__(self) -> "SpeedProbe":
        if not self.samples:
            self.samples.append(self.reference.measure())
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self.reference.measure())
        self._probing += time.perf_counter() - start

    def __exit__(self, *exc) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.wall = time.perf_counter() - self._start - self._probing
        self.samples.append(self.reference.measure())
        self.scale = self.reference.nominal_s / statistics.fmean(self.samples)

    @property
    def scaled(self) -> float:
        return self.wall * self.scale
