"""Wall and CPU time scaled to a reference host speed.

The benchmark shares a few cores of a host with other tenants.  Their
load makes the same code run up to 1.8 times slower, in stretches that
last from a fraction of a second to minutes, so raw seconds from two
runs of the same code can differ by 30%.  ``SpeedClock`` takes that out:
while it runs, a timer interrupts the program every ``interval_s`` and
times one pass of a fixed calibration loop (``calibration_pass``: small
numpy linear algebra and interpreter work, the mix the program itself
runs).  Each stretch of program time between two passes is then reported
as

    program seconds x CALIBRATION_REF_S / mean of the two passes,

the seconds it would have taken on a host where one calibration pass
takes ``CALIBRATION_REF_S``.  Program seconds exclude the passes.  The calibration code is the
benchmark's own and never changes with the program, so a faster program
still shows as fewer scaled seconds.
"""

from __future__ import annotations

import bisect
import resource
import signal
import time
from typing import List, NamedTuple

import numpy as np

#: Seconds one calibration pass is scaled to; about its time on an idle
#: 2-CPU Xeon host (python 3.11, numpy 2.4).
CALIBRATION_REF_S = 0.0075

#: Seconds between calibration passes while a clock runs.
CALIBRATION_INTERVAL_S = 0.1

_RNG = np.random.default_rng(0)
_CHANNELS = _RNG.standard_normal((16, 4, 2)) + 1j * _RNG.standard_normal((16, 4, 2))


def calibration_pass() -> float:
    """A fixed amount of interpreter and small-array numpy work."""
    total = 0
    for index in range(5000):
        total += index * index
    table = {}
    for index in range(1500):
        table[index] = (index, str(index))
    for _ in range(75):
        gram = np.einsum("bij,bkj->bik", _CHANNELS, _CHANNELS.conj())
        _, singular, _ = np.linalg.svd(_CHANNELS)
        rates = np.log2(1.0 + singular**2).sum(axis=-1) + gram.real[:, 0, 0]
        floored = np.maximum(rates, 0.5)
        shaped = np.where(floored > 1.0, floored, np.sqrt(floored))
        total += float(np.sort(shaped)[0])
    return total + len(table)


def host_pass_s(passes: int = 9) -> float:
    """Median wall seconds of a few calibration passes, run now."""
    durations = []
    for _ in range(passes):
        start = time.perf_counter()
        calibration_pass()
        durations.append(time.perf_counter() - start)
    return float(np.median(durations))


def cpu_seconds() -> float:
    """CPU seconds of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def scaled_span(starts: List[float], durations: List[float], low: float, high: float) -> float:
    """Seconds from ``low`` to ``high`` outside the passes, at the reference speed.

    ``starts`` and ``durations`` are one process's passes, in order.  Each
    stretch between two passes is scaled by the mean of those two passes;
    time before the first pass or after the last is scaled by that pass
    alone.  Without passes, the seconds are returned unscaled.
    """
    if not starts:
        return high - low
    total = 0.0
    for gap in range(bisect.bisect_right(starts, low), bisect.bisect_right(starts, high) + 1):
        # Gap ``gap`` runs from the end of pass gap-1 to the start of pass gap.
        begin = starts[gap - 1] + durations[gap - 1] if gap > 0 else -np.inf
        finish = starts[gap] if gap < len(starts) else np.inf
        overlap = min(finish, high) - max(begin, low)
        if overlap > 0:
            bracket = durations[max(0, gap - 1) : gap + 1]
            total += overlap * len(bracket) / sum(bracket)
    return total * CALIBRATION_REF_S


class Mark(NamedTuple):
    """One reading of the clock."""

    wall_s: float
    cpu_s: float
    #: Wall and CPU seconds spent in calibration passes so far.
    stolen_wall_s: float
    stolen_cpu_s: float


class SpeedClock:
    """Calibration passes on a timer while in a ``with`` block; marks anywhere.

    Outside the block, or with ``interval_s`` 0, no pass runs and
    :meth:`program_wall` / :meth:`program_cpu` are plain differences.
    """

    def __init__(self, interval_s: float = CALIBRATION_INTERVAL_S):
        self.interval_s = interval_s
        #: Start time and wall seconds of every calibration pass.
        self.starts: List[float] = []
        self.durations: List[float] = []
        self.stolen_wall_s = 0.0
        self.stolen_cpu_s = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            cpu = cpu_seconds()
            start = time.perf_counter()
            calibration_pass()
            end = time.perf_counter()
            self.stolen_cpu_s += cpu_seconds() - cpu
            self.stolen_wall_s += end - start
            self.starts.append(start)
            self.durations.append(end - start)
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedClock":
        if self.interval_s <= 0:
            return self
        # One untimed pass first: the first calls of the numpy functions
        # are slower and would read as a slow host.
        start = time.perf_counter()
        cpu = cpu_seconds()
        calibration_pass()
        self.stolen_cpu_s += cpu_seconds() - cpu
        self.stolen_wall_s += time.perf_counter() - start
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *_) -> None:
        if self.interval_s <= 0:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def mark(self) -> Mark:
        while True:
            stolen = (self.stolen_wall_s, self.stolen_cpu_s)
            wall, cpu = time.perf_counter(), cpu_seconds()
            # A pass that ran between the readings would count as stolen
            # but not as elapsed; read again.
            if stolen == (self.stolen_wall_s, self.stolen_cpu_s):
                return Mark(wall, cpu, *stolen)

    @staticmethod
    def program_wall(start: Mark, end: Mark) -> float:
        """Wall seconds of the program between two marks, passes excluded."""
        return (end.wall_s - start.wall_s) - (end.stolen_wall_s - start.stolen_wall_s)

    @staticmethod
    def program_cpu(start: Mark, end: Mark) -> float:
        """CPU seconds of the program (and its children) between two marks."""
        return (end.cpu_s - start.cpu_s) - (end.stolen_cpu_s - start.stolen_cpu_s)

    def scaled_wall(self, start: Mark, end: Mark) -> float:
        """Program seconds between two marks, at the reference speed."""
        return scaled_span(self.starts, self.durations, start.wall_s, end.wall_s)
