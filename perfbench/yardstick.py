"""Host-speed yardstick: CPU seconds stated at a fixed host speed.

On a shared VM the same pass of the program takes from 0.7 to 1.3 times
its usual CPU time, from one minute to the next, with no steal reported:
the neighbours' load slows the shared caches and memory.  A CPU-second
figure then moves by more than any bound a benchmark could keep.

:class:`Yardstick` wraps the timed region of a pass.  Every
:data:`INTERVAL_S` of the process's CPU time a profiling-timer signal runs
a fixed piece of pure-Python work (:func:`_work`, the benchmark's own code,
never the program's) and times it.  The median of those timings against
:data:`NOMINAL_S` says how fast the host ran during the pass;
:meth:`Yardstick.normalize` scales the pass's CPU seconds to the nominal
speed, after taking out the yardstick's own time.
"""

from __future__ import annotations

import heapq
import json
import signal
import statistics
import time
from typing import List

_clock = time.perf_counter

#: Profiling-timer period: CPU seconds of the process between two samples.
INTERVAL_S = 0.02
#: Typical median duration of :func:`_work` inside a pass on a 2-vCPU
#: Intel Xeon VM (Python 3.11): the speed every normalised figure is
#: stated at.
NOMINAL_S = 550e-6

#: The yardstick's data: larger than a core's private caches, so each
#: sample reads it back from the shared cache or memory, as the program
#: does.  The slowdowns a shared host causes are mostly there: a probe
#: that first warms its data tracks them far worse.
_cells = [[float(k)] for k in range(8192)]


def _work() -> None:
    """Fixed interpreter work: scattered list cells, float arithmetic, a
    dict and a heap, like the simulator's inner loops."""
    table = {}
    heap: list = []
    for i in range(400):
        cell = _cells[(i * 2477) & 8191]
        cell[0] = cell[0] * 0.5 + 1.0
        table[i & 127] = cell[0]
        heapq.heappush(heap, (cell[0], i))


def normalize(cpu_s: float, samples: List[float]) -> float:
    """``cpu_s`` of a process, measured over the span of ``samples`` (its
    yardstick's durations), less the yardstick's own time, at
    :data:`NOMINAL_S` speed; unscaled when there is no sample."""
    work = cpu_s - sum(samples)
    if not samples:
        return work
    return work * NOMINAL_S / statistics.median(samples)


class Yardstick:
    """Samples the host's speed between :meth:`start` and :meth:`stop`
    (or while entered as a context manager)."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.ends: List[float] = []     #: ``perf_counter`` at each sample's end

    def _tick(self, signum, frame) -> None:
        t0 = _clock()
        _work()
        t1 = _clock()
        self.samples.append(t1 - t0)
        self.ends.append(t1)

    def start(self) -> None:
        self.samples, self.ends = [], []
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def __enter__(self) -> "Yardstick":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def normalize(self, cpu_s: float) -> float:
        """:func:`normalize` with this yardstick's samples."""
        return normalize(cpu_s, self.samples)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"samples": self.samples, "ends": self.ends}, fh)

    @classmethod
    def load(cls, path: str) -> "Yardstick":
        """The samples another process's yardstick wrote with :meth:`dump`."""
        yardstick = cls()
        with open(path) as fh:
            data = json.load(fh)
        yardstick.samples, yardstick.ends = data["samples"], data["ends"]
        return yardstick

    def window(self, t0: float, t1: float) -> List[float]:
        """The samples that ended between ``perf_counter`` times ``t0`` and
        ``t1`` (the clock is system-wide, so also another process's)."""
        return [s for s, end in zip(self.samples, self.ends) if t0 <= end <= t1]
