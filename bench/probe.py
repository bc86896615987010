"""Host-speed probe: the benchmark's yardstick for the speed of a shared host.

On a shared host the speed of a vCPU drifts by tens of percent in phases of
seconds to minutes, and a whole run can fall inside one slow phase.  Medians
over a run cannot remove that, so each run also times a fixed piece of the
benchmark's own code, which no change to fractrace can touch, on a background
thread for the whole run:

    factor = mean of the middle half of the probe CPU times / NOMINAL_S

A factor of 1.2 means the host ran 20% slower than nominal during the run, and
run.py divides every time it reports by the factor.  The times are therefore
seconds at nominal host speed; the raw times and the factor are kept in the
run's record.

The probe is timed in thread CPU time, so it measures how fast the vCPU
executes, not how long the thread waited to be scheduled behind the commands
it measures.  It takes about 1 ms in every 200 ms, 0.5% of one core.  On a
2-vCPU host its median read the same, within 5%, with the host idle and with
one or two busy processes beside it, so the load of the program being
measured does not move the factor.
"""

from __future__ import annotations

import statistics
import threading
import time

# Typical probe CPU time on the 2-vCPU host the bounds were set on, so that
# the reported seconds read close to the raw ones there.
NOMINAL_S = 0.0011
INTERVAL_S = 0.2


def probe_once(loops: int = 12000) -> None:
    """A fixed piece of interpreted work.  Interpreted code is what most of
    the program's time runs, in the rational arithmetic, the quadrature
    drivers and the start-up of each process."""
    acc = 0
    for i in range(loops):
        acc += i * i % 7


class SpeedProbe:
    """Times probe_once every INTERVAL_S seconds until stopped."""

    def __init__(self):
        self.samples: list[float] = []        # CPU seconds per probe
        self.at: list[float] = []             # perf_counter at the start of each probe
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _loop(self):
        while not self._stop.wait(INTERVAL_S):
            self.at.append(time.perf_counter())
            start = time.thread_time()
            probe_once()
            self.samples.append(time.thread_time() - start)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def factor(self) -> float:
        """Host slowness over the run: the interquartile mean of the probe
        times / NOMINAL_S.  It is robust to single slow probes like the
        median, and tracks the host more closely than the median did."""
        if not self.samples:
            return 1.0
        ordered = sorted(self.samples)
        cut = len(ordered) // 4
        return statistics.fmean(ordered[cut:len(ordered) - cut]) / NOMINAL_S

    def summary(self) -> dict:
        qs = statistics.quantiles(self.samples, n=4) if len(self.samples) > 1 else [None] * 3
        return {"nominal_s": NOMINAL_S, "interval_s": INTERVAL_S,
                "samples": len(self.samples), "factor": self.factor(),
                "quartiles_s": qs}
