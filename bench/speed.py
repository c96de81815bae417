"""Machine-speed probe, and scaling of timings to a reference speed.

The 2-vCPU VM the benchmark was built on runs faster and slower in phases
lasting seconds, and the CPU time of a fixed piece of work moves with the
wall time, so neither clock alone gives steady figures. The workload's own thread therefore runs a
fixed interpreter-bound task (URI formatting, regex scanning, dict inserts,
like the program's hot paths) between its timed operations and records the
task's CPU time. A timing is divided by the median factor (task time /
REFERENCE_NS) of the probes taken within PAD_S of it, so it reads as it
would on a machine on which the task takes REFERENCE_NS. A change to the
program moves the timing and not the probe. The task runs with the cyclic
garbage collector off, so that neither the program's heap nor its GC
settings reach the probe.
"""

from __future__ import annotations

import bisect
import gc
import re
import statistics
import time

REFERENCE_NS = 3_500_000
PAD_S = 1.0
MIN_SAMPLES = 3

_HREF_RE = re.compile(r'href="([^"]*)"')


def reference_task() -> dict:
    table = {}
    for i in range(1500):
        uri = "https://timeline.example/path/%d?lang=%s" % (i, "kn")
        table[uri.lower()] = uri.partition("?")[2].split("=")
        _HREF_RE.findall('<a href="%s">' % uri)
    return table


class SpeedLog:
    """Probe samples of one thread, in time order."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.factors: list[float] = []

    def probe(self) -> None:
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            cpu = time.thread_time_ns()
            reference_task()
            self.factors.append((time.thread_time_ns() - cpu) / REFERENCE_NS)
        finally:
            if gc_was_enabled:
                gc.enable()
        self.times.append(started)

    def factor(self, start: float, end: float) -> float:
        """Median factor of the probes from PAD_S before `start` to PAD_S
        after `end` (perf_counter seconds), widened until it holds
        MIN_SAMPLES probes."""
        pad = PAD_S
        while True:
            lo = bisect.bisect_left(self.times, start - pad)
            hi = bisect.bisect_right(self.times, end + pad)
            if hi - lo >= MIN_SAMPLES or (lo == 0 and hi == len(self.times)):
                break
            pad *= 2
        if hi == lo:
            raise RuntimeError("no speed probe was taken")
        return statistics.median(self.factors[lo:hi])

    def summary(self) -> dict:
        return {"probes": len(self.factors),
                "median_factor": statistics.median(self.factors),
                "min_factor": min(self.factors),
                "max_factor": max(self.factors)}
