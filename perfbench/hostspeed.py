"""The host-speed reference that the benchmark's timings are scaled by.

The benchmark runs on shared virtual machines whose speed drifts: a fixed
pure-Python loop can take 1.5x to 2x longer for minutes at a time, because
other tenants share the physical cores (the guest sees no steal time; its
CPU time stretches as much as its wall time).  No statistic taken inside
one run removes a slowdown that lasts the whole run.  So, for the whole of
every run, a small probe process times a fixed reference loop about ten
times a second (about 1.5% of one core) and the benchmark reports every
end-to-end timing scaled to a host on which one reference loop takes
``REFERENCE_S``::

    time at reference speed = measured time * REFERENCE_S / reference time
    rate at reference speed = measured rate * reference time / REFERENCE_S

where the reference time is a percentile of the loop times over the run.
The whole benchmark, the program and the probe run on one CPU (see
``CPU``); the probe times a loop on its own CPU clock, so time it spends
waiting for that CPU does not count, only how fast the CPU runs while the
probe has it.  A change to the program moves the measured time and not
the reference, so it shows in full; a slower host moves both.  The unscaled figures and the reference
itself are printed in the run's table.

Run as a script, this module is the probe::

    python3 perfbench/hostspeed.py OUT.json

It samples until SIGTERM, then writes its samples to ``OUT.json``.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import List

#: Nominal time of one reference loop, about its time on an idle host of
#: the 2-vCPU Xeon virtual machines the benchmark was tuned on.
REFERENCE_S = 0.0015

#: Seconds between two reference loops in the probe.
PERIOD_S = 0.1

#: The one CPU the benchmark runs on, the probe with it: each virtual CPU
#: of a shared host slows on its own, so the probe must time the CPU the
#: program has, and the program must have one.
CPU = max(os.sched_getaffinity(0))


def pin() -> None:
    """Run this process, and every process it starts from now on, on ``CPU``."""
    os.sched_setaffinity(0, {CPU})


def _reference_loop() -> int:
    """Fixed interpreter work of the kinds the program does: dict inserts
    and deletes, integer arithmetic and method calls, on a table small
    enough that it never asks the memory allocator for fresh pages."""
    table = {}
    total = 0
    for i in range(14000):
        key = (i * 7919) & 63
        if key in table:
            total += table.pop(key) ^ i
        else:
            table[key] = i
    return total


class Probe:
    """The probe process, started on entry and stopped (and waited for) on
    exit; :meth:`reference` then gives its loop times."""

    def __init__(self, workdir: str) -> None:
        self.path = os.path.join(workdir, "hostspeed.json")
        self.samples: List[float] = []

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), self.path])
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if exc[0] is None:
            if self.proc.returncode != 0:
                raise RuntimeError(f"host-speed probe exited with {self.proc.returncode}")
            with open(self.path) as handle:
                self.samples = json.load(handle)
            if not self.samples:
                raise RuntimeError("host-speed probe took no sample")

    def reference(self, percentile: int) -> float:
        """The ``percentile``-th percentile loop time, in seconds."""
        return statistics.quantiles(self.samples, n=100)[percentile - 1]


def time_at_reference(seconds: float, reference: float) -> float:
    """``seconds`` measured while a reference loop took ``reference`` s."""
    return seconds * REFERENCE_S / reference


def rate_at_reference(rate: float, reference: float) -> float:
    """``rate`` measured while a reference loop took ``reference`` s."""
    return rate * reference / REFERENCE_S


def _probe(path: str) -> None:
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    samples = []
    _reference_loop()  # untimed: the first loop runs slow
    while not stopping:
        started = time.thread_time()
        _reference_loop()
        samples.append(time.thread_time() - started)
        time.sleep(PERIOD_S)
    with open(path, "w") as handle:
        json.dump(samples, handle)


if __name__ == "__main__":
    _probe(sys.argv[1])
