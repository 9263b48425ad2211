"""Times scaled by how fast the machine runs Python at that moment.

A small shared machine changes speed by tens of percent within seconds, so
a raw wall time says as much about the neighbours as about the program.
Every timed call is therefore bracketed by runs of a fixed probe: pure
Python work of the same kinds the program does (small objects, tuple keys,
dict updates, a keyed sort, a little ``Fraction`` arithmetic), written here
and untouched by any change to the program.  A time is reported as

    raw seconds * REFERENCE_S / mean(probe before, probe after)

that is, in seconds of a machine on which the probe takes ``REFERENCE_S``.
The garbage collector is off while the probe runs, so the size of the
program's heap does not change the probe.

A child process may run on the other CPU and spends much of its time
starting the interpreter and importing, which the in-process probe does not
track.  Times of child processes are therefore scaled by a process probe
instead: the wall time of bare ``python -c pass`` runs on either side,
against ``REFERENCE_PROCESS_S``.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from fractions import Fraction
from typing import Callable

#: Probe times of the reference machine (a quiet 2-vCPU Xeon VM).
REFERENCE_S = 0.004
REFERENCE_PROCESS_S = 0.05

clock = time.perf_counter


class _Item:
    __slots__ = ("key", "count", "flag")

    def __init__(self, key, count, flag):
        self.key = key
        self.count = count
        self.flag = flag


def _work() -> tuple:
    counts: dict = {}
    rows = []
    total = Fraction(0)
    for i in range(3000):
        key = (i % 61, i % 7)
        item = _Item(key, counts.get(key, 0), i & 3)
        counts[key] = item.count + 1
        rows.append((-(item.count * 0.5), key, item))
        if i % 50 == 0:
            total += Fraction(i % 5, 4)
    rows.sort(key=lambda row: (row[0], row[1]))
    return total, rows[0][1]


def probe() -> float:
    """Seconds the probe takes now: the best of three runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = clock()
            _work()
            best = min(best, clock() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def process_probe() -> float:
    """Seconds a bare interpreter process takes now: the best of two runs."""
    best = float("inf")
    for _ in range(2):
        start = clock()
        subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True)
        best = min(best, clock() - start)
    return best


class Meter:
    """Times calls; a probe runs once at least ``every`` seconds of calls
    have passed since the last one, and each call is scaled by the probes
    on either side of it."""

    def __init__(self, every: float = 0.0, probe: Callable[[], float] = probe,
                 reference: float = REFERENCE_S):
        self.every = every
        self.probe = probe
        self.reference = reference
        self.probes = [probe()]
        self.since = 0.0
        self.total = 0.0
        self.raw: list[float] = []
        self.segment: list[int] = []

    def call(self, fn: Callable, *args):
        """``(result, error, raw seconds)``; an exception is returned, not
        raised, so that one failed op does not end the run."""
        start = clock()
        try:
            result, error = fn(*args), None
        except Exception as exc:
            result, error = None, exc
        took = clock() - start
        self.raw.append(took)
        self.segment.append(len(self.probes) - 1)
        self.total += took
        self.since += took
        if self.since >= self.every:
            self.probes.append(self.probe())
            self.since = 0.0
        return result, error, took

    @classmethod
    def for_processes(cls) -> "Meter":
        """A meter for calls that run one child process each."""
        return cls(0.0, process_probe, REFERENCE_PROCESS_S)

    def factors(self) -> list[float]:
        """Scale factor of each call so far, in call order."""
        if self.segment and self.segment[-1] == len(self.probes) - 1:
            self.probes.append(self.probe())
            self.since = 0.0
        return [
            2 * self.reference / (self.probes[s] + self.probes[s + 1]) for s in self.segment
        ]

    def scaled(self) -> list[float]:
        """Each call's time in reference seconds."""
        return [t * f for t, f in zip(self.raw, self.factors())]
