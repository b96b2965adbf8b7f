"""The host's speed, from a fixed computation timed next to each call.

The benchmark runs on shared hosts whose speed changes by half within
seconds, as other jobs come and go, on each core on its own.  So each
timed call is flanked by probes: a fixed piece of work of the kind the call
does, timed in the same process just before and just after the call.  The call's latency times ``Probe.speed`` of the probes'
median time is its latency at the speed of the recorded host, on which the
work's median time is its nominal time.

There are two works.  ``rows`` is pure-Python work on rows of integers, as
in the triangle and the graph oracles: next to an in-process ``beta`` call
of a tall shape it tracked the call closely (over 90 seconds in which both
changed speed by 40%, their ratio changed by 4%, correlation 0.98).
``digits`` squares a big power and writes it in decimal, which is where a
``beta`` call of a wide shape, and a ``triangle`` dump, spends its time;
such work changes speed far less with the host than interpreted code does
(by 8% where ``rows`` changed by 70%), so ``rows`` would over-correct it.  Neither shares code with the
program, so a change to the program moves the scaled time as it moves the
raw one.  Runs print the raw times as notes.

``digits`` writes a number of 7634 digits, past Python's default limit of
4300: the benchmark's processes run with PYTHONINTMAXSTRDIGITS=0.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass


def _rows() -> int:
    row = [1] * 40
    for k in range(2, 200):
        total = 0
        new = []
        for c in row:
            total = c * k + total
            new.append(total)
        row = new
    return len(str(row[-1] ** 4))


def _digits() -> int:
    x = 3**8000
    return len(str(x * (x + 1)))


# Each work and its median time on the recorded host (2 cores, Python 3.11.7).
WORKS = {"rows": (_rows, 0.0012), "digits": (_digits, 0.0011)}


@dataclass(frozen=True)
class Probe:
    """count timed runs of one work, next to a call."""

    work: str
    count: int

    def times(self) -> list[float]:
        """Seconds each of count runs of the work takes now."""
        run = WORKS[self.work][0]
        times = []
        for _ in range(self.count):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        return times

    def speed(self, times: list[float]) -> float:
        """How many times faster than the recorded host the host ran the probes.

        A time measured next to them, multiplied by it, is at the recorded
        host's speed.
        """
        return WORKS[self.work][1] / statistics.median(times)
