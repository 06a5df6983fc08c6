"""Host speed: a fixed reference unit, timed while the benchmark measures.

On a shared virtual host the CPU speed a process gets drifts, by up to
a factor of two within minutes (neighbours on the same cores and
caches), and it moves every timing of the program with it.  To keep
that drift out of the end-to-end timings, a timer signal runs
:func:`unit` -- a fixed piece of pure-Python work that shares no code
with ``repro``: a pointer chase through a 1 MiB table, then integer
arithmetic -- about :data:`HZ` times a second for as long as
:meth:`HostSpeed.sampling` is active, and records how long each run took.  A measured time is then
reported at reference speed: multiplied by :data:`NOMINAL_S` over the
median unit time of the same interval (:func:`factor`).  The handler's
own time is subtracted from every interval it fell into.

A slower program is slower against an unchanged unit, so a regression
shows in full; what cancels is whatever slows the unit and the program
alike.  The raw, unscaled figures are kept in the run report.

The set-up probe imports this module before it starts timing, so it
imports nothing that the interpreter has not loaded at start-up beyond
``array`` and ``signal``.
"""

from __future__ import annotations

import signal
import time
from array import array
from contextlib import contextmanager
from typing import Iterator

__all__ = ["HZ", "MIN_SAMPLES", "NOMINAL_S", "TABLE_SIZE", "HostSpeed", "factor", "unit"]

#: Reference units run per second while sampling.
HZ = 50.0
#: Fewest samples a factor rests on; a shorter interval is topped up with
#: units run right after it.
MIN_SAMPLES = 9
#: Median seconds of one :func:`unit` between the service's calls on the
#: reference host (the 2-core virtual host the benchmark was written on,
#: in a quiet spell).  Times are reported as they would read there.
NOMINAL_S = 180e-6


#: Entries of the chase table: 2**17 machine words, 1 MiB, far more than
#: a core's first-level cache holds.
TABLE_SIZE = 1 << 17
#: ``i -> (a*i + c) mod 2**17`` with ``c`` odd and ``a - 1`` a multiple of
#: 4 is one cycle through every entry, in scattered order.
_TABLE = array("q", [(1103515245 * i + 12345) % TABLE_SIZE for i in range(TABLE_SIZE)])
_CURSOR = [0]


def unit() -> int:
    """The reference work: 600 dependent loads from the table, then arithmetic.

    The loads make it feel a neighbour's cache and memory traffic, as the
    service's folds do; the arithmetic makes it feel a slower core, as
    every other step does.  See ``README.md`` for the units tried.
    """
    table, i = _TABLE, _CURSOR[0]
    for _ in range(600):
        i = table[i]
    _CURSOR[0] = i
    acc = 0
    for k in range(1500):
        acc += k * k % 7
    return acc


def factor(samples: list[float]) -> float:
    """What a time measured while *samples* were taken is multiplied by."""
    if not samples:
        raise ValueError("no reference samples")
    ordered = sorted(samples)
    half = len(ordered) // 2
    median = ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2.0
    return NOMINAL_S / median


class HostSpeed:
    """Reference-unit samples and the time spent taking them.

    Single-threaded, like the benchmark: the handler runs in the main
    thread between bytecodes of whatever the benchmark is timing.
    """

    def __init__(self) -> None:
        #: Seconds each unit took, in the order they ran.
        self.samples: list[float] = []
        #: Seconds spent in the handler so far; subtract its growth over an
        #: interval from that interval's measured time.
        self.spent = 0.0

    def _tick(self, _signum: int, _frame: object) -> None:
        clock = time.perf_counter
        start = clock()
        unit()
        mid = clock()
        self.samples.append(mid - start)
        self.spent += clock() - start

    def factor_since(self, mark: int, least: int = MIN_SAMPLES) -> float:
        """:func:`factor` of the samples from index *mark* on.

        Tops them up to *least* with units run now, so an interval shorter
        than a few ticks still gets a factor.
        """
        clock = time.perf_counter
        while len(self.samples) - mark < least:
            start = clock()
            unit()
            self.samples.append(clock() - start)
        return factor(self.samples[mark:])

    @contextmanager
    def sampling(self) -> Iterator[HostSpeed]:
        """Run the reference unit on a timer for the ``with`` block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 1.0 / HZ, 1.0 / HZ)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
