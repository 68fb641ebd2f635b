"""Calibration kernel: the ledger's unit of host time.

On a shared box the same code runs up to 1.5x slower from one second to
the next. CPU time tracks wall time and no steal is reported, so the
cause is contention for the core, not descheduling. The box flips
between a fast and a slow state within a second and stalls for up to
half a second now and then, so one kernel pass before and one after a
5 s repetition say little about the repetition itself: that scheme left
an 11-15 % spread between repetitions here, against 14-24 % raw.

So the kernel is cut into slices of about 1.5 ms, and a
:class:`Sampler` runs one slice every 30 ms *during* the repetition,
from a ``SIGALRM`` handler. A slice does a fixed amount of the kind of
work the simulator does: generator resumption, dict/tuple/attribute
traffic and 4 KB ``numpy`` array operations. One ``cal`` is
:data:`SLICES_PER_CAL` slices, about 0.1 s. A repetition's wall time,
less the time spent in slices, divided by the unit its own slices give,
is its host time in ``cal``: it moves with the code and not with the
neighbours. Measured spread between single repetitions: 3-5 %.

The kernel must never import ``repro``: a change to the simulator must
not be able to change the unit it is measured in.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

import numpy as np

#: outer iterations of one slice; fixed, because the unit is the work
SLICE_ROUNDS = 30
#: slices in one ``cal``
SLICES_PER_CAL = 64
#: seconds one ``cal`` takes on this box when nothing disturbs it: what
#: ``setup_s`` is converted back to seconds with, so that it reads like
#: the wall clock in a quiet hour and does not follow the neighbours
REF_UNIT_S = 0.1
#: seconds between slices while a :class:`Sampler` runs
PERIOD_S = 0.03
#: a slice slower than this multiple of the lower quartile was stalled,
#: not slowed, and counts as that multiple (the slow state is 1.5x)
STALL_CLIP = 2.0

_EVENTS = 100
_PAGE = 4096


class _Slot:
    __slots__ = ("owner", "clock", "hits")

    def __init__(self) -> None:
        self.owner = 0
        self.clock = (0, 0, 0, 0, 0, 0, 0, 0)
        self.hits = 0


def _ticker(n: int):
    for i in range(n):
        yield i


_page = np.arange(_PAGE, dtype=np.uint8)
_twin = _page.copy()


def run_slice() -> float:
    """Run one slice of the kernel; return its wall time in seconds."""
    page, twin = _page, _twin
    clock = np.zeros(128, dtype=np.int64)
    table: dict = {}
    slot = _Slot()
    t0 = time.perf_counter()
    for r in range(SLICE_ROUNDS):
        # engine-like: resume a coroutine, file what it yields
        for i in _ticker(_EVENTS):
            key = (r & 7, i & 31)
            entry = table.get(key)
            if entry is None:
                table[key] = (i, r)
            else:
                table[key] = (entry[0] + 1, r)
            slot.owner = i
            slot.hits += 1
            slot.clock = slot.clock[:3] + (i,) + slot.clock[4:]
        # diff-like and vclock-like: page-sized and clock-sized arrays
        page[r] ^= 0xFF
        changed = np.flatnonzero(page != twin)
        twin[changed] = page[changed]
        other = clock.copy()
        other[r & 127] += 1
        if not (clock <= other).all():
            raise AssertionError("calibration kernel is broken")
        clock = np.maximum(clock, other)
    return time.perf_counter() - t0


def unit_s(slices: List[float]) -> float:
    """Seconds per ``cal`` given the slice times of one measurement.

    The mean, because a repetition's wall time is the mean over the
    states it ran through; clipped, because a stall that happens to hit
    a 1.5 ms slice says nothing about the other 28.5 ms.
    """
    clip = STALL_CLIP * statistics.quantiles(slices, n=4)[0]
    return SLICES_PER_CAL * statistics.fmean(min(s, clip) for s in slices)


def calibrate() -> float:
    """One whole pass of the kernel, back to back: seconds per ``cal``.

    For the traced repetition, where slices under the profiler would
    measure the profiler: a pass before and a pass after it.
    """
    return unit_s([run_slice() for _ in range(SLICES_PER_CAL)])


class Sampler:
    """Runs one slice every :data:`PERIOD_S` seconds until stopped.

    ``SIGALRM`` handlers run in the main thread between two bytecodes,
    so a slice never overlaps the code it interrupts; :meth:`clock` is
    the clock that leaves the slices out.
    """

    def __init__(self) -> None:
        self.slices: List[float] = []
        self._spent_s = 0.0
        # installed once and left in place: an alarm already on its way
        # when the timer is disarmed must still find a handler
        signal.signal(signal.SIGALRM, self._on_alarm)

    def clock(self) -> float:
        """Wall seconds, less every second spent in slices so far."""
        return time.perf_counter() - self._spent_s

    def _on_alarm(self, _signum: int, _frame: object) -> None:
        t0 = time.perf_counter()
        self.slices.append(run_slice())
        self._spent_s += time.perf_counter() - t0

    def start(self) -> None:
        self.slices = []
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Stop sampling; return the unit (seconds per ``cal``) measured.

        A repetition too short for a quartile of slices is topped up
        with slices run back to back.
        """
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        while len(self.slices) < 8:
            self.slices.append(run_slice())
        return unit_s(self.slices)
