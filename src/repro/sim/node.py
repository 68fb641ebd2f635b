"""Per-process CPU time accounting.

Every second of virtual time a process spends is attributed to one of the
buckets of the paper's Figure 3 breakdown:

* ``COMPUTE`` — application computation,
* ``PAGE_WAIT`` — blocked waiting for a page from its home,
* ``LOCK_WAIT`` — blocked in a lock acquire,
* ``BARRIER_WAIT`` — blocked at a barrier,
* ``OVERHEAD`` — protocol work (fault/message handlers, diff creation in
  the base protocol, synchronization primitives),
* ``LOG_CKPT`` — fault-tolerance logging and checkpointing (volatile-log
  writes, twin/diff work added by FT, and stable-storage writes).

Handlers that serve *remote* requests (e.g. a home answering page
fetches) also consume the serving node's CPU. The simulator charges that
work as "handler debt": it accumulates while the app computes and is
drained into the OVERHEAD bucket at the node's next DSM operation, which
models CPU stealing without preemptive scheduling.
"""

from __future__ import annotations

import enum
from typing import Dict, Tuple

__all__ = ["TimeBucket", "TimeStats", "CpuModel"]


class TimeBucket(enum.Enum):
    COMPUTE = "compute"
    PAGE_WAIT = "page_wait"
    LOCK_WAIT = "lock_wait"
    BARRIER_WAIT = "barrier_wait"
    OVERHEAD = "overhead"
    LOG_CKPT = "log_ckpt"

    # members are singletons compared by identity; ``Enum.__hash__`` is a
    # Python-level ``hash(self._name_)``, paid on every charge below
    __hash__ = object.__hash__


#: the buckets in declaration order, iterated once rather than per process
_BUCKETS = tuple(TimeBucket)


class TimeStats:
    """Accumulated virtual seconds per bucket for one process."""

    def __init__(self) -> None:
        self.seconds: Dict[TimeBucket, float] = dict.fromkeys(_BUCKETS, 0.0)

    def add(self, bucket: TimeBucket, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative time charge: {seconds}")
        self.seconds[bucket] += seconds

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def fraction(self, bucket: TimeBucket) -> float:
        t = self.total
        return self.seconds[bucket] / t if t > 0 else 0.0

    def merged(self, other: "TimeStats") -> "TimeStats":
        out = TimeStats()
        for b in TimeBucket:
            out.seconds[b] = self.seconds[b] + other.seconds[b]
        return out

    def as_dict(self) -> Dict[str, float]:
        return {b.value: self.seconds[b] for b in TimeBucket}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{b.value}={v:.3f}" for b, v in self.seconds.items())
        return f"TimeStats({parts})"


class CpuCosts:
    """Per-operation CPU cost constants (seconds), Pentium-II class.

    These drive the OVERHEAD and LOG_CKPT buckets; they are deliberately
    simple linear models (fixed + per-byte) in the spirit of the paper's
    measured handler costs.
    """

    page_fault_handler = 15e-6  # trap + request construction
    message_handler = 8e-6  # generic protocol handler fixed cost
    twin_create_per_byte = 1.0 / 180e6  # memcpy of a page
    diff_compute_per_byte = 1.0 / 120e6  # word-compare scan
    diff_apply_per_byte = 1.0 / 180e6
    log_append_per_byte = 1.0 / 200e6  # volatile-memory copy
    checkpoint_pack_per_byte = 1.0 / 150e6


class CpuModel:
    """Tracks handler debt for one node and issues time charges."""

    #: every node runs on the same CPU
    costs = CpuCosts

    def __init__(self) -> None:
        self.handler_debt: float = 0.0
        self.stats = TimeStats()

    def accrue_handler(self, seconds: float) -> None:
        """Record CPU consumed by an asynchronous protocol handler."""
        if seconds < 0:
            raise ValueError("negative handler cost")
        self.handler_debt += seconds

    # driven with ``yield from``: a one-delay tuple (the engine's delay
    # effect is the float itself), or () (no event) when nothing is owed,
    # not a generator per call
    def drain_debt(self) -> Tuple[float, ...]:
        """Charge accumulated handler debt to OVERHEAD; yields the delay."""
        debt, self.handler_debt = self.handler_debt, 0.0
        if debt > 0:
            self.stats.seconds[TimeBucket.OVERHEAD] += debt
            return (debt,)
        return ()

    def charge(self, bucket: TimeBucket, seconds: float) -> Tuple[float, ...]:
        """Charge ``seconds`` to ``bucket``, advancing virtual time."""
        if seconds < 0:
            raise ValueError(f"negative time charge: {seconds}")
        self.stats.seconds[bucket] += seconds
        return (seconds,) if seconds > 0 else ()
