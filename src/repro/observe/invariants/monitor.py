"""Online invariant monitor: the paper's theorems as runtime assertions.

An :class:`InvariantMonitor` attaches to a
:class:`~repro.cluster.DsmCluster` and checks six
invariant classes while it goes, one checker module per structure, as
the paper argues recoverability one structure at a time: ``cgc``,
``llt``, ``vclock``, ``fifo``, ``recoverability`` and ``lock`` (DESIGN.md
§7.6 maps each to its rule; each module's docstring has its soundness
argument). It only reads: a monitored run is bit-identical to an
unmonitored one (golden-determinism test). The monitor is the checkers,
the bus they share, one violation sink and the flight record. A checker
is built as ``Checker(monitor)`` and has a ``name``, a ``checks`` count,
``subscriptions()``, its ``(kind, handler)`` pairs, and ``adopt()``,
which sets its memory from the live cluster; it may define ``forget()``
(drop every memo) and ``finish()`` (its end-of-run check).
It reports through ``monitor._violate`` and reaches no other checker: a
vector-time regression found by ``vclock`` reaches the recoverability
memos as :meth:`InvariantMonitor.forget`.

Built before ``run`` a monitor sees every step; built mid-run (a crash
sweep joins each point at its first crash step, from a breakpoint) each
checker adopts what it would remember after a *clean* prefix, so the
monitor reaches the verdicts a monitor attached from step 0 would
(DESIGN.md §7.6 has the adoption contract). Only a prefix free of
crashes and violations is adopted soundly: the sweep joins only where
its ``(now, seq)`` record shows the point's prefix is the monitored
reference run's.

On the first violation the
:class:`~repro.observe.invariants.recorder.FlightRecorder` ring is
snapshotted into a flight record; :meth:`flight_record` makes one on
demand (the CLI's end-of-run record). With ``ring_size=0`` there is no
ring and no dump, as crash sweeps run: a failing point is a
deterministic re-run of ``run_point`` under ``InvariantMonitor(cluster)``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.observe.invariants.cgc import CgcChecker
from repro.observe.invariants.fifo import FifoChecker
from repro.observe.invariants.llt import LltChecker
from repro.observe.invariants.lock import LockChecker
from repro.observe.invariants.recorder import FlightRecorder, node_snapshot
from repro.observe.invariants.recoverability import RecoverabilityChecker
from repro.observe.invariants.vclock import VclockChecker
from repro.sim.engine import back_ref
from repro.sim.trace import DELIVER, SEND

__all__ = ["INVARIANTS", "Violation", "InvariantMonitor"]

#: the checked invariant classes, in report order
INVARIANTS = ("cgc", "llt", "vclock", "fifo", "recoverability", "lock")

#: distinct violations kept; later ones are counted in
#: ``dropped_violations``
MAX_VIOLATIONS = 64


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation."""

    invariant: str  # one of INVARIANTS
    pid: int
    time: float
    step: int
    detail: str

    def render(self) -> str:
        return (
            f"{self.time * 1e3:10.4f} ms #{self.step:<7d} "
            f"[{self.invariant}] p{self.pid}: {self.detail}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class InvariantMonitor:
    """Continuously checks the paper-bound invariants of one cluster.
    Violations are deduplicated on (invariant, pid, detail) and capped
    at :data:`MAX_VIOLATIONS`; with a flight ring (``ring_size > 0``)
    the first one snapshots a flight record (:attr:`violation_dump`).
    """

    #: one checker per class, in dispatch order: a delivery is checked
    #: for FIFO before its clocks, and both before the cadenced scan
    CHECKERS = (
        CgcChecker, LltChecker, FifoChecker, VclockChecker,
        RecoverabilityChecker, LockChecker,
    )

    def __init__(self, cluster: Any, ring_size: int = 256) -> None:
        self.cluster = cluster
        #: the flight ring, or None (``ring_size`` 0: nothing reads a dump)
        self.recorder = FlightRecorder(ring_size) if ring_size > 0 else None
        self.violations: List[Violation] = []
        self.dropped_violations = 0
        self.violation_dump: Optional[Dict[str, Any]] = None
        self._seen: Set[Tuple[str, int, str]] = set()
        #: name -> checker, in dispatch order
        self.checkers = {c.name: c(self) for c in self.CHECKERS}
        for c in self.checkers.values():
            c.adopt()
        self._subscribe()

    def _subscribe(self) -> None:
        """Subscription order is dispatch order: a message is checked
        before the recorder (when there is one) rings it, an FT/recovery
        event is rung before it is checked — so a violation's flight
        record ends with what led to it, not with the message that
        revealed it."""
        engine = self.cluster.engine
        subs = [s for c in self.checkers.values() for s in c.subscriptions()]
        for kind, fn in subs:
            if kind in (SEND, DELIVER):
                engine.bus.subscribe(kind, fn)
        if self.recorder is not None:
            self.recorder.attach(engine)
        for kind, fn in subs:
            if kind not in (SEND, DELIVER):
                engine.bus.subscribe(kind, fn)

    @property
    def checks(self) -> Dict[str, int]:
        """invariant class -> checks made so far"""
        return {name: self.checkers[name].checks for name in INVARIANTS}

    def sink(self, invariant: str) -> Callable[[int, str], None]:
        """A checker's ``(pid, detail)`` violation sink for ``invariant``.

        The cluster's bus holds the checkers, and this monitor holds the
        cluster, so a sink reaches the monitor weakly: keep the monitor
        referenced while its run goes on."""
        return partial(InvariantMonitor._violate, back_ref(self), invariant)

    def _violate(self, invariant: str, pid: int, detail: str) -> None:
        """The one violation sink: dedup, cap, first-violation dump."""
        key = (invariant, pid, detail)
        if key in self._seen:
            return
        self._seen.add(key)
        if len(self.violations) >= MAX_VIOLATIONS:
            self.dropped_violations += 1
            return
        eng = self.cluster.engine
        v = Violation(invariant, pid, eng.now, eng.steps, detail)
        self.violations.append(v)
        if self.violation_dump is None and self.recorder is not None:
            self.violation_dump = self.flight_record(
                f"invariant violation: [{invariant}] p{pid}: {detail}"
            )

    def forget(self) -> None:
        """Nothing verified so far may be relied on: every checker that
        remembers verified structures drops them."""
        for c in self.checkers.values():
            if hasattr(c, "forget"):
                c.forget()

    def finish(self) -> List[Violation]:
        """Each checker's end-of-run check; returns all violations."""
        for c in self.checkers.values():
            if hasattr(c, "finish"):
                c.finish()
        return self.violations

    def flight_record(self, reason: str) -> Dict[str, Any]:
        """Assemble a post-mortem flight record at the current instant."""
        eng = self.cluster.engine
        traffic = self.cluster.network.traffic
        recorder = self.recorder
        return {
            "reason": reason,
            "time": eng.now,
            "step": eng.steps,
            "violations": [v.to_dict() for v in self.violations],
            "dropped_violations": self.dropped_violations,
            "checks": self.checks,
            "nodes": [node_snapshot(h) for h in self.cluster.hosts],
            "cluster": {
                "crashes": self.cluster.crashes,
                "recoveries": self.cluster.recoveries,
                "traffic_bytes": traffic.total_bytes,
                "traffic_msgs": traffic.total_msgs,
                "inflight_msgs": self.cluster.network.inflight_msgs,
            },
            "events": recorder.dump() if recorder is not None else [],
            "events_recorded": recorder.recorded if recorder is not None else 0,
        }

    def render_summary(self) -> str:
        """One-screen check/violation summary for the CLI."""
        checks = self.checks
        lines = [f"{'invariant':<14} {'checks':>8}   {'violations':>10}"]
        for k in INVARIANTS:
            n = sum(1 for v in self.violations if v.invariant == k)
            lines.append(f"{k:<14} {checks[k]:>8}   {n:>10}")
        total = len(self.violations)
        verdict = "ALL INVARIANTS HELD" if not total else (
            f"{total} VIOLATION(S)"
            + (f" (+{self.dropped_violations} dropped)"
               if self.dropped_violations else "")
        )
        lines.append(f"{'total':<14} {sum(checks.values()):>8}   {verdict}")
        return "\n".join(lines)
