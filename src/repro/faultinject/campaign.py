"""Crash-point enumeration, injection runs and the recovery oracle.

A sweep is three phases:

1. **Reference run** — failure-free, with a
   :func:`~repro.sim.trace.timeline` of the :data:`COUNTED` categories
   recording each event *with its engine step index*. Determinism makes
   ``(victim, step)`` a complete name for a crash point: any re-run with
   the same configs executes the identical event order up to the
   injection.
2. **Enumeration** — one table, :data:`CLASSES`, with a row per class
   and two shapes of row. A *trace* row reads the reference trace:
   every Nth event (``every``), the step before and the step of each
   lock acquisition or barrier event (``lock``, ``barrier``), and the
   midpoint of each checkpoint disk write (``ckpt_write``: the writer,
   and its buddy when ``REPL_BEGIN`` shows the write was replicated). A
   *window* row puts a second crash against the recovery window that a
   base crash at a reference anchor opens: inside it (``recovery``,
   ``double``) or after the base victim went live (``sequential``). A
   single-crash discovery run finds the window; it is injected and
   judged like any point, and one that fails is a ``failed`` point.
3. **Injection runs** — one fresh cluster per point with
   ``schedule_crash_at_step``; each must satisfy :func:`check_oracle`
   (recovery equivalence — the same bit-identical bar at k=2 as at
   k=1) or raise
   :class:`~repro.core.recovery.OverlappingFailureError` (explicit
   degradation, which the verdict, :func:`accepted`, allows only where
   the single-fault model runs out).

By default the online invariant monitor
(:class:`~repro.observe.invariants.monitor.InvariantMonitor`) rides along on the
reference run from step 0 and joins every injection run at its first
crash step: it is read-only, so the step indices stay transferable, and
it turns silently-wrong recoveries (trim bound overshoot, vector-clock
regression, lost rel/acq mirror entries) into explicit ``failed`` points
even when the oracle's end-state comparison would pass. Up to its first
crash a point *is* the reference run, which the monitor has checked
already; the reference records ``(now, seq)`` after every step, and a
point whose clock or scheduling counter differs at the join fails
(``prefix diverged``) instead of being judged by a monitor that skipped
a prefix it never checked.
"""

from __future__ import annotations

import json
import re
import weakref
from array import array
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.dsm.locks import token_holders
from repro.observe.latency import exact_percentile
from repro.sim.trace import (
    BARRIER_DONE,
    CKPT_WRITE_BEGIN,
    CKPT_WRITE_END,
    ENGINE_EVENT,
    LOCK_ACQUIRED,
    RECOVERY_BEGIN,
    RECOVERY_LIVE,
    REPL_BEGIN,
    TEXT,
    TraceEvent,
    timeline,
)

__all__ = [
    "CLASSES",
    "COUNTED",
    "DEFAULT_CLASSES",
    "SWEEP_SCHEMA",
    "ClassRow",
    "CrashPoint",
    "Schedule",
    "PointResult",
    "SweepSummary",
    "OracleViolation",
    "CrashSweep",
    "accepted",
    "check_oracle",
    "recovery_distributions",
    "render_sweep",
    "validate_sweep",
]

#: sweep JSON schema: points carry outcome counters and per-point
#: ``recovery_phases`` (one record per completed recovery: detect/
#: restore/handshake/replay/resume/total durations plus replica-fetch
#: counters), the summary the aggregated ``recovery_by_class``
#: distributions. :func:`validate_sweep` rejects any other schema.
SWEEP_SCHEMA = 2

#: the timeline categories the reference run records, all but ``llt``
#: and ``cgc``: ``every`` strides over their events and a window row's
#: anchors are fractions of them, so changing this set moves every
#: ``every`` point and every anchor of every recorded sweep
COUNTED = frozenset(category for category, _ in TEXT.values()) - {"llt", "cgc"}


@dataclass(frozen=True)
class ClassRow:
    """Where one crash-point class puts its crashes.

    A *trace* row (no ``anchors``) places one crash on the reference
    trace: with a ``marker`` (a bus event kind), at the step before and
    the step of each event of that kind; ``every`` takes the sweep's
    stride and ``ckpt_write`` the midpoint of each checkpoint write
    instead.

    A *window* row places a second crash after a base crash at each of
    ``anchors`` (fractions of the reference events), at ``fractions`` of
    the window that base opens: its recovery begin to its live switch,
    or, ``after_live``, the live switch to the end of the run. The
    victims are the nodes ``offsets`` after the base victim (``None``:
    every other node).
    """

    marker: Optional[str] = None
    anchors: Tuple[float, ...] = ()
    fractions: Tuple[float, ...] = ()
    offsets: Optional[Tuple[int, ...]] = None
    after_live: bool = False

    @property
    def overlaps(self) -> bool:
        """The second crash lands inside the base crash's recovery window."""
        return bool(self.anchors) and not self.after_live


#: the crash-point classes, in enumeration order
CLASSES: Dict[str, ClassRow] = {
    "every": ClassRow(),
    # just before an acquisition completes (token in flight) and just after
    "lock": ClassRow(marker=LOCK_ACQUIRED),
    "barrier": ClassRow(marker=BARRIER_DONE),
    "ckpt_write": ClassRow(),
    # the recovering node again (recovery must restart cleanly) and a
    # responder (an overlap: explicit degrade, or a buddy-replica fetch
    # when replication is on)
    "recovery": ClassRow(
        anchors=(0.45,), fractions=(0.25, 0.5, 0.75), offsets=(0, 1)
    ),
    # repeated single failures: the first victim answers the second
    # victim's handshake from logs it rebuilt itself; ring neighbours in
    # both directions and the lock managers all matter
    "sequential": ClassRow(
        anchors=(0.2, 0.45, 0.7), fractions=(0.02, 0.08, 0.2, 0.4, 0.7),
        after_live=True,
    ),
    # k=2: the cascading restart (0), both ends of the replica chain (+1:
    # the ring buddy, also a responder) and a plain responder (+2)
    "double": ClassRow(
        anchors=(0.2, 0.45, 0.7),
        fractions=(0.1, 0.25, 0.4, 0.55, 0.7, 0.85),
        offsets=(0, 1, 2),
    ),
}

#: what a sweep runs unless told otherwise: every class with at most one
#: crash inside a recovery window at a time (``repro crashsweep --faults
#: 2`` adds ``double``)
DEFAULT_CLASSES = (
    "every", "lock", "barrier", "ckpt_write", "recovery", "sequential",
)


class OracleViolation(AssertionError):
    """The recovery-equivalence oracle failed for an injected run."""


@dataclass(frozen=True)
class CrashPoint:
    """One injection target: fail-stop ``victim`` after engine step ``step``.

    ``base`` (step, victim) schedules a *first* crash before this one —
    the window classes' points sit against the recovery window that the
    base crash opens.
    """

    cls: str
    step: int
    victim: int
    base: Optional[Tuple[int, int]] = None


@dataclass
class PointResult:
    point: CrashPoint
    outcome: str  # recovered | no_crash | degraded | failed
    crashes: int = 0
    recoveries: int = 0
    error: Optional[str] = None
    #: one record per *completed* recovery in the injected run (from
    #: ``host.recovery_phases``, tagged with ``pid``); recoveries cut
    #: short by an overlapping kill leave no record
    recovery_phases: List[Dict[str, float]] = field(default_factory=list)


@dataclass
class SweepSummary:
    every: int
    classes: Tuple[str, ...]
    reference_steps: int
    reference_events: int
    reference_wall_time: float
    #: whether the swept cluster replicates (read off the reference run)
    replicate: bool = False
    results: List[PointResult] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def outcomes(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.results:
            out[r.outcome] = out.get(r.outcome, 0) + 1
        return out

    def failures(self) -> List[PointResult]:
        """The points the verdict (:func:`accepted`) does not accept."""
        return [r for r in self.results if not accepted(r, self.replicate)]

    @property
    def ok(self) -> bool:
        return not self.failures()

    def recovery_by_class(self) -> Dict[str, Dict[str, Any]]:
        return recovery_distributions(
            [
                (r.point.cls, rec)
                for r in self.results
                for rec in r.recovery_phases
            ]
        )

    def to_dict(self, **meta: Any) -> Dict[str, Any]:
        return {
            **meta,
            "schema": SWEEP_SCHEMA,
            "every": self.every,
            "replicate": self.replicate,
            "classes": list(self.classes),
            "reference": {
                "steps": self.reference_steps,
                "events": self.reference_events,
                "wall_time": self.reference_wall_time,
            },
            "outcomes": self.outcomes(),
            "ok": self.ok,
            "notes": self.notes,
            "recovery_by_class": self.recovery_by_class(),
            "points": [
                {
                    "class": r.point.cls,
                    "step": r.point.step,
                    "victim": r.point.victim,
                    "base": list(r.point.base) if r.point.base else None,
                    "outcome": r.outcome,
                    "crashes": r.crashes,
                    "recoveries": r.recoveries,
                    "error": r.error,
                    "recovery_phases": r.recovery_phases,
                }
                for r in self.results
            ],
        }

    def to_json(self, **meta: Any) -> str:
        return json.dumps(self.to_dict(**meta), indent=2, sort_keys=True)


def accepted(result: PointResult, replicate: bool) -> bool:
    """The verdict on one point of a cluster that does or does not
    ``replicate``. A ``failed`` point fails. A ``degraded`` one fails
    except where the single-fault model runs out: the cluster does not
    replicate, the point's class puts its second crash inside the base
    crash's recovery window, and the error names one of the point's two
    victims."""
    p = result.point
    if result.outcome != "degraded":
        return result.outcome != "failed"
    return not replicate and CLASSES[p.cls].overlaps and any(
        re.search(rf"\bp{pid}\b", result.error or "")
        for pid in (p.victim, p.base[1])
    )


#: phases of one recovery, in execution order (the keys every
#: ``recovery_phases`` record carries alongside ``total``)
_PHASES = ("detect", "restore", "handshake", "replay", "resume")

#: percentiles reported for per-class recovery-time distributions (small
#: populations, so these are *exact* sorted-list percentiles at rank
#: ``ceil(p/100*n)``, not log-bucket estimates)
_SWEEP_PCTS = (50.0, 90.0, 99.0)


def recovery_distributions(
    tagged: List[Tuple[str, Dict[str, float]]]
) -> Dict[str, Dict[str, Any]]:
    """Per-crash-class recovery-time distributions from ``(class,
    phase-record)`` pairs.

    For each class: count, mean/exact-percentiles/max of the end-to-end
    ``total``, plus the mean duration of each recovery phase — the
    anatomy of where recovery time goes under that failure mode.
    """
    per_class: Dict[str, List[Dict[str, float]]] = {}
    for cls, rec in tagged:
        per_class.setdefault(cls, []).append(rec)
    out: Dict[str, Dict[str, Any]] = {}
    for cls, recs in sorted(per_class.items()):
        totals = [r["total"] for r in recs]
        n = len(totals)
        out[cls] = {
            "count": n,
            "mean_total_s": sum(totals) / n,
            "max_total_s": max(totals),
            **{
                f"p{p:g}_total_s".replace(".", ""): exact_percentile(totals, p)
                for p in _SWEEP_PCTS
            },
            "phase_means_s": {
                ph: sum(r.get(ph, 0.0) for r in recs) / n
                for ph in _PHASES
            },
            "mean_replica_fetches": (
                sum(r.get("replica_fetches", 0) for r in recs) / n
            ),
        }
    return out


def render_recovery_by_class(by_class: Dict[str, Dict[str, Any]]) -> str:
    """ASCII table of per-class recovery-time distributions."""
    lines = [
        "recovery time by crash class (ms of virtual time)",
        f"{'class':<12} {'recs':>5} {'mean':>8} {'p50':>8} {'p90':>8} "
        f"{'p99':>8} {'max':>8}  dominant phase",
    ]
    for cls, d in sorted(by_class.items()):
        means = d.get("phase_means_s", {})
        dominant = max(means, key=means.get) if means else "-"
        ms = 1e3
        lines.append(
            f"{cls:<12} {d['count']:>5} {d['mean_total_s'] * ms:>8.3f} "
            f"{d['p50_total_s'] * ms:>8.3f} {d['p90_total_s'] * ms:>8.3f} "
            f"{d['p99_total_s'] * ms:>8.3f} {d['max_total_s'] * ms:>8.3f}  "
            f"{dominant}"
        )
    return "\n".join(lines)


def render_sweep(data: Dict[str, Any]) -> str:
    """One sweep as ``repro crashsweep`` prints it and ``repro report``
    shows it: points and outcomes per class, the verdict, the per-class
    recovery times and the notes. ``data`` is a
    :meth:`SweepSummary.to_dict` value, or its JSON read back, which
    :func:`validate_sweep` passed."""
    per_class: Dict[str, Dict[str, int]] = {}
    for p in data["points"]:
        counts = per_class.setdefault(p["class"], {})
        counts[p["outcome"]] = counts.get(p["outcome"], 0) + 1
    lines = [
        f"{'class':<12} {'points':>6} {'recovered':>9} {'no_crash':>8} "
        f"{'degraded':>8} {'failed':>6}"
    ]
    for cls in data["classes"]:
        counts = per_class.get(cls, {})
        lines.append(
            f"{cls:<12} {sum(counts.values()):>6} "
            f"{counts.get('recovered', 0):>9} "
            f"{counts.get('no_crash', 0):>8} "
            f"{counts.get('degraded', 0):>8} "
            f"{counts.get('failed', 0):>6}"
        )
    lines.append(
        f"{'total':<12} {len(data['points']):>6}   "
        + ("SWEEP OK" if data["ok"] else "SWEEP FAILED")
    )
    if data["recovery_by_class"]:
        lines += ["", render_recovery_by_class(data["recovery_by_class"])]
    lines += [f"note: {note}" for note in data["notes"]]
    return "\n".join(lines)


#: the numbers a ``recovery_by_class`` row must carry (the report reads them)
_BY_CLASS_NUMBERS = (
    "count", "mean_total_s", "p50_total_s", "p90_total_s", "p99_total_s",
    "max_total_s",
)


def validate_sweep(data: Any) -> List[str]:
    """Structural checks on a sweep artifact; empty list = valid. Any
    parsed JSON value may be passed: a wrong shape is an error in the
    list, never an exception."""

    def number(v: Any) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if not isinstance(data, dict) or "points" not in data:
        return ["not a sweep artifact: missing 'points'"]
    schema = data.get("schema", 1)  # the first artifacts carried no key
    if schema != SWEEP_SCHEMA:
        return [f"unsupported sweep schema {schema!r}: re-record with "
                "`repro crashsweep`"]
    errors = [
        f"sweep missing key {key!r}"
        for key in ("outcomes", "ok", "classes", "notes", "recovery_by_class")
        if key not in data
    ]
    if errors:
        return errors
    points = data["points"]
    if not isinstance(points, list) or not all(
        isinstance(p, dict) and {"class", "step", "victim", "outcome"} <= set(p)
        and isinstance(p["class"], str) and isinstance(p["outcome"], str)
        for p in points
    ):
        errors.append("points is not a list of crash-point objects")
    outcomes = data["outcomes"]
    if not isinstance(outcomes, dict) or not all(
        number(v) for v in outcomes.values()
    ):
        errors.append("outcomes is not a mapping of counts")
    if not isinstance(data["ok"], bool):
        errors.append("ok is not a boolean")
    for key in ("classes", "notes"):
        if not isinstance(data[key], list) or not all(
            isinstance(v, str) for v in data[key]
        ):
            errors.append(f"{key} is not a list of strings")
    by_class = data["recovery_by_class"]
    if not isinstance(by_class, dict):
        return errors + ["recovery_by_class is not a mapping"]
    for cls, row in by_class.items():
        if not isinstance(row, dict):
            errors.append(f"recovery_by_class[{cls!r}] is not an object")
            continue
        missing = [k for k in _BY_CLASS_NUMBERS if not number(row.get(k))]
        if missing:
            errors.append(f"recovery_by_class[{cls!r}] lacks {missing}")
        means = row.get("phase_means_s", {})
        if not isinstance(means, dict) or not all(
            number(v) for v in means.values()
        ):
            errors.append(
                f"recovery_by_class[{cls!r}].phase_means_s is not a "
                "mapping of numbers"
            )
    return errors


# ======================================================================
# the oracle
# ======================================================================


def check_oracle(cluster: Any, reference: Dict[str, bytes]) -> None:
    """Recovery equivalence: the post-injection run must be observably
    identical to the failure-free run.

    * every process finished its application main,
    * final shared-region contents are bit-identical to the reference,
    * no held messages leaked (``host.queued`` empty everywhere),
    * every lock any process knows has exactly one resting token (a
      manager that never touched its lock still holds the initial one),
    * stable storage is clean: no torn (marker-less) keys, and the
      checkpoint window invariants hold (the restart checkpoint is a
      committed store key; every retained page copy has a live record).
    """
    problems: List[str] = []
    for host in cluster.hosts:
        if not host.finished:
            problems.append(f"p{host.pid} did not finish")
        if host.queued:
            problems.append(
                f"p{host.pid} leaked {len(host.queued)} queued message(s)"
            )
        mgr = host.ckpt_mgr
        if mgr is not None:
            for problem in (mgr.torn_problem(), mgr.restart_problem()):
                if problem is not None:
                    problems.append(f"p{host.pid} {problem}")
            committed = mgr.store.committed_keys()
            for seqno in mgr.retained_seqnos:
                if seqno != 0 and ("ckpt", seqno) not in committed:
                    problems.append(
                        f"p{host.pid} retains page copies of checkpoint "
                        f"{seqno} but lost its record"
                    )
    tables = [h.proto.locks for h in cluster.hosts if h.proto is not None]
    for lock_id in sorted(set().union(*(t.known_locks() for t in tables))):
        tokens = len(token_holders(tables, lock_id))
        if tokens != 1:
            problems.append(f"lock {lock_id}: {tokens} tokens at end of run")
    for region in cluster.regions:
        got = cluster.shared_snapshot(region).tobytes()
        want = reference.get(region.name)
        if want is None:
            problems.append(f"region {region.name!r} missing from reference")
        elif got != want:
            diff = sum(1 for a, b in zip(got, want) if a != b)
            problems.append(
                f"region {region.name!r} diverged from the failure-free "
                f"run ({diff} of {len(want)} bytes differ)"
            )
    if problems:
        raise OracleViolation("; ".join(problems))


# ======================================================================
# the campaign
# ======================================================================


class CrashSweep:
    """Enumerates crash points of one (cluster, app) configuration and
    re-runs the app once per point.

    ``cluster_factory``/``app_factory`` must build *identically
    configured* fresh instances each call (determinism is what makes a
    step index transferable between runs); the cluster must have FT
    enabled.
    """

    def __init__(
        self,
        cluster_factory: Callable[[], Any],
        app_factory: Callable[[], Any],
        every: int = 25,
        classes: Tuple[str, ...] = DEFAULT_CLASSES,
        monitor: bool = True,
    ) -> None:
        unknown = set(classes) - set(CLASSES)
        if unknown:
            raise ValueError(f"unknown crash-point classes: {sorted(unknown)}")
        if every < 1:
            raise ValueError("--every must be >= 1")
        self.cluster_factory = cluster_factory
        self.app_factory = app_factory
        self.every = every
        self.classes = tuple(c for c in CLASSES if c in classes)
        #: attach the online invariant monitor to the reference run and,
        #: at its first crash step, every injection run (read-only, so
        #: step indices stay valid); a violation turns the point into
        #: ``failed``
        self.monitor = monitor
        self.reference_snapshots: Dict[str, bytes] = {}
        self.reference_trace: List[TraceEvent] = []
        #: cluster width and replication, read off the reference run's cluster
        self.num_procs = 0
        self.replicate = False
        self.reference_steps = 0
        #: the reference run's clock and scheduling counter once step s
        #: has run, at index s (16 B a step)
        self.reference_now = array("d")
        self.reference_seq = array("q")
        self.reference_wall_time = 0.0
        self.notes: List[str] = []
        #: recovery windows (begin, live, last step of the run)
        #: discovered by single-crash runs, keyed by the base crash
        #: (step, victim) — shared by the window classes so anchors are
        #: probed at most once
        self._windows: Dict[Tuple[int, int], Optional[Tuple[int, int, int]]] = {}
        #: discovery runs that did not pass, as ``failed`` points
        self.failed_discoveries: List[PointResult] = []

    def _attach_monitor(self, cluster: Any):
        if not self.monitor:
            return None
        from repro.observe import InvariantMonitor

        # no flight ring: a point reports a verdict, and a failing one is
        # re-run deterministically under a monitor that keeps its ring
        return InvariantMonitor(cluster, ring_size=0)

    # ------------------------------------------------------------------
    def run_reference(self) -> None:
        cluster = self.cluster_factory()
        if not cluster.ft_enabled:
            raise RuntimeError("crash sweep requires an FT-enabled cluster")
        engine = cluster.engine
        events = timeline(engine, COUNTED)
        monitor = self._attach_monitor(cluster)
        now, seq = array("d", [engine.now]), array("q")

        def record(_event: Any) -> None:
            # before step s runs: its clock, and the counter step s - 1 left
            now.append(engine.now)
            seq.append(engine._seq)

        engine.bus.subscribe(ENGINE_EVENT, record)
        result = cluster.run(self.app_factory())
        seq.append(engine._seq)
        if monitor is not None and monitor.finish():
            raise RuntimeError(
                "invariant violation in the failure-free reference run: "
                + "; ".join(v.render() for v in monitor.violations[:3])
            )
        self.reference_trace = events
        self.num_procs = cluster.config.num_procs
        self.replicate = cluster.replication
        self.reference_steps = engine.steps
        self.reference_now, self.reference_seq = now, seq
        self.reference_wall_time = result.wall_time
        self.reference_snapshots = {
            region.name: cluster.shared_snapshot(region).tobytes()
            for region in cluster.regions
        }

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def enumerate_points(self) -> List[CrashPoint]:
        """Every class's points, class by class in table order; a point
        a class places twice is run once."""
        if not self.reference_trace:
            self.run_reference()
        events = [e for e in self.reference_trace if e.step >= 1]
        points: Dict[CrashPoint, None] = {}
        for cls in self.classes:
            row = CLASSES[cls]
            place = self._window_points if row.anchors else self._trace_points
            for step, victim, base in place(cls, row, events):
                if step >= 1:
                    points.setdefault(CrashPoint(cls, step, victim, base))
        return list(points)

    def _trace_points(
        self, cls: str, row: ClassRow, events: List[TraceEvent]
    ) -> Iterator[Tuple[int, int, None]]:
        if row.marker is not None:
            for ev in events:
                if ev.event == row.marker:
                    yield ev.step - 1, ev.pid, None
                    yield ev.step, ev.pid, None
        elif cls == "every":
            for ev in events[:: self.every]:
                yield ev.step, ev.pid, None
        else:  # ckpt_write
            begins: Dict[Tuple[int, int], int] = {}  # (pid, seqno) -> step
            buddies: Dict[Tuple[int, int], int] = {}  # (pid, seqno) -> buddy
            for ev in events:
                if ev.event == REPL_BEGIN:
                    buddies[(ev.pid, ev.args[0])] = ev.args[1]
                elif ev.event == CKPT_WRITE_BEGIN:
                    begins[(ev.pid, ev.args[0])] = ev.step
                elif ev.event == CKPT_WRITE_END:
                    key = (ev.pid, ev.args[0])
                    b = begins.pop(key, None)
                    if b is None:
                        continue
                    # strictly inside the write: after it started, before
                    # the commit marker lands
                    mid = max(b, min((b + ev.step) // 2, ev.step - 1))
                    yield mid, ev.pid, None
                    if key in buddies:  # dies holding a torn replica record
                        yield mid, buddies.pop(key), None

    def _recovery_window(
        self, cls: str, anchor_step: int, anchor_pid: int
    ) -> Optional[Tuple[int, int, int]]:
        """Discovery run: the base crash alone, injected and judged like
        any point, reads the (begin, live) step window the victim's
        recovery opens and the run's last step. A discovery run that does
        not pass is a ``failed`` point of ``cls`` and opens no window.
        Cached — the classes share anchors."""
        base = (anchor_step, anchor_pid)
        if base in self._windows:
            return self._windows[base]
        cluster = self.cluster_factory()
        engine = cluster.engine
        begin: List[int] = []
        live: List[int] = []

        def on_begin(pid: int, _incarnation: int) -> None:
            if pid == anchor_pid and not begin:
                begin.append(engine.steps)

        def on_live(pid: int) -> None:
            if pid == anchor_pid and begin and not live:
                live.append(engine.steps)

        engine.bus.subscribe(RECOVERY_BEGIN, on_begin)
        engine.bus.subscribe(RECOVERY_LIVE, on_live)
        res = self.run_point(CrashPoint(cls, anchor_step, anchor_pid), cluster)
        window = None
        if res.outcome not in ("recovered", "no_crash"):
            self.failed_discoveries.append(replace(res, outcome="failed"))
        elif live and live[0] > begin[0] + 1:
            window = (begin[0], live[0], engine.steps)
        self._windows[base] = window
        return window

    def _window_points(
        self, cls: str, row: ClassRow, events: List[TraceEvent]
    ) -> Iterator[Tuple[int, int, Tuple[int, int]]]:
        if not events:
            return
        n = self.num_procs
        offsets = range(1, n) if row.offsets is None else row.offsets
        for anchor_frac in row.anchors:
            anchor = events[int(len(events) * anchor_frac)]
            base = (anchor.step, anchor.pid)
            window = self._recovery_window(cls, *base)
            if window is None:
                failed = any(
                    (r.point.step, r.point.victim) == base
                    for r in self.failed_discoveries
                )
                self.notes.append(
                    f"recovery window for base crash p{anchor.pid}@"
                    f"{anchor.step} "
                    + ("not found (discovery run failed)" if failed
                       else "too narrow")
                    + f"; {cls} points for this anchor skipped"
                )
                continue
            lo, hi = window[1:] if row.after_live else window[:2]
            for frac in row.fractions:
                step = min(lo + max(1, int((hi - lo) * frac)), hi - 1)
                for off in offsets:
                    yield step, (anchor.pid + off) % n, base

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    def _join(self, cluster: Any, step: int, joined: List[Any]) -> None:
        """At the point's first crash step, before the crash: the prefix
        must be the reference run's, then the monitor joins."""
        engine = cluster.engine
        if step > self.reference_steps or (engine.now, engine._seq) != (
            self.reference_now[step], self.reference_seq[step]
        ):
            raise RuntimeError(
                f"prefix diverged from the reference run at step {step}"
            )
        joined.append(self._attach_monitor(cluster))

    def run_point(self, point: CrashPoint, cluster: Any = None) -> PointResult:
        """Inject ``point`` into ``cluster`` (default: a fresh one from
        the factory; a caller's may carry read-only subscribers) and
        judge the run."""
        # here, not at module level: a failure-free run of any kind loads
        # neither recovery nor replication
        from repro.core.recovery import OverlappingFailureError

        if cluster is None:
            cluster = self.cluster_factory()
        first = point.step if point.base is None else min(
            point.step, point.base[0]
        )
        joined: List[Any] = []
        # registered before the crashes: at the same step it fires first;
        # the engine must not hold its own cluster
        ref = weakref.ref(cluster)
        cluster.engine.break_at_step(
            first, lambda: self._join(ref(), first, joined)
        )
        cluster.schedule_crash_at_step(point.victim, point.step)
        if point.base is not None:
            base_step, base_victim = point.base
            cluster.schedule_crash_at_step(base_victim, base_step)
        outcome, errors = "failed", []
        try:
            cluster.run(self.app_factory())
        except OverlappingFailureError as exc:
            # explicitly degraded: the cluster aborted mid-recovery, so
            # the monitor's in-flight state is not a verdict — drop it
            outcome = "degraded"
            errors.append(str(exc))
        except Exception as exc:  # deadlock / protocol invariant
            # the end-of-run checks below too: a deadlocked run's stalled
            # lock shows only once its network has drained
            errors.append(f"{type(exc).__name__}: {exc}")
        # none when the run ended before its first crash step
        monitor = joined[0] if joined and outcome != "degraded" else None
        if monitor is not None and monitor.finish():
            errors.append(
                "invariant violations: "
                + "; ".join(v.render() for v in monitor.violations[:3])
            )
        if not errors:
            try:
                check_oracle(cluster, self.reference_snapshots)
            except OracleViolation as exc:
                errors.append(str(exc))
        if not errors:
            crashed = cluster.crashes >= (2 if point.base else 1)
            outcome = "recovered" if crashed else "no_crash"
        return PointResult(
            point,
            outcome,
            crashes=cluster.crashes,
            recoveries=cluster.recoveries,
            error="; ".join(errors) or None,
            # every completed recovery, tagged with its pid (recoveries
            # cut short by a second kill leave no record)
            recovery_phases=[
                dict(rec, pid=host.pid)
                for host in cluster.hosts
                for rec in host.recovery_phases
            ],
        )

    # ------------------------------------------------------------------
    def run(
        self, progress: Optional[Callable[[PointResult], None]] = None
    ) -> SweepSummary:
        points = self.enumerate_points()
        summary = SweepSummary(
            every=self.every,
            classes=self.classes,
            reference_steps=self.reference_steps,
            reference_events=len(self.reference_trace),
            reference_wall_time=self.reference_wall_time,
            replicate=self.replicate,
            notes=list(self.notes),
        )
        # discovery runs that failed first: enumeration has run them
        for res in chain(self.failed_discoveries, map(self.run_point, points)):
            summary.results.append(res)
            if progress is not None:
                progress(res)
        return summary


@dataclass(frozen=True)
class Schedule:
    """One deterministic run, as a hashable, picklable value: workload
    ``app`` with ``config`` overrides on ``procs`` FT nodes, log-overflow
    policy at ``l``, buddy replication on or off, optionally one crash
    ``point``. ``config`` is ``(field, value)`` pairs sorted by field (a
    mapping is sorted into them). The cluster and the apps are imported
    only when a schedule builds them."""

    app: str
    procs: int
    l: float = 0.1
    replicate: bool = False
    config: Tuple[Tuple[str, Any], ...] = ()
    point: Optional[CrashPoint] = None

    def __post_init__(self) -> None:
        pairs = tuple(sorted(dict(self.config).items()))
        object.__setattr__(self, "config", pairs)

    def cluster(self, net_config: Any = None) -> Any:
        """A fresh cluster (default network: flat); the command line's
        FT runs build theirs here too."""
        from repro import DsmCluster, DsmConfig
        from repro.core import FtConfig, LogOverflowPolicy

        return DsmCluster(
            DsmConfig(num_procs=self.procs), net_config=net_config, ft=True,
            ft_config=FtConfig(replicate=self.replicate),
            policy_factory=lambda pid, fp: LogOverflowPolicy(self.l, fp),
        )

    def make_app(self) -> Any:
        from repro.apps import make_app

        return make_app(self.app, **dict(self.config))

    def sweep(self, **kw: Any) -> CrashSweep:
        """A sweep of this run; ``kw`` are :class:`CrashSweep`'s options."""
        return CrashSweep(self.cluster, self.make_app, **kw)

    def run(self) -> PointResult:
        """The reference run, then :attr:`point` in a fresh cluster,
        monitor and oracle on: the result as :func:`accepted` judges it
        (a degrade it does not allow is ``failed``)."""
        sweep = self.sweep(classes=(self.point.cls,))
        sweep.run_reference()
        res = sweep.run_point(self.point)
        if accepted(res, self.replicate):
            return res
        return replace(res, outcome="failed")
