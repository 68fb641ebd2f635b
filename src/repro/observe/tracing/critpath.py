"""Critical-path analysis over a :class:`SpanTracer` span DAG.

``compute_critical_path`` walks the terminal span (the last application
main to finish) *backwards* through virtual time, attributing every
second of the end-to-end run to a cause:

* a **wait** ends at the current point → the wait is on the path. If a
  causal edge ended it, the path attributes the segment from the edge's
  send time to the wait's end (message flight + blocked time) to that
  cause — "fetch-wait on p3", "lock-wait behind p1", "barrier straggler
  p5" — and *jumps to the sender's timeline* at the send instant. A
  locally satisfied wait (self-grant, home-local fetch) stays on the
  same timeline.
* no wait covers the current point → the **gap** back to the previous
  wait is attributed by overlapping op spans, in precedence order
  compute → ckpt-disk → recovery → down (a victim's failure-detection
  window), with the unexplained remainder
  charged to protocol ``overhead`` (handler debt, flushes, logging —
  exactly what the OVERHEAD/LOG_CKPT buckets hold).

Each wait is consumed at most once (per-node high-water pointers), so
the walk terminates; segments come back in chronological order and
their durations sum to the terminal span's end time.

``reconcile_with_time_stats`` checks the tentpole invariant: per node,
the sum of span self-times per kind must equal the
:class:`~repro.sim.node.TimeStats` bucket totals within tolerance.
Wait spans are exact by construction (built from the same ``stats.add``
calls); compute spans are exact because ``proto.compute`` is the only
COMPUTE charger. Tolerances absorb float roundoff of ``t1 - t0`` versus
the exactly accumulated ``seconds``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.sim.node import TimeBucket

from repro.observe.tracing.spans import Span, SpanTracer, WAIT_KINDS

__all__ = [
    "CritSegment",
    "compute_critical_path",
    "per_cause_totals",
    "node_time_totals",
    "reconcile_with_time_stats",
    "worst_lock_chains",
    "render_critpath_report",
]

_EPS = 1e-12

#: buckets the span DAG must reconcile with (OVERHEAD/LOG_CKPT are
#: charged piecemeal inside handlers and have no dedicated spans)
RECONCILED_BUCKETS = (
    TimeBucket.COMPUTE,
    TimeBucket.PAGE_WAIT,
    TimeBucket.LOCK_WAIT,
    TimeBucket.BARRIER_WAIT,
)

#: reconciliation tolerances (module docstring)
RECONCILE_REL_TOL = 1e-6
RECONCILE_ABS_TOL = 1e-9

#: lock chains the report lists
WORST_CHAINS = 5

_BUCKET_KIND = {
    TimeBucket.COMPUTE: "compute",
    TimeBucket.PAGE_WAIT: "page_wait",
    TimeBucket.LOCK_WAIT: "lock_wait",
    TimeBucket.BARRIER_WAIT: "barrier_wait",
}


@dataclass
class CritSegment:
    """One chronological slice of the critical path."""

    pid: int
    t0: float
    t1: float
    cause: str  # per-cause total key ("compute", "fetch-wait on p3", ...)
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def _wait_cause_label(span: Span, edge) -> str:
    if span.kind == "page_wait":
        if edge is None:
            return "page-wait (local)"
        if edge.msg_type == "DiffMsg":
            return f"diff-wait on p{edge.src}"
        return f"fetch-wait on p{edge.src}"
    if span.kind == "lock_wait":
        if edge is None:
            return "lock-wait (local)"
        if edge.msg_type == "LockForward":
            return f"lock-wait via p{edge.src}"
        return f"lock-wait behind p{edge.src}"
    if span.kind == "barrier_wait":
        if edge is None:
            return "barrier-wait"
        if edge.msg_type == "BarrierArrive":
            return f"barrier straggler p{edge.src}"
        return f"barrier-wait (release from p{edge.src})"
    return span.kind


class _GapIndex:
    """Per-pid sorted op spans for attributing non-wait gaps."""

    def __init__(self, tracer: SpanTracer) -> None:
        self.by_kind: Dict[str, Dict[int, List[Span]]] = {
            "compute": defaultdict(list),
            "ckpt_write": defaultdict(list),
            "recovery": defaultdict(list),
            "down": defaultdict(list),
        }
        for s in tracer.spans:
            if s.status in ("closed", "abandoned") and s.kind in self.by_kind:
                self.by_kind[s.kind][s.pid].append(s)
        self._t1s: Dict[Tuple[str, int], List[float]] = {}
        for kind, per_pid in self.by_kind.items():
            for pid, spans in per_pid.items():
                spans.sort(key=lambda s: (s.t0, s.t1))
                self._t1s[(kind, pid)] = [s.t1 for s in spans]

    def attribute(
        self, pid: int, a: float, b: float, out: List[CritSegment]
    ) -> None:
        """Attribute the gap ``(a, b]`` on ``pid``; appends to ``out``.

        ``out`` is the backward walk's segment list (reversed at the
        end), so pieces are appended latest-first.
        """
        if b - a <= _EPS:
            return
        local: List[CritSegment] = []
        pieces = [(a, b)]
        for kind, label in (
            ("compute", "compute"),
            ("ckpt_write", "ckpt-disk"),
            ("recovery", "recovery"),
            ("down", "down (detection)"),
        ):
            spans = self.by_kind[kind].get(pid)
            if not spans:
                continue
            t1s = self._t1s[(kind, pid)]
            nxt: List[Tuple[float, float]] = []
            for ra, rb in pieces:
                cur = ra
                # spans with t1 > ra are the only possible overlaps;
                # spans are disjoint per pid (sequential coroutines)
                for s in spans[bisect_right(t1s, ra) :]:
                    if s.t0 >= rb:
                        break
                    lo, hi = max(s.t0, cur), min(s.t1, rb)
                    if lo > cur + _EPS:
                        nxt.append((cur, lo))
                    if hi > lo + _EPS:
                        local.append(CritSegment(pid, lo, hi, label, s.detail))
                    cur = max(cur, hi)
                if rb > cur + _EPS:
                    nxt.append((cur, rb))
            pieces = nxt
            if not pieces:
                break
        for ra, rb in pieces:
            local.append(CritSegment(pid, ra, rb, "overhead"))
        out.extend(sorted(local, key=lambda s: -s.t0))


def compute_critical_path(tracer: SpanTracer) -> List[CritSegment]:
    """Backward walk from the last-finishing app span; see module doc."""
    app_spans = [
        s for s in tracer.spans if s.kind == "app" and s.status == "closed"
    ]
    if not app_spans:
        return []
    terminal = max(app_spans, key=lambda s: (s.t1, -s.pid))

    waits: Dict[int, List[Span]] = defaultdict(list)
    for s in tracer.spans:
        if s.kind in WAIT_KINDS and s.status == "closed":
            waits[s.pid].append(s)
    for spans in waits.values():
        spans.sort(key=lambda s: (s.t1, s.t0))
    wait_t1s = {pid: [s.t1 for s in spans] for pid, spans in waits.items()}
    # exclusive high-water mark: waits[pid][hi:] are consumed/ahead
    hi = {pid: len(spans) for pid, spans in waits.items()}

    # arrival history per pid, for handler chaining: protocol handlers
    # run synchronously at the delivery instant (their CPU cost becomes
    # deferred debt), so a message sent at time t from a node whose app
    # is blocked was sent by the handler of a message *delivered at
    # exactly t* — the walk follows that trigger edge backwards
    arrivals: Dict[int, List] = defaultdict(list)
    for e in tracer.edges:
        if e.status == "delivered":
            arrivals[e.dst].append(e)
    arr_t1s = {pid: [e.t_recv for e in lst] for pid, lst in arrivals.items()}

    edges = tracer.edges
    gaps = _GapIndex(tracer)
    segments: List[CritSegment] = []
    pid, t = terminal.pid, terminal.t1

    while t > _EPS:
        pid_waits = waits.get(pid, ())
        idx = (
            bisect_right(wait_t1s[pid], t + _EPS, 0, hi[pid]) - 1
            if pid_waits
            else -1
        )
        w = pid_waits[idx] if idx >= 0 else None
        if w is not None and w.t1 >= t - _EPS:
            # a wait ends here — it is on the path
            hi[pid] = idx
            edge = edges[w.cause_edge] if w.cause_edge is not None else None
            label = _wait_cause_label(w, edge)
            if edge is not None and edge.t_send < t - _EPS:
                segments.append(
                    CritSegment(pid, edge.t_send, t, label, w.detail)
                )
                pid, t = edge.src, edge.t_send
            else:
                start = min(w.t0, t)
                if t - start > _EPS:
                    segments.append(CritSegment(pid, start, t, label, w.detail))
                t = start
            continue
        # no wait ends here: if a message was delivered to this node at
        # exactly this instant, the current point is inside its handler
        # (e.g. the barrier manager releasing on the last arrival) —
        # chain through the trigger edge to the sender's timeline
        lst = arrivals.get(pid)
        if lst:
            j = bisect_right(arr_t1s[pid], t + _EPS) - 1
            if j >= 0 and t - lst[j].t_recv <= _EPS:
                trig = lst[j]
                if trig.t_send < t - _EPS:
                    segments.append(
                        CritSegment(
                            pid,
                            trig.t_send,
                            t,
                            f"msg flight {trig.msg_type}",
                            f"p{trig.src}->p{trig.dst}",
                        )
                    )
                    pid, t = trig.src, trig.t_send
                    continue
        # a plain gap: attribute back to the previous wait end (or 0)
        floor = w.t1 if w is not None else 0.0
        gaps.attribute(pid, floor, t, segments)
        t = floor
        if w is None:
            break
        hi[pid] = idx + 1

    segments.reverse()
    return segments


def per_cause_totals(segments: Sequence[CritSegment]) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for seg in segments:
        totals[seg.cause] += seg.duration
    return dict(totals)


def node_time_totals(tracer: SpanTracer) -> Dict[int, Dict[str, float]]:
    """Per-node span self-time sums, final incarnation only.

    A crash discards the victim's CpuModel with the incarnation, so the
    final ``TimeStats`` covers only the last incarnation — the span sums
    must filter the same way to reconcile.
    """
    hosts = tracer.hosts
    totals: Dict[int, Dict[str, float]] = {
        h.pid: {_BUCKET_KIND[b]: 0.0 for b in RECONCILED_BUCKETS}
        for h in hosts
    }
    final_inc = {h.pid: h.crashed_count for h in hosts}
    for s in tracer.spans:
        if s.status != "closed" or s.incarnation != final_inc[s.pid]:
            continue
        if s.kind in totals[s.pid]:
            totals[s.pid][s.kind] += s.duration
    return totals


def reconcile_with_time_stats(tracer: SpanTracer) -> List[str]:
    """Cross-check span sums against TimeStats within
    :data:`RECONCILE_REL_TOL`/:data:`RECONCILE_ABS_TOL`; empty list =
    reconciled."""
    errors: List[str] = []
    totals = node_time_totals(tracer)
    for host in tracer.hosts:
        proto = host.proto
        if proto is None:  # crashed and never recovered (shouldn't happen)
            continue
        stats = proto.cpu.stats
        for bucket in RECONCILED_BUCKETS:
            want = stats.seconds[bucket]
            got = totals[host.pid][_BUCKET_KIND[bucket]]
            if abs(got - want) > max(
                RECONCILE_ABS_TOL, RECONCILE_REL_TOL * abs(want)
            ):
                errors.append(
                    f"p{host.pid} {bucket.value}: spans sum to {got:.9g}s "
                    f"but TimeStats has {want:.9g}s "
                    f"(diff {got - want:+.3g}s)"
                )
    return errors


def worst_lock_chains(
    tracer: SpanTracer,
) -> List[Tuple[int, float, int, List[Span]]]:
    """The :data:`WORST_CHAINS` longest cumulative lock-wait chains,
    grouped by lock id.

    Returns ``(lock_id, total_wait, n_waits, worst_spans)`` sorted by
    total wait descending.
    """
    by_lock: Dict[int, List[Span]] = defaultdict(list)
    for s in tracer.spans:
        if s.kind == "lock_wait" and s.status == "closed" and s.key:
            by_lock[s.key[1]].append(s)
    chains = []
    for lock_id, spans in by_lock.items():
        spans.sort(key=lambda s: -s.duration)
        total = sum(s.duration for s in spans)
        chains.append((lock_id, total, len(spans), spans[:3]))
    chains.sort(key=lambda c: -c[1])
    return chains[:WORST_CHAINS]


def render_critpath_report(
    tracer: SpanTracer,
    segments: Sequence[CritSegment],
    top: int = 12,
) -> str:
    """ASCII critical-path report: top segments, per-cause totals,
    worst lock chains, reconciliation status."""
    from repro.render import Table

    lines: List[str] = []
    wall = segments[-1].t1 if segments else 0.0
    lines.append(
        f"critical path: {len(segments)} segments over "
        f"{wall * 1e3:.3f} ms virtual time "
        f"({len(tracer.spans)} spans, "
        f"{len(tracer.delivered_edges())} delivered edges)"
    )
    lines.append("")

    ranked = sorted(segments, key=lambda s: -s.duration)[:top]
    t = Table(
        f"top {len(ranked)} critical-path segments",
        ["node", "from (ms)", "to (ms)", "dur (ms)", "% of run", "cause"],
    )
    for seg in ranked:
        pct = 100.0 * seg.duration / wall if wall > 0 else 0.0
        cause = seg.cause if not seg.detail else f"{seg.cause} [{seg.detail}]"
        t.add(
            f"p{seg.pid}",
            f"{seg.t0 * 1e3:.3f}",
            f"{seg.t1 * 1e3:.3f}",
            f"{seg.duration * 1e3:.3f}",
            f"{pct:.1f}",
            cause,
        )
    lines.append(t.render())
    lines.append("")

    totals = per_cause_totals(segments)
    t = Table("per-cause totals", ["cause", "total (ms)", "% of run"])
    for cause, secs in sorted(totals.items(), key=lambda kv: -kv[1]):
        pct = 100.0 * secs / wall if wall > 0 else 0.0
        t.add(cause, f"{secs * 1e3:.3f}", f"{pct:.1f}")
    lines.append(t.render())
    lines.append("")

    chains = worst_lock_chains(tracer)
    if chains:
        t = Table(
            "worst lock chains",
            ["lock", "total wait (ms)", "waits", "longest single waits"],
        )
        for lock_id, total, n, worst in chains:
            worst_txt = ", ".join(
                f"p{s.pid}:{s.duration * 1e3:.3f}ms" for s in worst
            )
            t.add(f"L{lock_id}", f"{total * 1e3:.3f}", str(n), worst_txt)
        lines.append(t.render())
        lines.append("")

    errors = reconcile_with_time_stats(tracer)
    if errors:
        lines.append("RECONCILIATION FAILED:")
        lines.extend(f"  {e}" for e in errors)
    else:
        lines.append(
            "reconciliation: span self-times match TimeStats buckets "
            "on every node (compute/page/lock/barrier waits)"
        )
    return "\n".join(lines)
