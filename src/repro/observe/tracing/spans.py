"""Causal span tracing: a span DAG with message edges over one run.

A :class:`SpanTracer` attaches to a :class:`~repro.cluster.DsmCluster`
*before* ``run`` and upgrades observability from flat events (the
:func:`~repro.sim.trace.timeline`) to a **span DAG**: every
blocking protocol operation becomes a span ``[t0, t1]`` on its node's
timeline, and every message becomes a **causal edge** between the span
that sent it and the node that received it. On top of the DAG live the
critical-path analysis (``critpath.py``) and the Chrome trace-event
export (``export.py``).

Span kinds (all built from events on the run's bus, ``repro.sim.trace``)
----------
* op spans, between an ``OP_OPEN`` and its ``OP_CLOSE``:
  ``app`` (one per incarnation of a node's application main),
  ``compute``, ``fetch``, ``home_wait``, ``acquire``, ``barrier``,
  ``flush`` (interval flush with dirty pages), ``ckpt`` (the whole
  checkpoint operation);
* bracketed spans, between a begin and an end event: ``ckpt_write``
  (the stable-storage write), ``recovery`` (failure-detection to live
  switch) with its ``rphase`` children, and ``repl`` (one checkpoint's
  buddy transfer);
* ``down`` spans, one per fail-stop: from the ``FAILURE`` event to the
  victim's next span (its recovery, or under the coordinated baseline's
  global rollback its respawned ``app``) — the failure-detection window;
* wait spans, created *retroactively* at every ``WAIT`` event:
  ``page_wait``, ``lock_wait``, ``barrier_wait``. The protocol emits it
  beside ``cpu.stats.add(bucket, seconds)``, exactly once per wait, at
  the instant the wait ends, with the exact waited duration — so wait
  spans reconcile with the :class:`~repro.sim.node.TimeStats` bucket
  totals *by construction* (the invariant
  ``critpath.reconcile_with_time_stats`` checks).

Read-only guarantee
-------------------
The tracer only subscribes and records; it sends no messages, charges
no CPU, schedules no events and never mutates protocol state (message
identity is tracked in a side table keyed by ``id(msg)``; the payload
is never touched). The golden determinism test passes with a
SpanTracer attached.

Crash/recovery semantics
------------------------
A fail-stop closes every open span on the victim as ``abandoned`` (the
cluster emits ``FAILURE`` before killing the incarnation) and opens its
``down`` span, which the victim's next span closes.
Recovery incarnations open fresh spans — ids are globally unique and
every span carries its ``incarnation`` (the host's ``crashed_count`` at
open), so the final incarnation's spans are exactly the ones that
reconcile with the final :class:`TimeStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.dsm.messages import (
    BarrierArrive,
    BarrierRelease,
    DiffMsg,
    GrantInfo,
    LockAcquireReq,
    LockForward,
    LockGrant,
    PageFetchReply,
    PageFetchReq,
)
from repro.sim.node import TimeBucket
from repro.sim.trace import (
    CKPT_WRITE_BEGIN,
    CKPT_WRITE_END,
    DELIVER,
    FAILURE,
    OP_CLOSE,
    OP_OPEN,
    RECOVERY_ANNOTATE,
    RECOVERY_BEGIN,
    RECOVERY_LIVE,
    REPL_BEGIN,
    REPL_COMMIT,
    REPL_FETCH,
    RPHASE,
    SEND,
    TEXT,
    WAIT,
)

__all__ = ["Span", "CausalEdge", "SpanTracer", "WAIT_KINDS", "OP_KINDS"]

#: wait-span kinds (retroactive spans mirroring the TimeStats buckets)
WAIT_KINDS = ("page_wait", "lock_wait", "barrier_wait")

#: op and bracketed span kinds
OP_KINDS = (
    "app",
    "compute",
    "fetch",
    "home_wait",
    "acquire",
    "barrier",
    "flush",
    "ckpt",
    "ckpt_write",
    "recovery",
    "rphase",
    "repl",
    "down",
)

#: op -> (span detail, machine-readable key) of its OP_OPEN operand
_OP_OPERAND = {
    "app": lambda incarnation: (f"incarnation {incarnation}", None),
    "fetch": lambda page: (f"page {tuple(page)}", ("page", tuple(page))),
    "home_wait": lambda page: (f"page {tuple(page)}", ("page", tuple(page))),
    "acquire": lambda lock_id: (f"L{lock_id}", ("lock", lock_id)),
    "barrier": lambda episode: (f"ep{episode}", ("barrier", episode)),
    "flush": lambda dirty: (f"{dirty} dirty", None),
}

#: message types whose arrival legitimately ends a wait, per parent kind
_WAIT_CAUSES = {
    "fetch": ("PageFetchReply",),
    "home_wait": ("DiffMsg",),
    "acquire": ("LockGrant", "LockForward"),
    "barrier": ("BarrierRelease",),
}


@dataclass
class Span:
    """One operation on one node's timeline."""

    sid: int
    pid: int
    kind: str
    t0: float
    detail: str = ""
    #: machine-readable operand (("page", (r, i)) / ("lock", id) /
    #: ("barrier", episode)); used to match causal edges to waits
    key: Optional[Tuple] = None
    incarnation: int = 0
    t1: float = -1.0
    status: str = "open"  # open | closed | abandoned | dropped
    parent: Optional[int] = None  # sid of the enclosing span (same pid)
    cause_edge: Optional[int] = None  # eid of the edge that ended a wait
    step0: int = -1
    step1: int = -1

    @property
    def duration(self) -> float:
        return max(0.0, self.t1 - self.t0) if self.t1 >= 0.0 else 0.0

    def overlaps(self, a: float, b: float) -> bool:
        return self.t1 > a and self.t0 < b


@dataclass
class CausalEdge:
    """One message: a happens-before edge between two node timelines."""

    eid: int
    src: int
    dst: int
    t_send: float
    msg_type: str
    key: Tuple
    src_span: Optional[int] = None  # sid of the span open at send
    dst_span: Optional[int] = None  # sid of the span open at receive
    t_recv: float = -1.0
    status: str = "inflight"  # inflight | delivered | dropped


def _edge_key(msg: Any) -> Tuple:
    if isinstance(msg, (PageFetchReq, PageFetchReply, DiffMsg)):
        return ("page", tuple(msg.page))
    if isinstance(msg, (LockAcquireReq, LockForward, LockGrant, GrantInfo)):
        return ("lock", msg.lock_id)
    if isinstance(msg, (BarrierArrive, BarrierRelease)):
        return ("barrier", msg.episode)
    return ("msg", type(msg).__name__)


#: spans and edges a tracer keeps; later ones are counted as dropped and
#: ``validate`` reports the DAG incomplete
MAX_SPANS = 2_000_000
MAX_EDGES = 2_000_000


class SpanTracer:
    """Records a span DAG with causal edges for one cluster run.

    Attach before ``cluster.run``; read ``spans`` / ``edges`` after.
    Observation is strictly read-only (see module docstring).
    """

    def __init__(self, cluster: Any) -> None:
        # the cluster's bus holds this tracer, so it keeps the parts it
        # reads, never the cluster itself
        self.engine = cluster.engine
        self.hosts = cluster.hosts
        self.network = cluster.network
        self.spans: List[Span] = []
        self.edges: List[CausalEdge] = []
        self.dropped_spans = 0
        self.dropped_edges = 0
        #: open spans per pid, in open order (innermost last). A plain
        #: list, not a stack: bracketed spans (recovery) legally close out
        #: of LIFO order.
        self._open: Dict[int, List[Span]] = {}
        #: in-flight edges keyed by id(msg); FIFO per object identity
        #: (an object re-sent while still in flight appends)
        self._inflight: Dict[int, List[CausalEdge]] = {}
        #: delivered edges per destination pid, in arrival order
        self._delivered: Dict[int, List[CausalEdge]] = {}
        self._subscribe(cluster.engine.bus)

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _open_span(
        self,
        pid: int,
        kind: str,
        detail: str = "",
        key: Optional[Tuple] = None,
    ) -> Span:
        now, step = self.engine.now, self.engine.steps
        open_list = self._open.setdefault(pid, [])
        if open_list and open_list[-1].kind == "down":
            # the first span after a fail-stop ends its detection window
            self._close_span(open_list[-1])
        parent = open_list[-1].sid if open_list else None
        span = Span(
            sid=len(self.spans),
            pid=pid,
            kind=kind,
            t0=now,
            detail=detail,
            key=key,
            incarnation=self.hosts[pid].crashed_count,
            parent=parent,
            step0=step,
        )
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            span.status = "dropped"
            return span
        self.spans.append(span)
        open_list.append(span)
        return span

    def _close_span(self, span: Span, status: str = "closed") -> None:
        if span.status != "open":
            return  # already abandoned by a crash, or dropped at the cap
        span.t1, span.step1 = self.engine.now, self.engine.steps
        span.status = status
        open_list = self._open.get(span.pid)
        if open_list is not None:
            for i in range(len(open_list) - 1, -1, -1):
                if open_list[i] is span:
                    del open_list[i]
                    break

    def _innermost(self, pid: int, kinds: Optional[Tuple[str, ...]] = None):
        open_list = self._open.get(pid)
        if not open_list:
            return None
        if kinds is None:
            return open_list[-1]
        for span in reversed(open_list):
            if span.kind in kinds:
                return span
        return None

    def _abandon_all(self, pid: int) -> None:
        now, step = self.engine.now, self.engine.steps
        for span in self._open.get(pid, ()):
            span.t1 = now
            span.step1 = step
            span.status = "abandoned"
        self._open[pid] = []

    # ------------------------------------------------------------------
    # wait spans (retroactive, exact by construction)
    # ------------------------------------------------------------------
    def _on_wait(
        self, pid: int, bucket: TimeBucket, seconds: float, op: str
    ) -> None:
        now = self.engine.now
        t0 = now - seconds
        parent = self._innermost(pid, (op,))
        cause = None
        if parent is not None and parent.key is not None:
            cause = self._find_cause(pid, parent.kind, parent.key, t0)
        span = Span(
            sid=len(self.spans),
            pid=pid,
            kind=bucket.value,
            t0=t0,
            detail=parent.detail if parent is not None else "",
            key=parent.key if parent is not None else None,
            incarnation=self.hosts[pid].crashed_count,
            t1=now,
            status="closed",
            parent=parent.sid if parent is not None else None,
            cause_edge=cause.eid if cause is not None else None,
            step0=self.engine.steps,
            step1=self.engine.steps,
        )
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return
        self.spans.append(span)

    def _find_cause(
        self, pid: int, parent_kind: str, key: Tuple, t0: float
    ) -> Optional[CausalEdge]:
        """The most recent delivery that can have ended this wait.

        Scans the pid's arrival history backwards, bounded by the wait's
        start; returns None for locally satisfied waits (self-grants,
        manager-local barrier completion — the barrier case falls back
        to the last ``BarrierArrive``, i.e. the straggler).
        """
        arrivals = self._delivered.get(pid)
        if not arrivals:
            return None
        wanted = _WAIT_CAUSES[parent_kind]
        fallback = None
        for edge in reversed(arrivals):
            if edge.t_recv < t0 - 1e-12:
                break
            if edge.key != key:
                continue
            if edge.msg_type in wanted:
                return edge
            if (
                parent_kind == "barrier"
                and edge.msg_type == "BarrierArrive"
                and fallback is None
            ):
                fallback = edge
        return fallback

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _subscribe(self, bus: Any) -> None:
        bus.subscribe(SEND, self._on_send)
        bus.subscribe(DELIVER, self._on_deliver)
        bus.subscribe(OP_OPEN, self._on_op_open)
        bus.subscribe(OP_CLOSE, self._on_op_close)
        bus.subscribe(WAIT, self._on_wait)
        bus.subscribe(FAILURE, self._on_failure)
        # bracketing events: the begin opens a span whose detail is the
        # event's timeline text, the end closes the innermost such span
        for kind, begin, end in (
            ("ckpt_write", CKPT_WRITE_BEGIN, CKPT_WRITE_END),
            ("recovery", RECOVERY_BEGIN, RECOVERY_LIVE),
            ("repl", REPL_BEGIN, REPL_COMMIT),
        ):
            bus.subscribe(begin, partial(self._on_begin, kind, TEXT[begin][1]))
            bus.subscribe(end, partial(self._on_end, kind))
        bus.subscribe(RPHASE, self._on_rphase)
        bus.subscribe(
            RECOVERY_ANNOTATE, partial(self._annotate, TEXT[RECOVERY_ANNOTATE][1])
        )
        bus.subscribe(REPL_FETCH, self._on_repl_fetch)

    def _on_send(self, src: int, dst: int, msg: Any) -> None:
        """A message becomes a causal edge (side table; payload untouched)."""
        if len(self.edges) >= MAX_EDGES:
            self.dropped_edges += 1
            return
        open_span = self._innermost(src)
        edge = CausalEdge(
            eid=len(self.edges),
            src=src,
            dst=dst,
            t_send=self.engine.now,
            msg_type=type(msg).__name__,
            key=_edge_key(msg),
            src_span=open_span.sid if open_span is not None else None,
        )
        self.edges.append(edge)
        self._inflight.setdefault(id(msg), []).append(edge)

    def _on_deliver(self, src: int, dst: int, msg: Any, epoch: int) -> None:
        """A delivery closes its edge (epoch-flushed messages are dropped,
        not dangling — the coordinated baseline's global rollback)."""
        pending = self._inflight.get(id(msg))
        if not pending:
            return
        edge = pending.pop(0)
        if not pending:
            del self._inflight[id(msg)]
        if epoch != self.network.epoch:
            edge.status = "dropped"
            return
        edge.t_recv = self.engine.now
        edge.status = "delivered"
        open_span = self._innermost(dst)
        edge.dst_span = open_span.sid if open_span is not None else None
        self._delivered.setdefault(dst, []).append(edge)

    def _on_op_open(self, pid: int, op: str, arg: Any) -> None:
        operand = _OP_OPERAND.get(op)  # compute and ckpt have none
        detail, key = operand(arg) if operand is not None else ("", None)
        self._open_span(pid, op, detail, key)

    def _on_op_close(self, pid: int, op: str, arg: Any) -> None:
        # ops nest on a node's one coroutine, so the innermost open span
        # of the kind is the one ending; there is none when a fail-stop
        # already abandoned it (the kill unwinds through the op's exit)
        span = self._innermost(pid, (op,))
        if span is not None:
            if op == "ckpt" and arg is not None:
                span.detail = f"#{arg}"
            self._close_span(span)

    def _on_failure(self, pid: int) -> None:
        # announced by cluster.crash after its guard, before the kill:
        # everything open on the victim dies with the incarnation, and
        # the victim is down until its next span opens
        self._abandon_all(pid)
        self._open_span(pid, "down", "awaiting failure detection")

    def _on_begin(self, kind: str, text: Any, pid: int, *args: Any) -> None:
        self._open_span(pid, kind, text(*args))

    def _on_end(self, kind: str, pid: int, *args: Any) -> None:
        span = self._innermost(pid, (kind,))
        if span is not None:
            self._close_span(span)

    def _on_rphase(self, pid: int, phase: str, edge: str) -> None:
        # recovery-phase anatomy (DESIGN.md §7.3): restore/handshake/
        # replay child spans nested under the open recovery span
        # (detection is the ``down`` span before it)
        if edge == "begin":
            self._open_span(pid, "rphase", phase)
        else:
            self._on_end("rphase", pid)

    def _annotate(self, text: Any, pid: int, *args: Any) -> None:
        """Progress of a recovery (discarded_torn, restart_ckpt, a buddy
        fetch) is appended to its span's detail."""
        span = self._innermost(pid, ("recovery",))
        if span is not None:
            span.detail += f"; {text(*args)}"

    def _on_repl_fetch(self, pid: int, *args: Any) -> None:
        # a zero-duration marker on the recovery critical path — the
        # recovering node pulling a lost peer's FT state from its buddy
        # (REPL_BEGIN..REPL_COMMIT, by contrast, bracket one checkpoint's
        # buddy transfer, overlapping the ckpt_write span)
        text = TEXT[REPL_FETCH][1]
        self._close_span(self._open_span(pid, "repl", text(*args)))
        self._annotate(text, pid, *args)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def spans_by_kind(self, kind: str, pid: Optional[int] = None) -> List[Span]:
        return [
            s
            for s in self.spans
            if s.kind == kind and (pid is None or s.pid == pid)
        ]

    def open_spans(self) -> List[Span]:
        return [s for s in self.spans if s.status == "open"]

    def abandoned_spans(self, pid: Optional[int] = None) -> List[Span]:
        return [
            s
            for s in self.spans
            if s.status == "abandoned" and (pid is None or s.pid == pid)
        ]

    def delivered_edges(self) -> List[CausalEdge]:
        return [e for e in self.edges if e.status == "delivered"]

    def validate(self) -> List[str]:
        """Structural DAG checks; empty list = well-formed.

        Errors: unclosed spans after a completed run (every node is live
        or finished by then), time-reversed spans/edges, dangling parent
        or edge references, dropped edges without a rollback epoch, and
        hitting the span/edge caps (the DAG would be incomplete).
        """
        errors: List[str] = []
        sids = {s.sid for s in self.spans}
        for s in self.spans:
            if s.status == "open":
                errors.append(
                    f"unclosed span on live node: sid={s.sid} p{s.pid} "
                    f"{s.kind} opened at {s.t0:.6g}"
                )
                continue
            if s.t1 + 1e-12 < s.t0:
                errors.append(
                    f"span ends before it starts: sid={s.sid} p{s.pid} "
                    f"{s.kind} [{s.t0:.6g}, {s.t1:.6g}]"
                )
            if s.parent is not None and s.parent not in sids:
                errors.append(
                    f"dangling parent: sid={s.sid} -> {s.parent}"
                )
            if s.cause_edge is not None and not (
                0 <= s.cause_edge < len(self.edges)
            ):
                errors.append(
                    f"dangling cause edge: sid={s.sid} -> eid={s.cause_edge}"
                )
        for e in self.edges:
            if e.src_span is not None and e.src_span not in sids:
                errors.append(
                    f"dangling edge source span: eid={e.eid} -> {e.src_span}"
                )
            if e.status == "delivered" and e.t_recv + 1e-12 < e.t_send:
                errors.append(
                    f"edge received before sent: eid={e.eid} "
                    f"{e.msg_type} p{e.src}->p{e.dst}"
                )
            if e.status == "dropped" and self.network.epoch == 0:
                errors.append(
                    f"edge dropped without a rollback epoch: eid={e.eid} "
                    f"{e.msg_type} p{e.src}->p{e.dst}"
                )
        if self.dropped_spans or self.dropped_edges:
            errors.append(
                f"capacity exceeded: {self.dropped_spans} spans / "
                f"{self.dropped_edges} edges dropped — DAG incomplete "
                "(raise MAX_SPANS/MAX_EDGES)"
            )
        return errors
