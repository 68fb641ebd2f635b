"""Chrome trace-event JSON export of a span DAG.

``to_chrome_trace`` renders the :class:`~repro.observe.tracing.SpanTracer`
record into the Trace Event Format understood by Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing``:

* one *process* per simulated node (``pid`` maps 1:1), with three
  threads per node so every track nests properly — tid 0 carries the op
  spans (app/compute/fetch/acquire/barrier/flush/ckpt), tid 1 the
  retroactive wait spans (page/lock/barrier waits, which overlap their
  enclosing op), tid 2 the bracketed spans (ckpt_write, recovery — closed
  out of LIFO order with respect to ops during a crash) and the ``down``
  detection windows;
* every closed/abandoned span becomes an ``"X"`` complete event
  (``ts``/``dur`` in microseconds of virtual time);
* every delivered causal edge becomes an ``"s"`` → ``"f"`` flow pair
  (``bp: "e"``) joining the sender's op track to the receiver's, so
  Perfetto draws the message arrows.

Virtual seconds are scaled by 1e6: one trace microsecond == one
simulated microsecond. ``validate_trace`` and ``render_trace`` are how
``repro report`` checks and shows a written trace.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.observe.tracing.spans import SpanTracer, WAIT_KINDS

__all__ = [
    "render_trace", "to_chrome_trace", "validate_trace",
    "TID_OPS", "TID_WAITS", "TID_PROBES",
]

TID_OPS = 0
TID_WAITS = 1
TID_PROBES = 2

_THREAD_NAMES = {
    TID_OPS: "ops",
    TID_WAITS: "waits",
    TID_PROBES: "ckpt/recovery",
}

_SCALE = 1e6  # virtual seconds -> trace microseconds


def _tid_for(kind: str) -> int:
    if kind in WAIT_KINDS:
        return TID_WAITS
    if kind in ("ckpt_write", "recovery", "rphase", "repl", "down"):
        return TID_PROBES
    return TID_OPS


def to_chrome_trace(
    tracer: SpanTracer, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """The span DAG as a Trace Event Format dict (json.dump and load
    into Perfetto)."""
    events: List[Dict[str, Any]] = []
    pids = sorted({h.pid for h in tracer.hosts})
    for pid in pids:
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"node {pid}"},
            }
        )
        for tid, tname in _THREAD_NAMES.items():
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": tname},
                }
            )

    for span in tracer.spans:
        if span.status not in ("closed", "abandoned"):
            continue
        name = span.kind if not span.detail else f"{span.kind} {span.detail}"
        events.append(
            {
                "ph": "X",
                "name": name,
                "cat": span.kind,
                "pid": span.pid,
                "tid": _tid_for(span.kind),
                "ts": span.t0 * _SCALE,
                "dur": span.duration * _SCALE,
                "args": {
                    "sid": span.sid,
                    "incarnation": span.incarnation,
                    "status": span.status,
                    "step0": span.step0,
                    "step1": span.step1,
                },
            }
        )

    for edge in tracer.edges:
        if edge.status != "delivered":
            continue
        common = {
            "cat": "msg",
            "name": edge.msg_type,
            "id": edge.eid,
            "args": {"key": list(edge.key)},
        }
        events.append(
            {
                "ph": "s",
                "pid": edge.src,
                "tid": TID_OPS,
                "ts": edge.t_send * _SCALE,
                **common,
            }
        )
        events.append(
            {
                "ph": "f",
                "bp": "e",
                "pid": edge.dst,
                "tid": TID_OPS,
                "ts": edge.t_recv * _SCALE,
                **common,
            }
        )

    out: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if meta:
        out["otherData"] = dict(meta)
    return out


def validate_trace(data: Any) -> List[str]:
    """Structural checks on a trace; empty list = valid. Any parsed JSON
    value may be passed: a wrong shape is an error, never an exception."""
    events = data.get("traceEvents") if isinstance(data, dict) else None
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or "ph" not in ev:
            return [f"trace event {i} has no phase ('ph')"]
    return []


def render_trace(data: Dict[str, Any]) -> str:
    """A trace's extent: the nodes with spans, the spans, the message
    flows."""
    events = data["traceEvents"]
    spans = [ev for ev in events if ev["ph"] == "X"]
    flows = sum(1 for ev in events if ev["ph"] == "s")
    nodes = len({ev.get("pid") for ev in spans})
    return f"span trace: {nodes} nodes, {len(spans)} spans, {flows} message flows"
