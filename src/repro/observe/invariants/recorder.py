"""Bounded crash flight recorder: the last N engine events, FT and
recovery events and message send/deliver records, dumpable as a
post-mortem.

The recorder is a fixed-size ring (``collections.deque`` with
``maxlen``), so it is O(1) per event. Records are raw tuples while the
run is live; they are normalized to JSON-friendly dicts only when a dump
is requested (on an invariant violation, or at the end of a CLI run).
An engine event is
the engine's own tuple, rung by the bound ``ring.append`` itself — no
Python frame per event; every other record is the flat tracer's
:class:`~repro.sim.trace.TraceEvent`, made by the same
:func:`~repro.sim.trace.recording` subscriber, and resolves to text
only at dump time.

Record shapes:

* ``(time, seq, fn)`` — one engine event about to execute. Engine steps
  are consecutive and the newest one is ``engine.steps``, so a dump
  numbers each by its position among the engine records in the ring
* a ``TraceEvent`` of a send or a delivery (``pid`` is the source,
  ``args`` ``(dst, type name, category)``), or of the
  ``PROBE_CATEGORIES`` (dumped as its timeline category and text)

A flight record (assembled by the monitor) is a dict with ``reason``,
``time``/``step``, the violation list, per-invariant check counters, a
per-node state snapshot and the normalized event ring; see
:func:`validate_flight_record` for the required shape.
"""

from __future__ import annotations

import functools
import json
import os
from collections import deque
from typing import Any, Dict, List

from repro.render import Table
from repro.sim.engine import SimProcess
from repro.sim.trace import (
    DELIVER, ENGINE_EVENT, SEND, TEXT, TraceEvent, recording,
)

__all__ = [
    "FlightRecorder",
    "node_snapshot",
    "render_flight_record",
    "validate_flight_record",
    "write_flight_record",
]

#: timeline categories (``sim.trace.TEXT``) recorded as "probe" records:
#: what the FT layer, the replication tier and recovery announce
PROBE_CATEGORIES = frozenset(
    {"ckpt_write", "llt", "cgc", "failure", "recovery", "rphase", "repl"}
)


def _describe(fn: Any) -> str:
    """Best-effort label for an engine event callable.

    A continuation is the :class:`~repro.sim.engine.SimProcess` itself
    — name the process; network deliveries
    (``partial(Network._deliver, ...)``) and lambdas fall back to their
    qualified name.
    """
    if isinstance(fn, SimProcess):
        return f"SimProcess({fn.name})"
    if isinstance(fn, functools.partial):
        name = getattr(fn.func, "__qualname__", repr(fn.func))
        for a in fn.args:
            pname = getattr(a, "name", None)
            if isinstance(pname, str):
                return f"{name}({pname})"
        return name
    return getattr(fn, "__qualname__", repr(fn))


class FlightRecorder:
    """Ring buffer of recent execution history (see module docstring)."""

    def __init__(self, ring_size: int = 256) -> None:
        if ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        self.ring_size = ring_size
        self.ring: deque = deque(maxlen=ring_size)
        self._engine: Any = None
        #: engine steps already run at attach, and the other records rung
        self._attached_at = 0
        self._others = 0

    @property
    def recorded(self) -> int:
        """Records rung since attach, the ones the ring dropped included."""
        if self._engine is None:
            return 0
        return self._engine.steps - self._attached_at + self._others

    def attach(self, engine: Any) -> None:
        """Record the run ``engine`` drives, from its bus."""
        self._engine = engine
        self._attached_at = engine.steps
        bus = engine.bus
        bus.subscribe(ENGINE_EVENT, self.ring.append)
        probes = [event for event, (category, _) in TEXT.items()
                  if category in PROBE_CATEGORIES]
        for event in (SEND, DELIVER, *probes):
            bus.subscribe(event, recording(engine, event, self._keep))

    def _keep(self, ev: TraceEvent) -> None:
        self.ring.append(ev)
        self._others += 1

    # -- dump ------------------------------------------------------------
    def dump(self) -> List[Dict[str, Any]]:
        """Normalize the current ring contents (oldest first)."""
        out: List[Dict[str, Any]] = []
        if not self.ring:
            return out
        # engine records are consecutive steps, and the newest one is the
        # step running now: number them back from it
        step = self._engine.steps - sum(
            1 for rec in self.ring if type(rec) is not TraceEvent
        )
        for rec in self.ring:
            if type(rec) is not TraceEvent:  # the engine's (time, seq, fn)
                step += 1
                out.append(
                    {"rec": "engine", "time": rec[0], "step": step,
                     "event": _describe(rec[2])}
                )
            elif rec.event in (SEND, DELIVER):
                dst, name, category = rec.args
                out.append(
                    {"rec": rec.event, "time": rec.time, "step": rec.step,
                     "src": rec.pid, "dst": dst, "msg": name,
                     "category": category}
                )
            else:
                out.append(
                    {"rec": "probe", "time": rec.time, "step": rec.step,
                     "pid": rec.pid, "kind": rec.kind, "detail": rec.detail}
                )
        return out


# ======================================================================
# flight-record serialization / rendering / validation
# ======================================================================

def write_flight_record(path: str, record: Dict[str, Any]) -> None:
    """Write one flight record as a JSON file (dirs created as needed)."""
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


#: ring events a rendered flight record shows, newest last
FLIGHT_TAIL = 30


def render_flight_record(record: Dict[str, Any]) -> str:
    """ASCII post-mortem: reason, violations, node states, event tail."""
    lines = [
        f"FLIGHT RECORD — {record['reason']}",
        f"at virtual time {record['time'] * 1e3:.4f} ms, "
        f"engine step {record['step']}",
        "",
    ]
    violations = record.get("violations", [])
    if violations:
        lines.append(f"{len(violations)} invariant violation(s):")
        for v in violations:
            lines.append(
                f"  [{v['invariant']}] p{v['pid']} @ step {v['step']}: "
                f"{v['detail']}"
            )
    else:
        lines.append("no invariant violations")
    lines.append("")

    nodes = Table(
        "node state",
        ["pid", "live", "rec", "fin", "vt", "ckpts", "retained",
         "log B", "rel/acq"],
    )
    for n in record.get("nodes", []):
        nodes.add(
            n["pid"],
            "y" if n["live"] else "n",
            "y" if n["recovering"] else "n",
            "y" if n["finished"] else "n",
            tuple(n["vt"]) if n.get("vt") is not None else "-",
            n.get("checkpoints_taken", "-"),
            n.get("retained_seqnos", "-"),
            n.get("log_volatile_bytes", "-"),
            f"{n.get('rel_entries', '-')}/{n.get('acq_entries', '-')}",
        )
    lines.append(nodes.render())
    lines.append("")

    events = record.get("events", [])
    shown = events[-FLIGHT_TAIL:]
    lines.append(
        f"last {len(shown)} of {len(events)} ring events "
        f"({record.get('events_recorded', len(events))} recorded in total):"
    )
    for e in shown:
        stamp = f"{e['time'] * 1e3:10.4f} ms #{e['step']:<7d}"
        if e["rec"] == "engine":
            lines.append(f"  {stamp} engine   {e['event']}")
        elif e["rec"] == "probe":
            lines.append(
                f"  {stamp} probe    p{e['pid']} {e['kind']} {e['detail']}"
            )
        else:
            lines.append(
                f"  {stamp} {e['rec']:<8} p{e['src']}->p{e['dst']} "
                f"{e['msg']} ({e['category']})"
            )
    return "\n".join(lines)


def node_snapshot(host: Any) -> Dict[str, Any]:
    """One node's state in a flight record."""
    out: Dict[str, Any] = {
        "pid": host.pid,
        "live": host.live,
        "recovering": host.recovering,
        "finished": host.finished,
        "crashes": host.crashed_count,
        "recoveries": host.recovered_count,
        "queued": len(host.queued),
        "vt": None,
    }
    if host.proto is not None:
        out["vt"] = list(host.proto.vt)
    mgr = host.ckpt_mgr
    if mgr is not None:
        out["retained_seqnos"] = mgr.retained_seqnos
        out["window_size"] = mgr.window_size
        out["latest_ckpt"] = (
            mgr.latest.seqno if mgr.latest is not None else None
        )
    ft = host.ft
    if ft is not None:
        out["log_volatile_bytes"] = ft.logs.diff.volatile_bytes
        out["log_saved_bytes"] = ft.logs.diff.saved_bytes
        out["rel_entries"] = ft.logs.rel.count()
        out["acq_entries"] = ft.logs.acq.count()
        out["checkpoints_taken"] = ft.stats.checkpoints_taken
    return out


def validate_flight_record(record: Any) -> List[str]:
    """Structural checks on a flight record; empty list = valid. Any
    parsed JSON value may be passed: a wrong shape is an error in the
    list, never an exception."""
    if not isinstance(record, dict):
        return [f"flight record is not a JSON object ({type(record).__name__})"]
    errors = [
        f"missing key {key!r}"
        for key in ("reason", "time", "step", "violations", "checks",
                    "nodes", "cluster", "events")
        if key not in record
    ]
    if errors:
        return errors
    for key in ("time", "step"):
        value = record[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{key} is not a number")
    rows: Dict[str, List[Dict[str, Any]]] = {}
    for key in ("violations", "events", "nodes"):
        value = record[key]
        if not isinstance(value, list):
            errors.append(f"{key} is not a list")
        elif not all(isinstance(row, dict) for row in value):
            errors.append(f"{key} holds a non-object")
        else:
            rows[key] = value
    for i, v in enumerate(rows.get("violations", ())):
        for key in ("invariant", "pid", "time", "step", "detail"):
            if key not in v:
                errors.append(f"violation {i} missing {key!r}")
    for i, e in enumerate(rows.get("events", ())):
        if e.get("rec") not in ("engine", "probe", "send", "deliver"):
            errors.append(f"event {i} has unknown rec {e.get('rec')!r}")
        elif "time" not in e or "step" not in e:
            errors.append(f"event {i} missing time/step")
    for i, n in enumerate(rows.get("nodes", ())):
        if "pid" not in n or "live" not in n:
            errors.append(f"node {i} missing pid/live")
    if not isinstance(record["checks"], dict):
        errors.append("checks is not a mapping")
    try:
        json.dumps(record)
    except (TypeError, ValueError) as exc:
        errors.append(f"not JSON-serializable: {exc}")
    return errors
