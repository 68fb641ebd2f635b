"""The instrumentation seam: one typed event bus, and the flat timeline on it.

Every layer announces what it does on the :class:`EventBus` its engine
owns (``engine.bus``): a fixed catalogue of event kinds with positional
payloads that are already at hand at the emit site (ints, floats, object
references — nothing is formatted there). Emit sites sit *inside* the
code that runs, each behind a test of its own kind, ``if
bus.on[SEND]:`` — the bus keeps one truth value per kind, set by the
first subscription to it. A kind nobody reads therefore costs one dict
lookup per site and never a call, whatever else is subscribed: a crash
sweep's monitor, which reads sends and deliveries, does not make every
lock, fetch and op span pay for an ``emit`` to nobody. A node that
recovers is announced like any other. ``Engine.run`` hoists the
``ENGINE_EVENT`` subscriber list once per run instead (one test per
event). Observers (metrics, spans, invariants, flight recorder, the
timeline below) call ``bus.subscribe(kind, fn)`` and do nothing else to
the cluster; they must only read and record, so attaching any of them,
in any order, leaves the run bit-identical.
Both recorders of catalogued events, the timeline below and the
flight ring, keep one :class:`TraceEvent` per event through one
subscriber, :func:`recording`; its text for debug timelines and flight
records (``"begin seqno=3 bytes=4096"``) is rendered through
:data:`TEXT` here only when read.

A :func:`timeline` subscribes to a cluster's engine *before* ``run``
and returns the list its events fill, in emission order with virtual
timestamps — the simulator's answer to a real DSM's debug logs::

    cluster = DsmCluster(...)
    events = timeline(cluster.engine, {"lock", "ckpt"})
    cluster.run(app)
    print("\n".join(ev.render() for ev in events[:50]))
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Dict, List, NamedTuple, Tuple

__all__ = ["CATALOGUE", "TEXT", "EventBus", "TraceEvent", "recording", "timeline"]

# ----------------------------------------------------------------------
# the catalogue: every event kind, with its positional payload
# ----------------------------------------------------------------------
ENGINE_EVENT = "engine_event"
SEND = "send"
DELIVER = "deliver"
OP_OPEN = "op_open"
OP_CLOSE = "op_close"
WAIT = "wait"
LOCK_ACQUIRED = "lock_acquired"
LOCK_RELEASE = "lock_release"
BARRIER_DONE = "barrier_done"
INTERVAL_FLUSHED = "interval_flushed"
PAGE_FETCHED = "page_fetched"
CHECKPOINT_TAKEN = "checkpoint_taken"
CKPT_WRITE_BEGIN = "ckpt_write_begin"
CKPT_WRITE_END = "ckpt_write_end"
LLT = "llt"
CGC = "cgc"
FAILURE = "failure"
RECOVERY_BEGIN = "recovery_begin"
RECOVERY_ANNOTATE = "recovery_annotate"
RECOVERY_LIVE = "recovery_live"
RPHASE = "rphase"
REPL_RETARGET = "repl_retarget"
REPL_SYNC = "repl_sync"
REPL_BEGIN = "repl_begin"
REPL_COMMIT = "repl_commit"
REPL_ACK = "repl_ack"
REPL_FETCH = "repl_fetch"
APP_LATENCY = "app_latency"

#: kind -> payload field names, in emit order. Closed: subscribing to a
#: kind that is not here raises, and a kind nothing emits is deleted.
#: ``event`` is the engine's own ``(time, seq, fn)`` tuple, passed as is
#: so a subscriber can be a bare ``deque.append``; its step is
#: ``engine.steps`` while it is delivered. ``op`` is one of app,
#: compute, fetch, home_wait, acquire, barrier, flush, ckpt; an op's
#: ``arg`` is its operand (incarnation, page, lock id, barrier episode,
#: dirty-page count; at a ckpt close the checkpoint number) or None.
CATALOGUE: Dict[str, Tuple[str, ...]] = {
    ENGINE_EVENT: ("event",),
    SEND: ("src", "dst", "msg"),
    DELIVER: ("src", "dst", "msg", "epoch"),
    OP_OPEN: ("pid", "op", "arg"),
    OP_CLOSE: ("pid", "op", "arg"),
    WAIT: ("pid", "bucket", "seconds", "op"),
    LOCK_ACQUIRED: ("pid", "lock_id", "grantor", "local"),
    LOCK_RELEASE: ("pid", "lock_id"),
    BARRIER_DONE: ("pid", "episode"),
    INTERVAL_FLUSHED: ("pid", "interval", "dirty_pages"),
    PAGE_FETCHED: ("pid", "page"),
    CHECKPOINT_TAKEN: ("pid", "ckpt_no", "vt", "disk_log_bytes"),
    CKPT_WRITE_BEGIN: ("pid", "seqno", "bytes"),
    CKPT_WRITE_END: ("pid", "seqno", "duration"),
    LLT: ("pid", "trimmed"),
    CGC: ("pid", "freed", "window"),
    FAILURE: ("pid",),
    RECOVERY_BEGIN: ("pid", "incarnation"),
    RECOVERY_ANNOTATE: ("pid", "label", "value"),
    RECOVERY_LIVE: ("pid",),
    RPHASE: ("pid", "phase", "edge"),
    REPL_RETARGET: ("pid", "old", "new", "gen"),
    REPL_SYNC: ("pid", "seqno", "dst"),
    REPL_BEGIN: ("pid", "seqno", "dst"),
    REPL_COMMIT: ("pid", "seqno", "dst"),
    REPL_ACK: ("pid", "seqno"),
    REPL_FETCH: ("pid", "kind", "lost", "holder"),
    APP_LATENCY: ("pid", "name", "seconds"),
}


class EventBus:
    """Synchronous fan-out of catalogued events to their subscribers."""

    def __init__(self) -> None:
        #: kind -> True once anything subscribed to it: the one test an
        #: emit site makes, ``if bus.on[KIND]: bus.emit(KIND, ...)``
        self.on: Dict[str, bool] = {kind: False for kind in CATALOGUE}
        self._subs: Dict[str, List[Callable[..., None]]] = {
            kind: [] for kind in CATALOGUE
        }

    def subscribe(self, kind: str, fn: Callable[..., None]) -> None:
        """Call ``fn(*payload)`` at every later ``kind`` event, after the
        subscribers already there."""
        if kind not in self._subs:
            raise ValueError(f"unknown event kind {kind!r}")
        self._subs[kind].append(fn)
        self.on[kind] = True

    def listeners(self, kind: str) -> List[Callable[..., None]]:
        """The live subscriber list of ``kind``: a loop may hoist it and
        still see subscribers that arrive while it runs."""
        return self._subs[kind]

    def emit(self, kind: str, *payload: Any) -> None:
        for fn in self._subs[kind]:
            fn(*payload)

    def clear(self) -> None:
        """Drop every subscriber; hoisted lists are emptied in place."""
        for kind, subs in self._subs.items():
            subs.clear()
            self.on[kind] = False


# ----------------------------------------------------------------------
# text: what timelines and flight records print for an event
# ----------------------------------------------------------------------
#: kind -> (category, detail of the recorded payload after ``pid``; a
#: send's is ``(dst, type name, category)``)
TEXT: Dict[str, Tuple[str, Callable[..., str]]] = {
    SEND: ("send", lambda dst, name, category: f"-> p{dst}  {name} ({category})"),
    LOCK_ACQUIRED: ("lock", lambda lock_id, grantor, local: (
        f"acquired L{lock_id} " + ("local" if local else f"from p{grantor}"))),
    LOCK_RELEASE: ("lock", lambda lock_id: f"release L{lock_id}"),
    BARRIER_DONE: ("barrier", lambda episode: f"passed episode {episode}"),
    INTERVAL_FLUSHED: ("flush", lambda interval, dirty: (
        f"interval {interval}: {dirty} dirty pages")),
    PAGE_FETCHED: ("fetch", lambda page: f"page {tuple(page)}"),
    CHECKPOINT_TAKEN: ("ckpt", lambda ckpt_no, vt, disk_log_bytes: (
        f"checkpoint #{ckpt_no} Tckp={tuple(vt)}")),
    CKPT_WRITE_BEGIN: ("ckpt_write", lambda seqno, nbytes: (
        f"begin seqno={seqno} bytes={nbytes}")),
    CKPT_WRITE_END: ("ckpt_write", lambda seqno, duration: f"end seqno={seqno}"),
    LLT: ("llt", lambda t: (
        f"diff_bytes={t['diff_bytes']} rel={t['rel']} "
        f"acq={t['acq']} wn={t['wn']}")),
    CGC: ("cgc", lambda freed, window: f"freed={freed} window={window}"),
    FAILURE: ("failure", lambda: "fail-stop"),
    RECOVERY_BEGIN: ("recovery", lambda inc: f"begin incarnation={inc}"),
    RECOVERY_ANNOTATE: ("recovery", lambda label, value: f"{label}={value}"),
    RECOVERY_LIVE: ("recovery", lambda: "live"),
    RPHASE: ("rphase", lambda phase, edge: f"{phase} {edge}"),
    REPL_RETARGET: ("repl", lambda old, new, gen: (
        f"retarget old={old} new={new} gen={gen}")),
    REPL_SYNC: ("repl", lambda seqno, dst: f"sync seqno={seqno} dst={dst}"),
    REPL_BEGIN: ("repl", lambda seqno, dst: f"begin seqno={seqno} dst={dst}"),
    REPL_COMMIT: ("repl", lambda seqno, dst: f"commit seqno={seqno} dst={dst}"),
    REPL_ACK: ("repl", lambda seqno: f"ack seqno={seqno}"),
    REPL_FETCH: ("repl", lambda kind, lost, holder: (
        f"fetch kind={kind} lost={lost} holder={holder}")),
}


class TraceEvent(NamedTuple):
    """One catalogued event as recorded: its payload, not its text.

    ``step`` is the engine event index at emission — with a deterministic
    engine, (pid, step) names one reproducible point in the execution,
    which is what the crash-sweep campaign enumerates as injection
    targets. ``args`` is the payload after ``pid``; a message keeps
    ``(dst, type name, category)`` and never the message itself, so a
    trace pins no payload of the run. The line's category and text are
    rendered through :data:`TEXT` when read."""

    time: float
    step: int
    event: str
    pid: int
    args: Tuple

    @property
    def kind(self) -> str:
        """The timeline category: send | lock | barrier | flush | ..."""
        return TEXT[self.event][0]

    @property
    def detail(self) -> str:
        return TEXT[self.event][1](*self.args)

    def render(self) -> str:
        return (
            f"{self.time * 1e3:10.4f} ms "
            f"#{self.step:<7d} p{self.pid}  {self.kind:<10} {self.detail}"
        )


def recording(
    engine: Any, event: str, keep: Callable[[TraceEvent], None]
) -> Callable[..., None]:
    """The subscriber to ``event`` that hands ``keep`` one
    :class:`TraceEvent` per emission: :func:`timeline` and the flight
    recorder both record through it."""
    # tuple.__new__ builds the record without a Python-level __new__
    new = tuple.__new__
    if event in (SEND, DELIVER):
        def on_message(src: int, dst: int, msg: Any, epoch: int = 0) -> None:
            keep(new(TraceEvent, (engine.now, engine.steps, event, src,
                                  (dst, type(msg).__name__, msg.category))))
        return on_message

    def on_event(pid: int, *args: Any) -> None:
        keep(new(TraceEvent, (engine.now, engine.steps, event, pid, args)))
    return on_event


def timeline(engine: Any, categories: Collection[str]) -> List[TraceEvent]:
    """The list that ``engine``'s later events of ``categories`` (the
    first field of :data:`TEXT`) fill as the run goes, in emission order."""
    events: List[TraceEvent] = []
    for event, (category, _) in TEXT.items():
        if category in categories:
            engine.bus.subscribe(event, recording(engine, event, events.append))
    return events
