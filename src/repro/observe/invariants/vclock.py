"""``vclock``: vector time, checked at every send and delivery.

Per-node vector-time monotonicity at every observable point (the
baseline resets on a fail-stop: replay legitimately rewinds), and
happened-before consistency of every vector-clock stamp on every sent
and delivered message: no stamp component may exceed the highest value
its owner has ever been observed to reach. A ``DiffMsg`` carries its
writer's interval instead of a stamp: the same bound holds for it.

Why skipping is sound: clocks are immutable, so a host whose
``proto.vt`` is the object seen last time has nothing to compare; every
host is still looked at on every message, so a regression is reported
at the same step a full look would. High-water marks never fall, so a
stamp clock that passed is remembered by identity; a delivery is not
checked again, as every payload on the network passed ``SEND`` (the
``fifo`` checker flags one that did not). A regression
invalidates what was verified against the old vector time: it reaches
the other checkers through the monitor (``InvariantMonitor.forget``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.dsm.messages import DiffMsg
from repro.dsm.vclock import VClock
from repro.sim.engine import back_ref
from repro.sim.trace import DELIVER, FAILURE, RECOVERY_LIVE, SEND

__all__ = ["VclockChecker"]

#: message attributes carrying vector-clock stamps (happened-before check)
_STAMP_ATTRS = ("vt", "acq_vt", "rel_vt", "global_vt")

#: stamp clocks remembered as verified, at most (emptied when full)
_STAMP_MEMO = 4096


class VclockChecker:
    name = "vclock"

    def __init__(self, monitor: Any) -> None:
        self.hosts = monitor.cluster.hosts
        self._violate = monitor.sink(self.name)
        self._monitor = back_ref(monitor)
        self.checks = 0
        n = monitor.cluster.config.num_procs
        #: highest own vt component ever observed per process; never
        #: reset (a replay cannot legitimately overtake the pre-crash
        #: observation before re-executing the same intervals)
        self._hwm: List[int] = [0] * n
        #: last observed vt per process (monotonicity baseline; reset to
        #: None on fail-stop — replay rewinds legitimately)
        self._last_vt: List[Optional[VClock]] = [None] * n
        #: id -> stamp clock that passed the happened-before check
        self._stamps_ok: Dict[int, VClock] = {}
        #: message class -> (stamp attrs, has notices, has piggyback)
        self._stamp_shape: Dict[type, Tuple[Tuple[str, ...], bool, bool]] = {}

    def subscriptions(self):
        return [
            (SEND, self._on_send), (DELIVER, self._refresh),
            (FAILURE, self._reset), (RECOVERY_LIVE, self._reset),
        ]

    def adopt(self) -> None:
        """Each host's vector time is its baseline, and its own component
        its high-water mark (vector time only rises in a clean prefix)."""
        for host in self.hosts:
            if host.proto is not None:
                vt = host.proto.vt
                self._last_vt[host.pid] = vt
                self._hwm[host.pid] = vt.v[host.pid]

    def _on_send(self, src: int, dst: int, payload: Any) -> None:
        """The vector times, then every stamp ``payload`` carries."""
        self._refresh()
        cls = type(payload)
        shape = self._stamp_shape.get(cls)
        if shape is None:
            # messages are dataclasses: which fields an instance has is a
            # property of its class, so one probe per class is enough
            shape = self._stamp_shape[cls] = (
                tuple(a for a in _STAMP_ATTRS if hasattr(payload, a)),
                hasattr(payload, "notices"),
                hasattr(payload, "piggyback"),
            )
        attrs, has_notices, has_piggyback = shape
        if cls is DiffMsg:
            w, interval = payload.writer, payload.interval
            if interval > self._hwm[w]:
                self._violate(
                    src, f"DiffMsg.interval {interval} runs ahead of p{w}'s "
                    f"highest observed vector time {self._hwm[w]} "
                    "(happened-before violated: the diff names an interval "
                    "its writer never started)",
                )
        ok = self._stamps_ok
        for attr in attrs:
            t = getattr(payload, attr)
            if type(t) is VClock and id(t) not in ok:
                self._check_stamp(src, cls.__name__, attr, t)
        if has_notices:
            for wn in payload.notices:
                t = getattr(wn, "vt", None)
                if type(t) is VClock and id(t) not in ok:
                    self._check_stamp(src, "WriteNotice", "vt", t)
        if has_piggyback and payload.piggyback is not None:
            for _proc, tckp, _bar in payload.piggyback.tckps:
                if id(tckp) not in ok:
                    self._check_stamp(src, "Piggyback", "tckp", tckp)

    def _reset(self, pid: int) -> None:
        self._last_vt[pid] = None

    def finish(self) -> None:
        self._refresh()

    def _refresh(self, *_event: Any) -> None:
        hwm = self._hwm
        last = self._last_vt
        for host in self.hosts:
            proto = host.proto
            if proto is None or proto.vt is last[host.pid]:
                continue  # immutable clock, same object: nothing moved
            vt = proto.vt
            pid = host.pid
            prev = last[pid]
            own = vt.v[pid]
            if own > hwm[pid]:
                hwm[pid] = own
            if prev is not None and not prev.leq(vt):
                self._violate(
                    pid, f"vector time regressed: {tuple(prev)} -> {tuple(vt)}"
                )
                self._monitor.forget()  # Rule 3 was verified against the old vt
            last[pid] = vt
        self.checks += 1

    def _check_stamp(self, origin: int, mname: str, attr: str,
                     t: VClock) -> None:
        """Happened-before check of one stamp; one that passes is
        remembered (by identity, pinned by the reference), so the same
        object — one vt rides on many messages, one write notice on
        every copy of it — is not walked again."""
        hwm = self._hwm
        for j, c in enumerate(t.v):
            if c > hwm[j]:
                self._violate(
                    origin, f"{mname}.{attr} stamps component {j} at {c}, beyond "
                    f"p{j}'s highest observed vector time {hwm[j]} "
                    "(happened-before violated: the stamp names an "
                    "interval its owner never started)",
                )
                return
        ok = self._stamps_ok
        if len(ok) >= _STAMP_MEMO:
            ok.clear()
        ok[id(t)] = t
