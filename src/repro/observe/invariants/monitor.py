"""Online invariant monitor: the paper's theorems as runtime assertions.

An :class:`InvariantMonitor` attaches to a
:class:`~repro.cluster.DsmCluster` *before* ``run`` and continuously
checks five invariant classes derived from the paper (Sultan et al.,
SC 2000); see DESIGN.md §7.6 for the catalog mapping each check to its
theorem/section. Like the observer and the span tracer it is strictly
read-only: it subscribes to the run's event bus (``repro.sim.trace``)
and performs no scheduling, no sends and no state mutation — a monitored
run is bit-identical to an unmonitored one (golden-determinism test).

The five invariant classes:

``cgc``
    Rule 3.1 discipline. Immediately after every CGC pass on node *i*, at
    most one retained copy per page has ``version <= Tmin`` (the older
    ones are garbage the pass must have dropped); the newest retained
    copy belongs to the latest committed checkpoint (never collected);
    and the retained window is monotone — the per-page oldest-retained
    seqno never decreases across trims. (The paper's "at most two
    checkpoints" claim is knowledge-relative — see DESIGN.md §7.6 for why
    the literal count can legitimately exceed 2 under stale ``T̂ckp``.)

``llt``
    Rules 1/2/3.2 exactness at every LLT pass: no retained log entry sits
    at or below its derived trim bound (so log size never exceeds the
    trim frontier, and entries below the globally stable frontier are
    trimmed as soon as the bounds converge to it); the incremental
    byte counters agree with the entries; and the trimming *knowledge*
    never runs ahead of reality (``T̂ckp_j <=`` j's actual latest
    checkpoint stamp, learned ``p0.v`` ≤ the home's actual maximal
    starting copy) — stale bounds trim less, bounds ahead of reality
    would trim entries recovery still needs.

``vclock``
    Per-node vector-time monotonicity at every observable point (the
    baseline resets on a fail-stop: replay legitimately rewinds), and
    happened-before consistency of every vector-clock stamp on every
    sent and delivered message: no stamp component may exceed the
    highest value its owner has ever been observed to reach.

``fifo``
    Per-channel FIFO: deliveries on each (src, dst) channel occur in
    exactly the order of the sends (payload identity, tracked through
    crashes — the network outlives process incarnations).

``recoverability``
    Structural recovery precondition, from metadata (not by replay):
    every page's retained-copy sequence is well formed and non-empty
    with a starting copy usable by every live peer (``p0.version <=``
    the peer's vector time — Rule 3's guarantee); the restart checkpoint
    is a committed stable-storage key and no torn keys exist outside a
    checkpoint write window; the rel/acq log replication of §4.2.1
    holds pairwise — every acquire a live node logged is present in its
    grantor's rel_log with the *actual* acquire timestamp (exactly at
    quiescence, prediction <= actual while an AcqAck is in flight), and
    every self-grant at its holder once the network has drained, so a
    crash of either side can be replayed from the surviving copy; and,
    when the buddy-replication tier is on, the replicated-copy chains
    are sane — CGC trims never outran the buddy's acks, buddies never
    hold checkpoints the protected node did not commit, and no torn
    replica record survives quiescence.

What a structural scan visits
-----------------------------
The ``recoverability`` scan runs on a cadence (:data:`SCAN_EVERY`
deliveries), at every ``RECOVERY_LIVE`` and in :meth:`finish`. The
periodic scans are *incremental*: they run the same per-home and
per-pair checks as a full scan, but only on the structures that can have
changed since they last verified clean. ``RECOVERY_LIVE`` and
:meth:`finish` forget everything first, so they are full scans and the
oracle for the incremental path (a structure that ever fails is never
remembered, so it is re-checked — and re-reported — exactly as a full
scan would). Why skipping is sound:

1. **Page chains and the Rule 3 precondition.** A peer's vector time is
   monotone between its fail-stops — the ``vclock`` class checks that on
   every message — so once a home's chains are verified (non-empty,
   version/seqno-monotone, ``p0.version <=`` every live peer's vt) they
   stay true until a chain changes or a peer's baseline resets. Chain
   change is read off the state, not off announcements: commits, CGC
   trims and seeding all move one of ``next_seqno``, the retained /
   discarded page bytes or ``len(page_copies)`` of the home's
   ``CheckpointManager``, and so does deleting a page's key behind the
   protocol's back. A baseline reset (``FAILURE``, ``RECOVERY_LIVE``, a
   detected vt regression) forgets every home. Corruption that keeps all
   four counters is left to the next full scan.
2. **§4.2.1 rel/acq pairs.** Log buckets are append-only and otherwise
   replaced wholesale, by ``GrantLog.trim`` and by a ``GrantLog.confirm``
   that changes an entry (a new list object each time). A verified
   (acquirer, grantor) pair therefore stays verified while both buckets
   are the same list objects at the same lengths and neither side's
   liveness changed (``FAILURE`` / ``RECOVERY_LIVE`` forget every pair).
   The acquirer's own checkpoint cut only rises, which only takes
   entries out of consideration.
3. **Per message**, a host whose ``proto.vt`` is the very object seen
   last time is skipped: clocks are immutable, so there is nothing to
   compare and its high-water mark is current. Every host is still
   looked at on every message, at every cluster width, so a regression
   is reported at the same engine step as before. Stamps follow the
   same rule: the high-water marks never fall, so a stamp clock that
   passed once is remembered by identity, and an in-order delivery —
   the very object checked at its send — is not checked again.

On the first violation the attached
:class:`~repro.observe.invariants.recorder.FlightRecorder` state is
snapshotted into a post-mortem flight record (JSON + ASCII, see
``recorder.py``); :meth:`flight_record` makes one on demand (the CLI's
end-of-run record). The ring exists only where such a dump is read: with
``ring_size=0`` the monitor builds no recorder and makes no dump, and
checks exactly as before. The crash-sweep campaign runs that way — a
sweep point carries a verdict, never a flight record, and a failing
point is a deterministic re-run of ``run_point`` under
``InvariantMonitor(cluster)`` whenever its ring is wanted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.dsm.vclock import VClock
from repro.observe.invariants.recorder import FlightRecorder
from repro.sim.trace import (
    CGC,
    CKPT_WRITE_BEGIN,
    CKPT_WRITE_END,
    DELIVER,
    FAILURE,
    LLT,
    RECOVERY_LIVE,
    SEND,
)

__all__ = ["INVARIANTS", "Violation", "InvariantMonitor"]

#: the five checked invariant classes
INVARIANTS = ("cgc", "llt", "vclock", "fifo", "recoverability")

#: the structural recoverability scan runs at every Nth delivery. Ten is
#: what every sweep and the ledger run at; scanning at every delivery
#: costs ``sweep_session`` +27 % host time (ROADMAP item 5)
SCAN_EVERY = 10

#: distinct violations kept; later ones are counted in
#: ``dropped_violations``
MAX_VIOLATIONS = 64

#: message attributes carrying vector-clock stamps (happened-before check)
_STAMP_ATTRS = ("vt", "acq_vt", "rel_vt", "diff_vt", "global_vt")

#: stamp clocks remembered as verified, at most (emptied when full)
_STAMP_MEMO = 4096


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
        return {
            "invariant": self.invariant,
            "pid": self.pid,
            "time": self.time,
            "step": self.step,
            "detail": self.detail,
        }


class InvariantMonitor:
    """Continuously checks the paper-bound invariants of one cluster.

    The structural recoverability scan runs at every
    :data:`SCAN_EVERY`-th message delivery; those scans are incremental
    (module docstring), the scan at every recovery and the final :meth:`finish`
    scan always run and are full. Violations are collected,
    deduplicated on (invariant, pid, detail) and capped at
    :data:`MAX_VIOLATIONS`; with a flight ring (``ring_size > 0``) the
    first one snapshots a flight record (:attr:`violation_dump`).
    """

    def __init__(self, cluster: Any, ring_size: int = 256) -> None:
        self.cluster = cluster
        #: the flight ring, or None (``ring_size`` 0: nothing reads a dump)
        self.recorder = FlightRecorder(ring_size) if ring_size > 0 else None
        self.violations: List[Violation] = []
        self.dropped_violations = 0
        self.checks: Dict[str, int] = {k: 0 for k in INVARIANTS}
        self.violation_dump: Optional[Dict[str, Any]] = None
        n = self._n = cluster.config.num_procs
        #: channel ``src * n + dst`` -> sent-but-undelivered payload identities
        self._chan: Dict[int, deque] = {}
        #: highest own vt component ever observed per process; never
        #: reset (a replay cannot legitimately overtake the pre-crash
        #: observation before re-executing the same intervals)
        self._hwm: List[int] = [0] * n
        #: last observed vt per process (monotonicity baseline; reset to
        #: None on fail-stop — replay rewinds legitimately)
        self._last_vt: List[Optional[VClock]] = [None] * n
        #: per-(pid, page) oldest retained checkpoint seqno (CGC
        #: monotonicity floor)
        self._ckpt_floor: Dict[Tuple[int, Any], int] = {}
        #: per-pid high-water mark of buddy-acked replica seqnos (the
        #: trim-never-ahead-of-ack bound; survives re-buddy resets)
        self._acked_hwm: Dict[int, int] = {}
        #: pids currently inside a ckpt_write begin/end window (torn
        #: stable-store keys are legal only there or while down)
        self._ckpt_writing: Set[int] = set()
        self._seen: Set[Tuple[str, int, str]] = set()
        self._deliveries = 0
        #: page -> home pid, built lazily (regions exist only after setup)
        self._homes: Optional[Dict[Any, int]] = None
        #: home pid -> its pages (built with _homes)
        self._pages_by_home: Dict[int, List[Any]] = {}
        #: per home: its manager's (next_seqno, retained page bytes,
        #: discarded page bytes, len(page_copies)) when all of its page
        #: chains last verified clean, else None
        self._chains_ok: List[Optional[Tuple[int, ...]]] = [None] * n
        #: (acquirer, grantor) -> (acq bucket, len, rel bucket, len) at
        #: which the §4.2.1 pair last verified clean; holding the list
        #: objects keeps their identities from being reused
        self._pairs_ok: Dict[Tuple[int, int], Tuple[list, int, list, int]] = {}
        #: id -> stamp clock that passed the happened-before check
        self._stamps_ok: Dict[int, VClock] = {}
        #: message class -> (stamp attrs, has notices, has piggyback)
        self._stamp_shape: Dict[type, Tuple[Tuple[str, ...], bool, bool]] = {}
        self._subscribe()

    # ==================================================================
    # attachment
    # ==================================================================
    def _subscribe(self) -> None:
        """Subscription order is dispatch order: a message is checked
        before the recorder (when there is one) rings it, an FT/recovery
        event is rung before it is checked — so a violation's flight
        record ends with what led to it, not with the message that
        revealed it."""
        engine = self.cluster.engine
        bus = engine.bus
        bus.subscribe(SEND, self._on_send)
        bus.subscribe(DELIVER, self._on_deliver)
        if self.recorder is not None:
            self.recorder.attach(engine)
        bus.subscribe(LLT, self._check_llt)
        bus.subscribe(CGC, self._check_cgc)
        bus.subscribe(CKPT_WRITE_BEGIN, self._on_ckpt_write_begin)
        bus.subscribe(CKPT_WRITE_END, self._on_ckpt_write_end)
        bus.subscribe(FAILURE, self._on_failure)
        bus.subscribe(RECOVERY_LIVE, self._on_recovery_live)

    # ==================================================================
    # event handlers
    # ==================================================================
    def _on_send(self, src: int, dst: int, payload: Any) -> None:
        key = src * self._n + dst
        q = self._chan.get(key)
        if q is None:
            q = self._chan[key] = deque()
        q.append(payload)
        self._refresh_vclocks()
        self._check_stamps(src, payload)

    def _on_deliver(self, src: int, dst: int, payload: Any, epoch: int) -> None:
        q = self._chan.get(src * self._n + dst)
        in_order = bool(q) and q[0] is payload
        if in_order:
            q.popleft()
        elif not q:
            self._violate(
                "fifo", dst,
                f"delivery of {type(payload).__name__} from p{src} that "
                "was never sent on this channel",
            )
        else:
            self._violate(
                "fifo", dst,
                f"channel p{src}->p{dst} reordered: "
                f"{type(payload).__name__} delivered ahead of "
                f"{len(q)} earlier unsent-or-undelivered message(s)",
            )
            try:  # resync so one reorder doesn't cascade
                q.remove(payload)
            except ValueError:
                pass
        self.checks["fifo"] += 1
        self._refresh_vclocks()
        if not in_order:
            # (in order, it is the very object whose stamps were checked
            # at its send: clocks are immutable, high-water marks only rise)
            self._check_stamps(src, payload)
        self._deliveries += 1
        if self._deliveries % SCAN_EVERY == 0:
            self._scan_structural()

    def _on_ckpt_write_begin(self, pid: int, seqno: int, nbytes: int) -> None:
        self._ckpt_writing.add(pid)

    def _on_ckpt_write_end(self, pid: int, seqno: int, duration: float) -> None:
        # the commit marker lands later in this same engine event (the
        # event fires before commit_staged), so do NOT scan here — the
        # next delivery-driven scan runs after the commit and must find
        # no torn keys
        self._ckpt_writing.discard(pid)

    def _on_failure(self, pid: int) -> None:
        self._ckpt_writing.discard(pid)
        self._last_vt[pid] = None
        self._forget()

    def _on_recovery_live(self, pid: int) -> None:
        self._last_vt[pid] = None
        self._scan_structural(full=True)

    def _forget(self) -> None:
        """Nothing verified so far may be relied on: the next structural
        scan visits every home and every pair."""
        self._chains_ok = [None] * len(self._chains_ok)
        self._pairs_ok.clear()

    # ==================================================================
    # violation bookkeeping
    # ==================================================================
    def _violate(self, invariant: str, pid: int, detail: str) -> None:
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

    # ==================================================================
    # invariant 3 — vector clocks
    # ==================================================================
    def _refresh_vclocks(self) -> None:
        hwm = self._hwm
        last = self._last_vt
        for host in self.cluster.hosts:
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
                    "vclock", pid,
                    f"vector time regressed: {tuple(prev)} -> {tuple(vt)}",
                )
                self._forget()  # Rule 3 was verified against the old vt
            last[pid] = vt
        self.checks["vclock"] += 1

    def _check_stamps(self, origin: int, msg: Any) -> None:
        cls = type(msg)
        shape = self._stamp_shape.get(cls)
        if shape is None:
            # messages are dataclasses: which fields an instance has is a
            # property of its class, so one probe per class is enough
            shape = self._stamp_shape[cls] = (
                tuple(a for a in _STAMP_ATTRS if hasattr(msg, a)),
                hasattr(msg, "notices"),
                hasattr(msg, "piggyback"),
            )
        attrs, has_notices, has_piggyback = shape
        ok = self._stamps_ok
        for attr in attrs:
            t = getattr(msg, attr)
            if type(t) is VClock and id(t) not in ok:
                self._check_stamp(origin, cls.__name__, attr, t)
        if has_notices:
            for wn in msg.notices:
                t = getattr(wn, "vt", None)
                if type(t) is VClock and id(t) not in ok:
                    self._check_stamp(origin, "WriteNotice", "vt", t)
        if has_piggyback and msg.piggyback is not None:
            for _proc, tckp, _bar in msg.piggyback.tckps:
                if id(tckp) not in ok:
                    self._check_stamp(origin, "Piggyback", "tckp", tckp)

    def _check_stamp(self, origin: int, mname: str, attr: str,
                     t: VClock) -> None:
        """Happened-before check of one stamp. A clock is immutable and
        the high-water marks never fall, so a stamp that passes is
        remembered (by identity, pinned by the reference) and the same
        object — one vt rides on many messages, one write notice on
        every copy of it — is not walked again."""
        hwm = self._hwm
        for j, c in enumerate(t.v):
            if c > hwm[j]:
                self._violate(
                    "vclock", origin,
                    f"{mname}.{attr} stamps component {j} at {c}, beyond "
                    f"p{j}'s highest observed vector time {hwm[j]} "
                    "(happened-before violated: the stamp names an "
                    "interval its owner never started)",
                )
                return
        ok = self._stamps_ok
        if len(ok) >= _STAMP_MEMO:
            ok.clear()
        ok[id(t)] = t

    # ==================================================================
    # invariant 1 — CGC (Rule 3.1), checked at every CGC event
    # ==================================================================
    def _check_cgc(self, pid: int, *_payload: Any) -> None:
        host = self.cluster.hosts[pid]
        ft, mgr = host.ft, host.ckpt_mgr
        if ft is None or mgr is None:
            return
        tmin = ft.trim.tmin()
        latest = mgr.latest
        # with buddy replication, a copy is collectible only when it is
        # ALSO buddy-held: CGC gates on the replica-ack seqno ceiling, so
        # copies <= Tmin above the ceiling legitimately survive the pass
        ceil = ft.cgc_seqno_ceiling()
        for page, copies in mgr.page_copies.items():
            # versions are non-decreasing, so copies <= Tmin form a
            # prefix; after a correct pass only its last element remains
            # (of those the ack ceiling lets the pass consider at all)
            n_le = sum(
                1 for c in copies
                if c.version.leq(tmin)
                and (ceil is None or c.ckpt_seqno <= ceil)
            )
            if n_le > 1:
                self._violate(
                    "cgc", pid,
                    f"page {tuple(page)}: {n_le} retained copies <= Tmin "
                    f"{tuple(tmin)} (and buddy-acked) after CGC — only "
                    "the maximal starting copy may remain at or below "
                    "Tmin (Rule 3.1)",
                )
            if latest is not None and copies and (
                copies[-1].ckpt_seqno != latest.seqno
            ):
                self._violate(
                    "cgc", pid,
                    f"page {tuple(page)}: newest retained copy is from "
                    f"checkpoint {copies[-1].ckpt_seqno} but the latest "
                    f"committed checkpoint is {latest.seqno} — the "
                    "restart checkpoint's copies must never be collected",
                )
            key = (pid, page)
            floor = copies[0].ckpt_seqno if copies else -1
            prev = self._ckpt_floor.get(key, -1)
            if floor < prev:
                self._violate(
                    "cgc", pid,
                    f"page {tuple(page)}: oldest retained checkpoint "
                    f"regressed from {prev} to {floor} — the retained "
                    "window must evolve only by prefix-drop or append",
                )
            if floor > prev:
                self._ckpt_floor[key] = floor
        self.checks["cgc"] += 1

    # ==================================================================
    # invariant 2 — LLT (Rules 1/2/3.2), checked at every LLT event
    # ==================================================================
    def _check_llt(self, pid: int, *_payload: Any) -> None:
        host = self.cluster.hosts[pid]
        ft = host.ft
        if ft is None:
            return
        trim, logs = ft.trim, ft.logs
        # Rule 3.2 exactness: no retained diff entry at/below the bound
        for page, entries in logs.diff.per_page.items():
            bound = trim.diff_bound(page)
            if bound and any(e.t[pid] <= bound for e in entries):
                self._violate(
                    "llt", pid,
                    f"diff log for page {tuple(page)} retains entries with "
                    f"T[{pid}] <= p0.v bound {bound} after LLT (Rule 3.2 "
                    "trim missed — log exceeds its trim frontier)",
                )
        # counter/entry agreement (the "log size" the bound governs)
        actual = sum(
            e.size_bytes for es in logs.diff.per_page.values() for e in es
        )
        if actual != logs.diff.volatile_bytes:
            self._violate(
                "llt", pid,
                f"diff-log byte accounting drifted: counter reports "
                f"{logs.diff.volatile_bytes}, entries sum to {actual}",
            )
        # Rule 2: rel entries per acquirer, acq entries vs own cut
        for j in range(ft.n):
            if j == pid:
                continue
            bound = trim.rel_bound(j)
            if bound and any(
                e.acq_t[j] <= bound for e in logs.rel.entries[j]
            ):
                self._violate(
                    "llt", pid,
                    f"rel_log[{j}] retains entries with acq_t[{j}] <= "
                    f"T̂ckp_{j}[{j}]={bound} after LLT (Rule 2 trim missed)",
                )
        own_bound = trim.acq_bound()
        if own_bound and any(
            e.acq_t[pid] <= own_bound
            for es in logs.acq.entries for e in es
        ):
            self._violate(
                "llt", pid,
                f"acq_log retains entries with acq_t[{pid}] <= own "
                f"Tckp[{pid}]={own_bound} after LLT (Rule 2 trim missed)",
            )
        # barrier-log analogue
        bar_from = trim.bar_keep_from()
        if bar_from and any(ep < bar_from for ep in logs.bar):
            self._violate(
                "llt", pid,
                f"barrier log retains episodes below {bar_from} after LLT",
            )
        # Rule 1: own write notices
        wn_from = trim.wn_keep_from()
        proto = host.proto
        if proto is not None and wn_from > 1:
            stale = [
                wn for wn in proto.notices.own_after(pid, 0)
                if wn.interval < wn_from
            ]
            if stale:
                self._violate(
                    "llt", pid,
                    f"{len(stale)} own write notices from intervals below "
                    f"{wn_from} retained after LLT (Rule 1 trim missed)",
                )
        # frontier validity: trimming knowledge must lag reality — a
        # frontier ahead of reality would have trimmed entries that
        # recovery still needs
        hosts = self.cluster.hosts
        for j in range(ft.n):
            if j == pid:
                continue
            peer_mgr = hosts[j].ckpt_mgr
            if peer_mgr is None:
                continue
            known = trim.tckp[j]
            if peer_mgr.latest is None:
                if any(known.v):
                    self._violate(
                        "llt", pid,
                        f"knows checkpoint stamp {tuple(known)} for p{j}, "
                        "which has never committed a checkpoint",
                    )
            elif not known.leq(peer_mgr.latest.tckp):
                self._violate(
                    "llt", pid,
                    f"T̂ckp_{j} knowledge {tuple(known)} exceeds p{j}'s "
                    f"actual latest checkpoint "
                    f"{tuple(peer_mgr.latest.tckp)} — trim frontier ran "
                    "ahead of reality",
                )
        for page, v in trim.p0v.items():
            home_mgr = hosts[self._home_of(page)].ckpt_mgr
            if home_mgr is None:
                continue
            copies = home_mgr.page_copies.get(page)
            if copies and v > copies[0].version[pid]:
                self._violate(
                    "llt", pid,
                    f"learned p0.v[{pid}]={v} for page {tuple(page)} "
                    f"exceeds the home's actual maximal-starting-copy "
                    f"component {copies[0].version[pid]}",
                )
        self.checks["llt"] += 1

    def _home_of(self, page: Any) -> int:
        if self._homes is None:
            self._pages_homed_at(-1)  # builds both lazy maps
        return self._homes[page]

    def _pages_homed_at(self, pid: int) -> List[Any]:
        if self._homes is None:  # build the maps lazily
            self._homes = {
                p: self.cluster.regions.home_of(p)
                for p in self.cluster.regions.all_page_ids()
            }
            self._pages_by_home = {}
            for p, h in self._homes.items():
                self._pages_by_home.setdefault(h, []).append(p)
        return self._pages_by_home.get(pid, [])

    # ==================================================================
    # invariant 5 — structural recoverability
    # ==================================================================
    def _scan_structural(self, full: bool = False, final: bool = False) -> None:
        """One recoverability scan. A full scan is an incremental scan
        that remembers nothing (module docstring); ``final`` asks the
        §4.2.1 pairs for exact agreement (the run has quiesced)."""
        if full:
            self._forget()
        hosts = self.cluster.hosts
        live = [h for h in hosts if h.live]
        chains_ok = self._chains_ok
        for host in hosts:
            mgr = host.ckpt_mgr
            if mgr is None:
                continue
            pid = host.pid
            sig = (mgr.next_seqno, mgr.pages_retained_bytes,
                   mgr.pages_discarded_bytes, len(mgr.page_copies))
            if chains_ok[pid] != sig:
                peers = [
                    h for h in live if h.pid != pid and h.proto is not None
                ]
                clean = True
                # iterate the pages that MUST have a copy sequence here
                # (the ones homed at this node) rather than page_copies'
                # own keys, so a vanished page is a violation, not a
                # silent skip
                for page in self._pages_homed_at(pid):
                    if not self._check_chain(
                        pid, page, mgr.page_copies.get(page), peers
                    ):
                        clean = False
                chains_ok[pid] = sig if clean else None
            if mgr.latest is not None:
                key = ("ckpt", mgr.latest.seqno)
                if key not in mgr.store or mgr.store.is_pending(key):
                    self._violate(
                        "recoverability", pid,
                        f"restart checkpoint {mgr.latest.seqno} is not a "
                        "committed stable-storage key",
                    )
            if host.live and pid not in self._ckpt_writing:
                torn = mgr.store.pending_keys()
                if torn:
                    self._violate(
                        "recoverability", pid,
                        f"stable store holds torn keys {torn} outside any "
                        "checkpoint write window",
                    )
        pairs_ok = self._pairs_ok
        for host in live:
            ft = host.ft
            if ft is None:
                continue
            i = host.pid
            mgr = host.ckpt_mgr
            own_cut = (
                mgr.latest.tckp[i]
                if mgr is not None and mgr.latest is not None else 0
            )
            for g, mine in enumerate(ft.logs.acq.entries):
                # cheapest rejection first: most (i, g) pairs never
                # exchanged a lock, and the pair loop is O(N^2) per scan
                if not mine or g == i:
                    continue
                peer = hosts[g]
                if peer.ft is None or not peer.live:
                    continue
                rel = peer.ft.logs.rel.entries[i]
                sig = (mine, len(mine), rel, len(rel))
                seen = pairs_ok.get((i, g))
                if (seen is not None
                        and seen[0] is mine and seen[1] == sig[1]
                        and seen[2] is rel and seen[3] == sig[3]):
                    continue
                if self._check_pair(i, g, mine, rel, own_cut, final):
                    pairs_ok[(i, g)] = sig
                else:
                    pairs_ok.pop((i, g), None)
        self._scan_replicas(final)
        self.checks["recoverability"] += 1

    def _check_chain(self, pid: int, page: Any, copies: Optional[List[Any]],
                     peers: List[Any]) -> bool:
        """One page's retained-copy chain at its home ``pid`` against the
        live ``peers``; True when nothing was flagged."""
        if not copies:
            self._violate(
                "recoverability", pid,
                f"page {tuple(page)} has no retained checkpoint "
                "copies — no recovery could obtain a starting copy",
            )
            return False
        clean = True
        for a, b in zip(copies, copies[1:]):
            if not (a.version.leq(b.version)
                    and a.ckpt_seqno < b.ckpt_seqno):
                self._violate(
                    "recoverability", pid,
                    f"page {tuple(page)} retained-copy sequence "
                    f"is not monotone at checkpoints "
                    f"{a.ckpt_seqno}/{b.ckpt_seqno}",
                )
                clean = False
                break
        # Rule 3 precondition: every live peer's replay ceiling (its
        # current vt) dominates the oldest retained copy, so a usable
        # starting copy exists for any single failure
        p0 = copies[0].version
        for peer in peers:
            if not p0.leq(peer.proto.vt):
                self._violate(
                    "recoverability", pid,
                    f"oldest retained copy of page {tuple(page)} "
                    f"(version {tuple(p0)}) is not <= "
                    f"p{peer.pid}'s vector time "
                    f"{tuple(peer.proto.vt)} — a crash of "
                    f"p{peer.pid} would find no usable starting "
                    "copy (Rule 3 precondition)",
                )
                clean = False
        return clean

    def _check_pair(self, i: int, g: int, mine: List[Any], rel: List[Any],
                    own_cut: int, final: bool) -> bool:
        """§4.2.1 replication of one (acquirer ``i``, grantor ``g``)
        pair, both live: every acquire in ``mine`` (``i``'s
        ``acq_log[g]``) must be present in ``rel`` (``g``'s
        ``rel_log[i]``) — a lost entry means a replay of ``i``'s acquires
        would lose a grant. True when nothing was flagged. Caveats that
        bound what is checkable from metadata alone:

        * entries at or below ``own_cut`` (``i``'s checkpoint cut) are
          dead (a restart replays nothing before the cut) and may linger
          in the acq_log until ``i``'s next LLT pass — skipped;
        * grantors log the acquirer's *actual* acquire timestamp: the
          initial entry carries the grant-time prediction (= actual on
          every failure-free path) and the acquirer's AcqAck replaces
          it with the actual vt when the two diverge (recovery-forced
          resends). Entries are matched by grant identity — lock id
          plus the *grantor's own* vt component, which both sides
          compute identically. A matched pair must agree: exactly once
          the run has quiesced (``final``), and within prediction <=
          actual while an AcqAck may still be in flight. A missing
          match is flagged only when the grantor retains an *older*
          grant for us: correct trimming is a prefix drop in grant
          order, so old-retained + new-missing is a definite loss,
          while all-later/empty is just the grantor's earlier trim;
        * a self-grant (``local``) is the same pair with ``g`` its holder,
          but ``i`` logs its half *before* the notification that makes
          ``g`` log the other is even sent: its twin can be demanded
          only once the run has quiesced (``final``) with nothing in
          flight, and then exactly.
        """
        theirs: Dict[Tuple[int, int], List[VClock]] = {}
        oldest_rel = None
        for e in rel:
            if e.local:
                continue
            t = e.acq_t
            own = t[g]
            if oldest_rel is None or own < oldest_rel:
                oldest_rel = own
            theirs.setdefault((e.lock_id, own), []).append(t)
        # the periodic scans never ask for a self-grant's twin
        mirrors: Optional[Set[Tuple[int, VClock]]] = None
        if final and not self.cluster.network.inflight_msgs:
            mirrors = {(e.lock_id, e.acq_t) for e in rel if e.local}
        for e in mine:
            actual = e.acq_t
            if actual[i] <= own_cut:
                continue  # dead: below our own restart cut
            if e.local:
                if mirrors is not None and (e.lock_id, actual) not in mirrors:
                    self._violate(
                        "recoverability", i,
                        f"self-grant (lock {e.lock_id}, acq_t "
                        f"{tuple(actual)}) has no twin in its holder "
                        f"p{g}'s rel_log[{i}] after quiescence — the "
                        "§4.2.1 replicated pair lost an entry",
                    )
                    return False
                continue
            granted = actual[g]
            logged = theirs.get((e.lock_id, granted))
            if logged is None:
                if oldest_rel is not None and oldest_rel < granted:
                    self._violate(
                        "recoverability", i,
                        f"acq_log entry (lock {e.lock_id}, acq_t "
                        f"{tuple(actual)}) granted by p{g} is missing "
                        f"from p{g}'s rel_log[{i}], which still holds "
                        f"an older grant — the §4.2.1 replicated pair "
                        "lost an entry",
                    )
                    return False
            elif final:
                if actual not in logged:
                    self._violate(
                        "recoverability", i,
                        f"p{g}'s rel_log[{i}] entry for lock "
                        f"{e.lock_id} does not exactly match "
                        f"the acquirer's actual timestamp "
                        f"{tuple(actual)} after quiescence — "
                        "the §4.2.1 pair disagrees (AcqAck "
                        "fix-up lost)",
                    )
                    return False
            else:
                for t in logged:
                    if t.leq(actual):
                        break
                else:
                    self._violate(
                        "recoverability", i,
                        f"p{g}'s rel_log[{i}] entry for lock "
                        f"{e.lock_id} stamps a timestamp beyond "
                        f"the acquirer's actual {tuple(actual)} "
                        "— the grantor logged an acquire that "
                        "never happened",
                    )
                    return False
        return True

    def _scan_replicas(self, final: bool) -> None:
        """Replication-tier recoverability: trims never outran buddy
        acks, and buddy-held replica chains are sane.

        The protected side's bound uses a high-water mark of acked
        seqnos rather than the current ``acked_seqno``: re-buddying
        resets the ack counter to "nothing held" while previously-acked
        (and therefore legitimately trimmed) state waits for the full
        re-sync to be acknowledged — the genuine exposure window the
        double-fault sweep's degraded points come from, not a trim bug.
        """
        hosts = self.cluster.hosts
        for host in hosts:
            ft = host.ft
            repl = getattr(ft, "repl", None) if ft is not None else None
            if repl is None or not host.live:
                continue
            pid = host.pid
            mgr = host.ckpt_mgr
            latest_committed = (
                mgr.next_seqno - 1 if mgr is not None else 0
            )
            if repl.acked_seqno > latest_committed:
                self._violate(
                    "recoverability", pid,
                    f"replica ack seqno {repl.acked_seqno} exceeds the "
                    f"latest committed checkpoint {latest_committed} — "
                    "the buddy acked state that was never replicated",
                )
            hwm = max(
                self._acked_hwm.get(pid, 0), max(0, repl.acked_seqno)
            )
            self._acked_hwm[pid] = hwm
            if mgr is not None:
                for page, copies in mgr.page_copies.items():
                    if copies and copies[0].ckpt_seqno > hwm:
                        self._violate(
                            "recoverability", pid,
                            f"page {tuple(page)}: oldest retained copy is "
                            f"from checkpoint {copies[0].ckpt_seqno}, "
                            f"beyond the highest buddy-acked seqno {hwm} "
                            "— CGC trimmed state no replica ever held",
                        )
                        break
        # the buddy's side of each chain
        for holder in hosts:
            if not holder.live:
                continue
            rstore = getattr(holder, "replica_store", None)
            if rstore is None:
                continue
            for protected in rstore.protected_pids():
                st = rstore.store_for(protected)
                p_host = hosts[protected]
                p_live = p_host.live
                p_latest = (
                    p_host.ckpt_mgr.next_seqno - 1
                    if p_live and p_host.ckpt_mgr is not None else None
                )
                for key in st.keys():
                    if st.is_pending(key):
                        # torn records are legal mid-transfer and after
                        # a sender crash; only a quiesced run with the
                        # protected node alive must have none left (the
                        # run can end with the final commit still in
                        # flight — a drained network is what makes the
                        # record definitively torn rather than pending)
                        if (final and p_live and p_host.finished
                                and not self.cluster.network.inflight_msgs):
                            self._violate(
                                "recoverability", holder.pid,
                                f"replica record {key} of p{protected} "
                                "is still torn (begin without commit) "
                                "after the run quiesced",
                            )
                        continue
                    if p_latest is not None and key[1] > p_latest:
                        self._violate(
                            "recoverability", holder.pid,
                            f"holds a committed replica of "
                            f"p{protected}'s checkpoint {key[1]}, which "
                            f"p{protected} never committed "
                            f"(latest {p_latest})",
                        )

    # ==================================================================
    # lifecycle / reporting
    # ==================================================================
    def finish(self) -> List[Violation]:
        """Final full check after the run; returns all violations."""
        self._refresh_vclocks()
        self._scan_structural(full=True, final=True)
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
            "checks": dict(self.checks),
            "nodes": [self._node_snapshot(h) for h in self.cluster.hosts],
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

    @staticmethod
    def _node_snapshot(host: Any) -> Dict[str, Any]:
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

    def render_summary(self) -> str:
        """One-screen check/violation summary for the CLI."""
        lines = [f"{'invariant':<14} {'checks':>8}   {'violations':>10}"]
        for k in INVARIANTS:
            n = sum(1 for v in self.violations if v.invariant == k)
            lines.append(f"{k:<14} {self.checks[k]:>8}   {n:>10}")
        total = len(self.violations)
        verdict = "ALL INVARIANTS HELD" if not total else (
            f"{total} VIOLATION(S)"
            + (f" (+{self.dropped_violations} dropped)"
               if self.dropped_violations else "")
        )
        lines.append(f"{'total':<14} {sum(self.checks.values()):>8}   {verdict}")
        return "\n".join(lines)
