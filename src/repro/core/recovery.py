"""Single-fault recovery by log-based replay (§4.3).

The paper's prototype implemented logging but not recovery; this module
implements the full procedure the paper specifies, which is also how the
test suite *proves* that LLT/CGC retain exactly enough state:

1. **Restart** from the restart checkpoint (or the virtual initial
   checkpoint): restore private state, vector time, homed pages + their
   version vectors, the saved logs, and the small protocol structures.
2. **Handshake** with every peer, collecting: ``rel_log[me]`` entries
   (grants to the failed process — drive acquire replay), ``acq_log``
   mirrors of the failed process's own grants (restore its ``rel_log``),
   peers' write-notice logs, their barrier logs (the failed process's
   own, restored), and all diffs peers retain for pages homed at the
   failed process. Self-grants travel inside the two grant logs as
   ``local`` entries.
3. **Replay**: the application re-runs from the restored state; the
   :class:`ReplayDriver` satisfies each synchronization operation from
   the logs and each page miss by *local emulation of a home* — an
   evolving page copy built from the maximal starting copy plus
   happened-before diffs applied in a linear extension of the vector-time
   partial order (componentwise-sum order).
4. **Live switch**: when a synchronization operation finds no log entry,
   the execution has caught up with the crash point; the driver finalizes
   (applies residual homed diffs, places each lock token where it is
   held or where the lock's manager reports it) and the process
   continues live. A ``RecoveryDone`` broadcast lets peers re-issue
   requests the failed incarnation consumed and lets lock managers
   repair lost forwards.

Known limitation: replay alignment of lock events relies on each
release-that-grants being distinguishable by vector time, which holds
whenever locks protect actual writes (true of all bundled applications
and of race-free programs doing useful work under locks).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.checkpoint import Checkpoint
from repro.core.ftmanager import FtManager
from repro.core.logs import RelEntry
from repro.core.replica import NO_REPLICA, FtImage, best_record
from repro.dsm.diff import Diff, apply_diff
from repro.dsm.interval import NoticeTable
from repro.dsm.messages import (
    GrantInfo,
    LockGrant,
    RecoveryDone,
    RecoveryQuery,
    RecoveryReply,
)
from repro.dsm.pages import PageEntry, PageId, PageState
from repro.dsm.protocol import DsmProcess
from repro.dsm.vclock import VClock
from repro.sim.engine import Future, back_ref
from repro.sim.node import TimeBucket
from repro.sim.trace import (
    RECOVERY_ANNOTATE,
    RECOVERY_LIVE,
    REPL_FETCH,
    RPHASE,
)

__all__ = [
    "OverlappingFailureError",
    "answer_query",
    "RecoveryManager",
    "ReplayDriver",
]


class OverlappingFailureError(RuntimeError):
    """A second failure overlapped this recovery in an unrecoverable way.

    The protocol's volatile rel/acq logs are *not* part of checkpoints —
    they are rebuilt from peers' mirrors during the handshake. If a peer
    we depend on failed at-or-after our own crash, its mirrors may no
    longer cover what our replay needs, and proceeding could silently
    diverge. The paper assumes single failures (§2); we detect the
    violated assumption and fail loudly instead of hanging or diverging.
    """


def _sum_key(t: VClock) -> int:
    """Componentwise sum: a linear extension of the vector-time order."""
    return sum(t.v)


# ======================================================================
# peer side
# ======================================================================


def answer_query(host: Any, src: int, query: RecoveryQuery) -> None:
    """Serve ``src``'s recovery query from ``host``'s :class:`FtImage` —
    or, for a query ``about`` a lost peer, from the replicated image
    ``host`` holds as that peer's buddy.

    Responses are computed in the message handler ("recovery of a process
    does not interfere with other operational processes") and their CPU
    cost is accrued as handler debt.
    """
    if query.about is None:
        payload, size = FtImage.live(host.ft).answer(query.kind, src, query.detail)
        if payload is NO_REPLICA:
            raise RuntimeError(
                f"p{host.pid} retains no usable starting copy for "
                f"{query.detail} (Rule 3 violated)"
            )
    else:
        # ``src`` lost peer ``about`` to an overlapping failure
        rec = best_record(host, query.about)
        if rec is not None:
            payload, size = rec.image.answer(query.kind, src, query.detail)
        else:
            payload, size = NO_REPLICA, 8  # no committed record survives
    reply = RecoveryReply(
        kind=query.kind,
        responder=host.pid,
        payload=payload,
        payload_size=size,
        qid=query.qid,
        responder_crash_time=host.last_crash_time,
        responder_recovering=host.recovering,
    )
    host.proto.cpu.accrue_handler(20e-6)
    host.cluster.send(host.pid, src, reply)


# ======================================================================
# recovering side
# ======================================================================


class RecoveryManager:
    """Drives the recovery of one failed process."""

    def __init__(self, host: Any) -> None:
        #: the host holds us as ``recovery_mgr`` while it recovers
        self.host = back_ref(host)
        self.cluster = host.cluster
        self.pid = host.pid
        #: when the incarnation this manager recovers crashed; replies
        #: from peers that failed at-or-after this instant signal overlap
        self.crash_time = host.last_crash_time
        self._pending: Dict[int, Future] = {}
        #: phase-boundary virtual times (recovery anatomy, DESIGN.md §7.3):
        #: begin / restore end / handshake end, filled as the procedure
        #: advances; a killed incarnation's partial marks die with it
        self._t_begin = -1.0
        self._t_restored = -1.0
        self._t_handshake = -1.0
        #: buddy-replica fetch accounting (the stable-store-vs-replica
        #: split of the restore/replay work)
        self.replica_fetches = 0
        self.replica_fetch_s = 0.0

    # -- query plumbing -------------------------------------------------
    def query(
        self, dst: int, kind: str, detail: Any = None, about: Optional[int] = None
    ) -> Iterator[Any]:
        while True:
            # qids are host-level monotonic: a restarted recovery must
            # never reuse a qid a killed incarnation has in flight, or a
            # stale reply could resolve the wrong future
            qid = self.host.next_qid()
            fut = Future(("recovery", kind, dst))
            self._pending[qid] = fut
            self.cluster.send(
                self.pid,
                dst,
                RecoveryQuery(
                    kind=kind, requester=self.pid, detail=detail, qid=qid,
                    about=about,
                ),
            )
            reply: RecoveryReply = yield fut
            if about is not None:
                # served from the holder's volatile replica tier, which
                # is valid regardless of the holder's own failure
                # history — no overlap check applies
                return reply.payload
            # Only the *ordering* of the failures matters. A responder that
            # crashed strictly before us rebuilds its logs from mirrors
            # recorded while we were still alive: until it is live again
            # its answer may be incomplete, so it is asked again (below) —
            # that interleaving is the workable mutual-recovery dance. A
            # responder that failed at-or-after us lost the very mirrors
            # our replay depends on, and its own rebuild cannot reach us
            # for them (we are down).
            failed_at = reply.responder_crash_time
            if failed_at >= 0 and failed_at >= self.crash_time:
                if not self.cluster.replication:
                    raise OverlappingFailureError(
                        f"recovery of p{self.pid} (crashed "
                        f"t={self.crash_time:.6f}) depends on "
                        f"p{reply.responder}, which failed at "
                        f"t={failed_at:.6f} — its volatile "
                        "logs may no longer cover this replay (overlapping "
                        "failures exceed the single-fault model, §2)"
                    )
                # fall back to its buddy's replica of those mirrors
                payload = yield from self._query_replica(dst, kind, detail)
                return payload
            if reply.responder_recovering:
                # the responder crashed strictly before us and is still
                # rebuilding: its mirrors of *us* are intact but possibly
                # not yet drained into its state — retry until it is
                # live. Deadlock-free: in any mutually-recovering pair
                # exactly one side sees overlap (above) and either
                # degrades or completes via the replica path.
                yield float(self.cluster.config.failure_detection_delay)
                continue
            return reply.payload

    def _query_replica(self, lost: int, kind: str, detail: Any) -> Iterator[Any]:
        """Fetch what ``lost`` would have answered from a replica holder.

        Tries holders in ring order; a holder whose record is missing or
        torn answers with the NO_REPLICA sentinel and the next one is
        tried. No holder left = the replica chain itself was lost
        (e.g. both ends crashed before a re-sync) — that is the residual,
        explicitly-diagnosed unrecoverable overlap.
        """
        cluster = self.cluster
        tried: List[int] = []
        while True:
            holder = cluster.replica_holder(lost, exclude=tuple(tried))
            if holder is None:
                raise OverlappingFailureError(
                    f"recovery of p{self.pid} (crashed t={self.crash_time:.6f}) "
                    f"depends on p{lost}, which failed too, and no live "
                    f"replica of p{lost}'s FT state survives — the replica "
                    "chain was lost before a re-sync could repair it "
                    "(overlapping failures exceed what one buddy covers)"
                )
            bus = cluster.engine.bus
            if bus.on[REPL_FETCH]:
                bus.emit(REPL_FETCH, self.pid, kind, lost, holder)
            t0 = cluster.engine.now
            payload = yield from self.query(holder, kind, detail, about=lost)
            self.replica_fetches += 1
            self.replica_fetch_s += cluster.engine.now - t0
            if payload is NO_REPLICA:
                tried.append(holder)
                continue
            return payload

    def query_all(self, kind: str, detail: Any = None) -> Iterator[Any]:
        """Query every live peer; returns {pid: payload}."""
        out: Dict[int, Any] = {}
        for j in range(self.cluster.config.num_procs):
            if j == self.pid:
                continue
            out[j] = yield from self.query(j, kind, detail)
        return out

    def on_reply(self, src: int, reply: RecoveryReply) -> None:
        fut = self._pending.pop(reply.qid, None)
        if fut is not None:
            fut.resolve(reply)

    # ------------------------------------------------------------------
    # the recovery procedure
    # ------------------------------------------------------------------
    def _rphase(self, phase: str, edge: str) -> None:
        """Announce a recovery-phase boundary (``edge``: begin | end)."""
        bus = self.cluster.engine.bus
        if bus.on[RPHASE]:
            bus.emit(RPHASE, self.pid, phase, edge)

    def answer_held(self) -> None:
        """Answer the recovery queries held while we were down *now*, not
        at go-live: a peer recovering concurrently would otherwise wait on
        us while we wait on it (replies carry responder_recovering=True,
        so the peer retries, degrades or falls back to our buddy)."""
        host = self.host
        held = [(s, m) for (s, m) in host.queued if isinstance(m, RecoveryQuery)]
        if held:
            host.queued = [
                e for e in host.queued if not isinstance(e[1], RecoveryQuery)
            ]
            for s, m in held:
                answer_query(host, s, m)

    def recover_and_resume(self) -> Iterator[Any]:
        host = self.host
        cluster = self.cluster
        host.recovery_mgr = self
        self._t_begin = cluster.engine.now
        self._rphase("restore", "begin")

        # 1. rebuild volatile infrastructure -----------------------------
        proto = host.make_protocol()
        host.proto = proto
        cluster._install_ft(host)  # fresh FtManager over the surviving store
        ft: FtManager = host.ft

        self.answer_held()

        # a crash during a checkpoint disk write leaves a marker-less
        # (torn) record on stable storage; it must not be a restart point
        bus = cluster.engine.bus
        torn = host.ckpt_mgr.discard_torn()
        if torn and bus.on[RECOVERY_ANNOTATE]:
            bus.emit(RECOVERY_ANNOTATE, self.pid, "discarded_torn n", torn)

        ckpt: Optional[Checkpoint] = host.ckpt_mgr.latest
        if ckpt is not None:
            self._restore_from_checkpoint(proto, ft, ckpt)
            host.state = ckpt.restore_app_state()
            if bus.on[RECOVERY_ANNOTATE]:
                bus.emit(
                    RECOVERY_ANNOTATE, self.pid, "restart_ckpt seqno", ckpt.seqno
                )
        else:
            # restart from the virtual checkpoint 0: initial private
            # state and the *seeded* initial contents of homed pages
            host.state = cluster.app.init_state(self.pid)
            for page, copies in host.ckpt_mgr.page_copies.items():
                seed = copies[0]
                proto.page_bytes(page)[:] = np.frombuffer(
                    seed.data, dtype=np.uint8
                )
                proto.home[page].version = seed.version
                proto.have_v[page] = seed.version
        tckp = ckpt.tckp if ckpt is not None else VClock.zero(proto.n)

        # disk read: restart checkpoint + saved logs
        restore_bytes = host.store.used_bytes
        yield from proto.cpu.charge(
            TimeBucket.LOG_CKPT, host.disk.read_cost(restore_bytes)
        )
        self._t_restored = cluster.engine.now
        self._rphase("restore", "end")

        # 2. handshake ----------------------------------------------------
        self._rphase("handshake", "begin")
        replies = yield from self.query_all("handshake")
        driver = ReplayDriver(proto, ft, self, tckp)
        driver.ingest_handshakes(replies)

        home_diffs = yield from self.query_all("home_diffs")
        driver.ingest_home_diffs(home_diffs)
        self._t_handshake = cluster.engine.now
        self._rphase("handshake", "end")

        # 3. replay -------------------------------------------------------
        self._rphase("replay", "begin")
        proto.replay = driver
        driver.apply_home_diffs(proto.vt)
        driver.on_live = self._go_live

        yield from cluster._app_main(host)
        # if the app finished while still in replay mode (every remaining
        # operation was logged before the crash), the live switch still
        # must happen: peers need the RecoveryDone and the queued messages
        if not driver.live:
            driver.go_live()
        host.recovery_mgr = None

    def _finish_phases(self) -> None:
        """Record this incarnation's completed recovery anatomy in
        ``host.recovery_phases``, the one place it is kept (observers
        read the newest record at ``RECOVERY_LIVE``).

        Runs at the live switch, *before* the ``RECOVERY_LIVE`` event,
        so the span tracer closes the replay child span while its parent
        recovery span is still open. Phase durations (all virtual time):

        * ``detect``    — fail-stop to recovery start (the cluster's
          failure-detection delay);
        * ``restore``   — infrastructure rebuild + stable-store read of
          the restart checkpoint and saved logs;
        * ``handshake`` — the two ``query_all`` rounds (handshake and
          home-diff collection), including any buddy-replica fallback
          fetches (counted separately in ``replica_fetches``/
          ``replica_fetch_s``);
        * ``replay``    — log-guided re-execution up to the live switch;
        * ``resume``    — the live switch itself (RecoveryDone broadcast,
          forwarded-lock repair, queue drain); it runs synchronously in
          zero virtual time today but is recorded so the schema names
          every phase of the recovery path.
        """
        host = self.host
        t_live = self.cluster.engine.now
        self._rphase("replay", "end")
        rec = {
            "incarnation": host.crashed_count,
            "crash_time": self.crash_time,
            "detect": self._t_begin - self.crash_time,
            "restore": self._t_restored - self._t_begin,
            "handshake": self._t_handshake - self._t_restored,
            "replay": t_live - self._t_handshake,
            "resume": 0.0,
            "total": t_live - self.crash_time,
            "replica_fetches": self.replica_fetches,
            "replica_fetch_s": self.replica_fetch_s,
        }
        host.recovery_phases.append(rec)

    def _go_live(self) -> None:
        """Called by the driver at the live switch."""
        host = self.host
        cluster = self.cluster
        self._finish_phases()
        host.recovering = False
        host.live = True
        cluster.recoveries += 1
        host.recovered_count += 1
        if cluster.engine.bus.on[RECOVERY_LIVE]:
            cluster.engine.bus.emit(RECOVERY_LIVE, self.pid)
        for j in range(cluster.config.num_procs):
            if j != self.pid:
                cluster.send(self.pid, j, RecoveryDone(proc=self.pid))
        # repair our own managed locks / pending ops
        assert host.proto is not None
        host.proto.repair_forwards_for(self.pid)
        # re-enter the replication ring (if any): our new incarnation
        # picks a buddy and full-syncs; peers that had re-buddied away
        # from us (or to a now-suboptimal ring position) re-evaluate
        cluster._recompute_buddies()
        host.drain_queue()

    # ------------------------------------------------------------------
    def _restore_from_checkpoint(
        self, proto: DsmProcess, ft: FtManager, ckpt: Checkpoint
    ) -> None:
        ckpt.restore_into(proto, ft.ckpt_mgr.page_copies)
        # own write notices
        for wn in ckpt.own_notices:
            proto.notices.add(wn)
        # saved diff log: the checkpoint's records, all of them on disk
        ft.logs.diff = ckpt.diff_log.copy()
        ft.logs.diff.flush()
        ft.trim.learn_tckp(self.pid, ckpt.tckp, ckpt.barrier_episode)


# ======================================================================
# replay
# ======================================================================


@dataclass
class _PoolEntry:
    creator: int
    t: VClock
    diff: Diff


class ReplayDriver:
    """Satisfies DSM operations from recovered logs during replay."""

    def __init__(
        self,
        proto: DsmProcess,
        ft: FtManager,
        rm: RecoveryManager,
        tckp: VClock,
    ) -> None:
        #: the process holds us as ``replay`` until the live switch
        self.proto = back_ref(proto)
        self.ft = ft
        self.rm = rm
        self.tckp = tckp
        self.pid = proto.pid
        #: lock -> ordered pending acquire records: (rel entry, the peer
        #: that holds it — the grantor, or a self-grant's holder)
        self.acquire_records: Dict[int, List[Tuple[RelEntry, int]]] = {}
        #: lock -> owner as tracked by its (live) manager via GrantInfo —
        #: the authoritative token-placement source (the rel/acq mirrors
        #: may be legitimately trimmed under Rule 2)
        self.owner_reports: Dict[int, int] = {}
        #: lock -> peer currently reporting the token (for locks the
        #: recovering process manages itself)
        self.peer_token_holders: Dict[int, int] = {}
        #: lock -> {proc: (successor, seq)} pointers, for chain rebuilds
        self.succ_edges: Dict[int, Dict[int, Tuple[int, int]]] = {}
        #: episode -> global vt: the union of the peers' barrier logs
        self.bar: Dict[int, VClock] = {}
        #: collected peers' write notices (NOT merged into proto.notices:
        #: only happened-before ones are surfaced, at vt advances)
        self.peer_notices = NoticeTable(proto.n)
        #: page -> evolving home-emulation copy
        self.evolving: Dict[PageId, np.ndarray] = {}
        self.evolving_v: Dict[PageId, VClock] = {}
        #: page -> diff pool for home emulation (sum-ordered)
        self.pool: Dict[PageId, List[_PoolEntry]] = {}
        self.pool_fetched: Set[PageId] = set()
        #: pools for the pages homed at the recovering process
        self.home_pool: Dict[PageId, List[_PoolEntry]] = {}
        self.live = False
        self.on_live = lambda: None

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest_handshakes(self, replies: Dict[int, Dict[str, Any]]) -> None:
        proto = self.proto
        me = self.pid
        # a self-grant notification that reached us while we were down
        # sits in the host's queue and logs its own rel half when the
        # queue drains at the live switch: not restored from the twin too
        queued_mirrors = {
            (src, qmsg.lock_id, qmsg.acq_t)
            for src, qmsg in self.rm.host.queued
            if isinstance(qmsg, GrantInfo) and qmsg.acq_t is not None
        }
        for src, payload in replies.items():
            for entry in payload["rel_entries"]:
                if entry.acq_t[me] > self.tckp[me]:
                    self.acquire_records.setdefault(entry.lock_id, []).append(
                        (entry, src)
                    )
            for entry in payload["acq_mirror"]:
                # the twins of our rel_log[src]: restore it
                if entry.local and (src, entry.lock_id, entry.acq_t) in queued_mirrors:
                    continue
                self.ft.logs.rel.append(
                    src, entry.lock_id, entry.acq_t, entry.local
                )
            for wn in payload["wn"]:
                self.peer_notices.add(wn)
            self.bar.update(payload["bar"])
            self.ft.trim.learn_tckp(src, payload["tckp"], payload["bar_ep"])
            self.owner_reports.update(payload["managed_owners"])
            for lock_id, (has_token, held, succ, succ_seq) in payload[
                "tokens"
            ].items():
                if has_token:
                    self.peer_token_holders[lock_id] = src
                if succ is not None:
                    self.succ_edges.setdefault(lock_id, {})[src] = (succ, succ_seq)
            for lock_id, seq in payload["completed_seq"].items():
                if proto.locks.manages(lock_id):
                    mgr = proto.locks.manager(lock_id)
                    mgr.last_seq[src] = max(mgr.last_seq.get(src, -1), seq)
        for records in self.acquire_records.values():
            records.sort(key=lambda r: r[0].acq_t[me])

        # the union is our own barrier log too (LLT trims it as usual);
        # as the barrier manager, resume after its newest episode, or at
        # our restart point when no peer retains one from there on
        self.ft.logs.bar.update(self.bar)
        mgr = proto.barrier_mgr
        if mgr is not None:
            last = max(self.bar, default=-1)
            if last >= proto.barrier_episode:
                mgr.next_episode, mgr.last_global = last + 1, self.bar[last]
            else:
                mgr.next_episode = proto.barrier_episode
                mgr.last_global = proto.last_barrier_global

    def ingest_home_diffs(
        self, replies: Dict[int, Dict[PageId, List[Tuple[VClock, Diff]]]]
    ) -> None:
        for src, pages in replies.items():
            for page, entries in pages.items():
                pool = self.home_pool.setdefault(page, [])
                for t, diff in entries:
                    pool.append(_PoolEntry(src, t, diff))
        for pool in self.home_pool.values():
            pool.sort(key=lambda e: _sum_key(e.t))

    # ------------------------------------------------------------------
    # vt advancement: invalidations + homed-page diff application
    # ------------------------------------------------------------------
    def advance_vt(self, new_vt: VClock) -> None:
        proto = self.proto
        old = proto.vt
        joined = old.join(new_vt)
        # replayed notices are not counted in stats.notices_applied
        proto._apply_notices(self.peer_notices.between(old, joined))
        proto.vt = joined
        self.apply_home_diffs(joined)

    @staticmethod
    def _apply_pooled(
        pool: List[_PoolEntry],
        version: VClock,
        ceiling: Optional[VClock],
        write: Callable[[Diff], None],
    ) -> VClock:
        """The one way pooled diffs reach a page copy at ``version``.

        In pool order (a linear extension of vector time), ``write`` every
        diff the copy does not reflect yet and that happened before
        ``ceiling`` (``None``: every one); returns the copy's new version.
        """
        for e in pool:
            interval = e.t[e.creator]
            if interval <= version[e.creator]:
                continue  # already reflected
            if ceiling is not None and interval > ceiling[e.creator]:
                continue  # did not happen before the replay point
            write(e.diff)
            version = version.with_component(e.creator, interval)
        return version

    def apply_home_diffs(self, ceiling: Optional[VClock]) -> None:
        """Bring our homed pages up to the replay point ``ceiling`` — or,
        at the live switch (``None``), fully up to the crash point."""
        proto = self.proto
        for page, pool in self.home_pool.items():
            hp = proto.home[page]
            hp.version = self._apply_pooled(
                pool, hp.version, ceiling, partial(proto.apply_remote_diff, page)
            )
            proto.have_v[page] = proto.have_v[page].join(hp.version)

    # ------------------------------------------------------------------
    # replayed operations
    # ------------------------------------------------------------------
    def replay_acquire(self, lock_id: int, seq: int) -> Iterator[Any]:
        """Replay acquire ``seq`` of ``lock_id``; False = live now, and the
        caller acquires it live."""
        proto = self.proto
        records = self.acquire_records.get(lock_id)
        if not records:
            # the live switch. A grant that reached us while we were down
            # and answers this very acquire completes it: it is the token
            # this acquire waited for, not a stray one for the drain
            queued = self.rm.host.queued
            owed = next((
                e for e in queued if isinstance(e[1], LockGrant)
                and (e[1].lock_id, e[1].seq) == (lock_id, seq)
            ), None)
            if owed is not None:
                queued.remove(owed)
                proto._complete_acquire(lock_id, owed[1], local=False)
            self.go_live()
            return owed is not None
        entry, src = records.pop(0)
        st = proto.locks.token(lock_id)
        if entry.local and not st.has_token:
            # self-grant: the token must already be resting here
            raise RuntimeError(
                f"replay: self-grant of lock {lock_id} without token at "
                f"{self.pid}"
            )
        st.has_token = True
        st.held = True
        st.rel_vt = None
        # rebuild the acq half of the pair ``src`` answered from
        self.ft.logs.acq.append(src, lock_id, entry.acq_t, entry.local)
        proto._completed_seq[lock_id] = seq
        self.advance_vt(entry.acq_t)
        proto.stats.lock_acquires += 1
        return True
        yield  # pragma: no cover — generator form for protocol symmetry

    def replay_barrier(self, episode: int) -> Iterator[Any]:
        global_vt = self.bar.get(episode)
        if global_vt is None:
            self.go_live()
            return False
        self.advance_vt(global_vt)
        self.proto.last_barrier_global = global_vt
        return True
        yield  # pragma: no cover

    def replay_fetch(self, page: PageId, entry: PageEntry) -> Iterator[Any]:
        """Resolve a page miss by local emulation of the page's home."""
        proto = self.proto
        if page not in self.pool_fetched:
            yield from self._collect_page(page)
        buf, version = self._advance_evolving(page)
        proto.page_bytes(page)[:] = buf
        entry.state = PageState.RO
        entry.needed_v = None
        proto.have_v[page] = version

    def _collect_page(self, page: PageId) -> Iterator[Any]:
        """First miss on ``page``: fetch starting copy + all diff logs."""
        proto = self.proto
        home = proto.regions.home_of(page)
        data, version = yield from self.rm.query(
            home, "starting_copy", (page, proto.vt)
        )
        self.evolving[page] = np.frombuffer(data, dtype=np.uint8).copy()
        self.evolving_v[page] = version
        pool: List[_PoolEntry] = []
        diffs = yield from self.rm.query_all("page_diffs", page)
        for src, entries in diffs.items():
            for t, diff in entries:
                pool.append(_PoolEntry(src, t, diff))
        pool.sort(key=lambda e: _sum_key(e.t))
        self.pool[page] = pool
        self.pool_fetched.add(page)

    def _advance_evolving(self, page: PageId) -> Tuple[np.ndarray, VClock]:
        """Apply newly happened-before diffs to the evolving copy.

        Includes the recovering process's own diffs (restored + rebuilt),
        read straight from its diff log: they grow as replay flushes.
        """
        buf = self.evolving[page]
        own = [
            _PoolEntry(self.pid, e.t, e.diff)
            for e in self.ft.logs.diff.entries_for(page)
        ]
        version = self.evolving_v[page] = self._apply_pooled(
            sorted(self.pool[page] + own, key=lambda e: _sum_key(e.t)),
            self.evolving_v[page],
            self.proto.vt,
            partial(apply_diff, buf),
        )
        return buf, version

    def replay_home_access(self, page: PageId, entry: PageEntry) -> Iterator[Any]:
        proto = self.proto
        self.apply_home_diffs(proto.vt)
        hp = proto.home[page]
        if entry.needed_v is not None and not hp.ready_for(entry.needed_v):
            raise RuntimeError(
                f"replay: homed page {page} cannot reach {entry.needed_v} "
                f"(version {hp.version}); writers trimmed needed diffs "
                "(Rule 3 violated)"
            )
        entry.needed_v = None
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # live switch
    # ------------------------------------------------------------------
    def go_live(self) -> None:
        if self.live:
            return
        self.live = True
        self.finalize()
        self.on_live()

    def queued_transfers(
        self,
    ) -> Tuple[Dict[int, int], Set[Tuple[int, int, int]]]:
        """The ``GrantInfo`` stream queued for the locks we manage: each
        lock's newest owner, and the ``(lock, grantor, grantee)`` edges
        its transfers spent."""
        locks = self.proto.locks
        queued_owner: Dict[int, int] = {}
        spent: Set[Tuple[int, int, int]] = set()
        for _src, qmsg in self.rm.host.queued:
            if isinstance(qmsg, GrantInfo) and locks.manages(qmsg.lock_id):
                queued_owner[qmsg.lock_id] = qmsg.grantee
                spent.add((qmsg.lock_id, qmsg.grantor, qmsg.grantee))
        return queued_owner, spent

    def finalize(self) -> None:
        """Place every lock token by one rule: held here, or wherever the
        lock's manager says.

        A grant that queued while we were down has either completed the
        acquire whose replay ran out (``replay_acquire``) or duplicates
        one the replay consumed. For a lock we manage, the manager's word
        is the ``GrantInfo`` stream that queued meanwhile: it records every
        transfer the grantors made after answering our handshake, so its
        last entry supersedes the (possibly long-stale) token snapshots the
        replies carried — without it a transfer races the handshake round
        and the manager resurrects the token at itself. Each transfer in
        it also spent its grantor's successor pointer, which a reply
        taken before the grant still shows: that edge is history, not a
        waiter, and is left out of the chain rebuild.
        """
        proto = self.proto
        locks = proto.locks
        proto.replay = None
        self.apply_home_diffs(None)
        queued_owner, spent = self.queued_transfers()

        def owner(lock_id: int) -> Optional[int]:
            if not locks.manages(lock_id):
                return self.owner_reports.get(lock_id)
            # here (or heading here) unless the queue or a peer says not
            return queued_owner.get(
                lock_id, self.peer_token_holders.get(lock_id, self.pid)
            )

        all_locks = (
            set(self.acquire_records) | set(queued_owner)
            | set(self.owner_reports) | set(self.peer_token_holders)
            | set(locks.known_locks())
        )
        for lock_id in all_locks:
            st = locks.token(lock_id)
            if not st.held:
                st.has_token = owner(lock_id) == self.pid
                if st.has_token and st.rel_vt is None:
                    st.rel_vt = proto.vt
        # rebuild the chains of our own managed locks from their owners
        for lock_id in set(locks.managed_locks()) | {
            l for l in all_locks | set(self.succ_edges) if locks.manages(l)
        }:
            edges = self.succ_edges.get(lock_id, {})
            locks.restore_chain(lock_id, owner(lock_id), {
                p: edge for p, edge in edges.items()
                if (lock_id, p, edge[0]) not in spent
            })
