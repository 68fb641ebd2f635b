"""Coordinated checkpointing baseline (paper §1, §2; Costa et al. style).

The scheme the paper argues against for very large clusters and
meta-clusters: all processes take a *globally consistent* checkpoint,
after which every log and every older checkpoint is discarded — no LLT
or CGC needed, but every checkpoint requires a global coordination round
whose latency scales with the slowest process and the widest link (the
WAN benchmark quantifies exactly that), and recovery from any single
failure rolls **all** processes back to the last cut.

Design (barrier-anchored consistent cut + channel-state markers):

1. The coordinator's policy fires; it broadcasts ``CoordPrepare`` naming
   a *cut episode* (a barrier index ahead of everyone). Anchoring the cut
   just after a barrier guarantees no lock is held or awaited across the
   cut, so no lock token can be lost in it.
2. Each process snapshots at its first checkpoint-safe point past the
   cut episode (application state, homed pages, lock/barrier manager
   bookkeeping), then sends a ``CoordMarker`` on every channel and keeps
   running.
3. Messages that arrive from a peer whose marker is still outstanding
   were sent before that peer's cut but received after ours — classic
   in-flight channel state. They are processed normally (live execution
   is past the cut) *and* recorded in the snapshot for re-injection
   after a rollback. Races in the small window where a fast process's
   post-cut sends reach a not-yet-cut peer are absorbed by the
   protocol's idempotence (version-checked diffs, seq-checked lock
   messages, episode-checked barrier messages).
4. Acks flow to the coordinator; ``CoordCommit`` discards all volatile
   logs and all pre-round stable state everywhere.

Recovery is **global rollback** (:func:`global_rollback`, which
:class:`CoordinatedCluster` runs on every detected failure): every process
is restarted from the last committed cut, recorded channel-state
messages are re-injected, in-flight messages of the aborted epoch are
flushed, and execution resumes live — no logs, no replay, but all
processes lose all work since the cut.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.cluster import DsmCluster
from repro.core.checkpoint import Checkpoint
from repro.core.ftmanager import FtManager
from repro.core.logs import DiffLog
from repro.core.policies import LogOverflowPolicy
from repro.dsm.config import DsmConfig
from repro.dsm.messages import Message
from repro.dsm.protocol import Handler
from repro.dsm.vclock import VClock
from repro.sim.node import TimeBucket
from repro.sim.trace import (
    CHECKPOINT_TAKEN, CKPT_WRITE_BEGIN, CKPT_WRITE_END, OP_CLOSE, OP_OPEN,
)

__all__ = [
    "CoordPrepare",
    "CoordMarker",
    "CoordAck",
    "CoordCommit",
    "CoordinatedFt",
    "CoordStats",
    "CoordinatedCluster",
    "global_rollback",
]


# ---------------------------------------------------------------------------
# protocol messages
# ---------------------------------------------------------------------------


@dataclass
class CoordPrepare(Message):
    round_id: int = 0
    cut_episode: int = 0
    category: str = "coord"

    def payload_bytes(self) -> int:
        return 12


@dataclass
class CoordMarker(Message):
    round_id: int = 0
    category: str = "coord"

    def payload_bytes(self) -> int:
        return 8


@dataclass
class CoordAck(Message):
    round_id: int = 0
    proc: int = 0
    category: str = "coord"

    def payload_bytes(self) -> int:
        return 8


@dataclass
class CoordCommit(Message):
    round_id: int = 0
    category: str = "coord"

    def payload_bytes(self) -> int:
        return 8


@dataclass
class CoordStats:
    rounds_started: int = 0
    rounds_committed: int = 0
    #: per committed round: virtual seconds from prepare to commit
    round_latencies: List[float] = field(default_factory=list)
    coord_msgs: int = 0


# ---------------------------------------------------------------------------
# the FT manager
# ---------------------------------------------------------------------------


def _record_then(handle: Handler, proc: Any, src: int, msg: Message) -> None:
    """Record ``msg`` as channel state while ``src``'s marker is awaited,
    then handle it."""
    ft = proc.ft
    if src in ft.awaiting_markers:
        ft.channel_state.append((src, msg))
    handle(proc, src, msg)


class CoordinatedFt(FtManager):
    """Globally coordinated checkpointing via barrier-anchored rounds.

    Reuses the FtManager logging plumbing (log volumes stay comparable)
    but replaces the independent-checkpoint discipline: a committed round
    discards everything, so LLT/CGC never run.
    """

    COORDINATOR = 0

    def __init__(self, proc, policy, ckpt_mgr, disk, config) -> None:
        super().__init__(proc, policy, ckpt_mgr, disk, config)
        self.coord = CoordStats()
        self.round_id = 0  # last round this process snapshotted
        self.committed_round = 0
        #: (round, cut_episode) awaiting our snapshot
        self.prepare_pending: Optional[Tuple[int, int]] = None
        #: peers whose round-r marker has not arrived yet (post-snapshot)
        self.awaiting_markers: Set[int] = set()
        #: markers that arrived before our own snapshot
        self.early_markers: Set[int] = set()
        #: recorded channel state: (src, msg) from not-yet-cut peers
        self.channel_state: List[Tuple[int, Message]] = []
        self._round_snapshot: Optional[Tuple[Checkpoint, bytes]] = None
        self._round_t0 = 0.0
        self.acks: Set[int] = set()

    # -- round initiation ---------------------------------------------------
    def at_sync_point(self, at_barrier: bool = False) -> Iterator[float]:
        if (
            self.pid == self.COORDINATOR
            and self.prepare_pending is None
            and self.round_id == self.committed_round
            and self.policy.should_checkpoint(self, at_barrier)
        ):
            self._initiate()
        return
        yield  # pragma: no cover

    def _initiate(self) -> None:
        next_round = self.round_id + 1
        cut_episode = self.proc.barrier_episode + 1
        self.coord.rounds_started += 1
        self._round_t0 = self.proc.engine.now
        self.prepare_pending = (next_round, cut_episode)
        for j in range(self.n):
            if j != self.pid:
                self._send(j, CoordPrepare(round_id=next_round, cut_episode=cut_episode))

    def _send(self, dst: int, msg: Message) -> None:
        self.coord.coord_msgs += 1
        self.proc._send(dst, msg)

    # -- message handling ------------------------------------------------------
    def message_handlers(self) -> Dict[type, Handler]:
        # a protocol message crossing the cut is recorded as channel
        # state, then handled; the FT layer's own messages are not
        return {
            **{t: partial(_record_then, h) for t, h in self.proc.handlers.items()},
            **super().message_handlers(),
            CoordPrepare: lambda p, src, m: p.ft._handle_prepare(src, m),
            CoordMarker: lambda p, src, m: p.ft._handle_marker(src, m),
            CoordAck: lambda p, src, m: p.ft._handle_ack(src, m),
            CoordCommit: lambda p, src, m: p.ft._apply_commit(m.round_id),
        }

    def _handle_prepare(self, src: int, msg: CoordPrepare) -> None:
        if msg.round_id > self.round_id:
            self.prepare_pending = (msg.round_id, msg.cut_episode)

    def _handle_marker(self, src: int, msg: CoordMarker) -> None:
        if msg.round_id > self.round_id:
            self.early_markers.add(src)
        else:
            self.awaiting_markers.discard(src)
            if not self.awaiting_markers and self._round_snapshot is not None:
                self._round_cut_complete()

    def _handle_ack(self, src: int, msg: CoordAck) -> None:
        self.acks.add(msg.proc)
        if len(self.acks) == self.n:
            self._commit()

    # -- the snapshot -----------------------------------------------------------
    def at_safe_point(self) -> Iterator[Any]:
        if self.prepare_pending is None:
            return
        round_id, cut_episode = self.prepare_pending
        if self.proc.barrier_episode < cut_episode:
            return  # not past the anchor barrier yet
        self.prepare_pending = None
        yield from self.take_coordinated_checkpoint(round_id)

    def take_coordinated_checkpoint(self, round_id: int) -> Iterator[Any]:
        proc = self.proc
        bus = proc.bus
        if bus.on[OP_OPEN]:
            bus.emit(OP_OPEN, self.pid, "ckpt", None)
        yield from proc.cpu.drain_debt()
        yield from proc._end_interval()
        proc.vt = proc.vt.bump(self.pid)

        # full local snapshot: application state, homed pages, and the
        # protocol bookkeeping a consistent cut needs (heavier than the
        # independent scheme's minimal checkpoint — a point the paper
        # makes in favour of its approach)
        state_blob = pickle.dumps(self.app_state())
        proto_blob = pickle.dumps(self._protocol_snapshot())
        homed = Checkpoint.homed_pages(proc)
        page_bytes = sum(len(d) for d, _ in homed.values())
        total = page_bytes + len(state_blob) + len(proto_blob)
        write_cost = self.disk.write_cost(total)
        self.disk.bytes_written += total
        self.disk.write_time += write_cost
        seqno = self.ckpt_mgr.next_seqno
        t0 = proc.engine.now
        if bus.on[CKPT_WRITE_BEGIN]:
            bus.emit(CKPT_WRITE_BEGIN, self.pid, seqno, total)
        yield from proc.cpu.charge(TimeBucket.LOG_CKPT, write_cost)
        duration = proc.engine.now - t0
        if bus.on[CKPT_WRITE_END]:
            bus.emit(CKPT_WRITE_END, self.pid, seqno, duration)
        self.stats.time_disk += duration

        ckpt = Checkpoint.of(
            proc, seqno, state_blob, own_notices=[], diff_log=DiffLog(),
        )
        self.ckpt_mgr.commit(ckpt, homed)
        self.stats.checkpoints_taken += 1
        self.stats.ckpt_page_bytes += page_bytes
        taken = self.stats.checkpoints_taken
        if bus.on[CHECKPOINT_TAKEN]:
            bus.emit(CHECKPOINT_TAKEN, self.pid, taken, proc.vt,
                     self.logs.diff.saved_bytes)
        if bus.on[OP_CLOSE]:
            bus.emit(OP_CLOSE, self.pid, "ckpt", taken)
        self._round_snapshot = (ckpt, proto_blob)
        self.round_id = round_id

        # markers mark the cut on every outgoing channel
        self.awaiting_markers = {
            j for j in range(self.n) if j != self.pid
        } - self.early_markers
        self.early_markers = set()
        self.channel_state = []
        for j in range(self.n):
            if j != self.pid:
                self._send(j, CoordMarker(round_id=round_id))
        if not self.awaiting_markers:
            self._round_cut_complete()
        # the app resumes immediately; channel state accumulates until
        # the remaining peers' markers arrive

    def _protocol_snapshot(self) -> Dict[str, Any]:
        """What ``_restore_round`` reads back: lock queue state is left
        out, since the rollback rebuilds every manager chain."""
        proc = self.proc
        bar = None
        if proc.barrier_mgr is not None:
            m = proc.barrier_mgr
            bar = (
                m.next_episode,
                m.last_global,
                dict(m.current.arrived) if m.current else None,
                list(m.current.notices) if m.current else [],
                m.current.episode if m.current else None,
            )
        return {
            "barrier_mgr": bar,
            "completed_seq": dict(proc._completed_seq),
            "notices": proc.notices.all_notices(),
        }

    def _round_cut_complete(self) -> None:
        """All markers arrived: seal channel state into the stable snapshot."""
        assert self._round_snapshot is not None
        ckpt, proto_blob = self._round_snapshot
        self._round_snapshot = None
        self.proc_host.store.put(
            ("coord", self.round_id),
            {
                "ckpt": ckpt,
                "proto": proto_blob,
                "channel": list(self.channel_state),
            },
            size=len(proto_blob) + 256,
        )
        self.channel_state = []
        if self.pid == self.COORDINATOR:
            self.acks.add(self.pid)
            if len(self.acks) == self.n:
                self._commit()
        else:
            self._send(
                self.COORDINATOR, CoordAck(round_id=self.round_id, proc=self.pid)
            )

    # -- commit ------------------------------------------------------------------
    def _commit(self) -> None:
        self.acks = set()
        for j in range(self.n):
            if j != self.pid:
                self._send(j, CoordCommit(round_id=self.round_id))
        self._apply_commit(self.round_id)
        self.coord.rounds_committed += 1
        self.coord.round_latencies.append(self.proc.engine.now - self._round_t0)

    def _apply_commit(self, round_id: int) -> None:
        """A globally consistent cut exists: discard everything older."""
        if round_id <= self.committed_round:
            return
        self.committed_round = round_id
        # drop ALL volatile logs (the coordinated scheme's GC advantage)
        self.logs.clear()
        # drop older stable rounds and page-copy history
        store = self.proc_host.store
        for key in store.keys():
            if isinstance(key, tuple) and key[0] == "coord" and key[1] < round_id:
                store.delete(key)
        mgr = self.ckpt_mgr
        for page, copies in mgr.page_copies.items():
            if len(copies) > 1:
                for c in copies[:-1]:
                    mgr.pages_retained_bytes -= len(c.data)
                    mgr.pages_discarded_bytes += len(c.data)
                del copies[:-1]
        mgr._update_window()


# ---------------------------------------------------------------------------
# global rollback recovery
# ---------------------------------------------------------------------------


def global_rollback(cluster: Any) -> None:
    """Roll every process back to the last committed coordinated cut.

    :class:`CoordinatedCluster` runs it once a failure is detected. All
    volatile state is discarded, in-flight messages of the aborted epoch
    are flushed, each process restores its round snapshot (or the initial
    state if no round committed), channel state is re-injected, and the
    applications resume live.
    """
    committed = max(
        (h.ft.committed_round for h in cluster.hosts if h.ft is not None),
        default=0,
    )
    cluster.network.flush_epoch()
    # kill every live incarnation
    for host in cluster.hosts:
        if host.simproc is not None and host.simproc.alive and not host.finished:
            host.simproc.kill()
        host.live = False
        host.queued.clear()

    # rebuild protocols
    for host in cluster.hosts:
        host.proto = host.make_protocol()
    if committed == 0:
        # no committed cut yet: restart from the very beginning
        cluster.app.init_shared(cluster)
        for host in cluster.hosts:
            host.state = cluster.app.init_state(host.pid)
    else:
        for host in cluster.hosts:
            _restore_round(host, committed)

    # fresh FT managers continuing at the committed round
    for host in cluster.hosts:
        cluster._install_ft(host)
        host.ft.round_id = committed
        host.ft.committed_round = committed

    # re-inject recorded channel state (pre-cut messages lost in flight).
    # Lock-queue plumbing (requests, forwards, grant-infos) is NOT
    # re-injected: waiters re-send their requests and the manager chains
    # are rebuilt fresh below. Grants ARE re-injected — an in-flight
    # grant is the token itself.
    from repro.dsm.messages import GrantInfo, LockAcquireReq, LockForward

    if committed > 0:
        for host in cluster.hosts:
            snap = host.store.get(("coord", committed))
            for src, msg in snap["channel"]:
                if isinstance(msg, (GrantInfo, LockAcquireReq, LockForward)):
                    continue
                host.proto.handle_message(src, msg)
        _rebuild_lock_chains(cluster)

    # resume the applications (a host that finished after the cut must
    # re-execute from the cut like everyone else)
    cluster.recoveries += 1
    for host in cluster.hosts:
        host.finished = False
        host.live = True
        host.recovered_count += 1
        host.simproc = cluster.engine.spawn(
            cluster._app_main(host), name=f"rb{host.pid}"
        )


def _rebuild_lock_chains(cluster: Any) -> None:
    """Rebuild every lock manager's queue from the actual token positions.

    The per-process cuts happen at slightly different moments, so the
    restored chains, successor pointers and token positions can disagree
    (lock plumbing crossing the cuts). The rollback has the global view:
    it drops all restored queue state — every waiter re-sends its request
    anyway — and starts each manager's chain at the process that actually
    holds the token (after channel-state grants were re-injected).
    ``last_seq`` is primed with each process's restored completed-acquire
    counters so the re-sent requests pass the duplicate filter.
    """
    from repro.dsm.locks import ChainEntry

    config = cluster.config
    n = config.num_procs
    # collect every lock id any process knows about, and the holders
    lock_ids: Set[int] = set()
    holder: Dict[int, int] = {}
    for host in cluster.hosts:
        for lock_id, st in host.proto.locks._tokens.items():
            lock_ids.add(lock_id)
            st.successor = None
            if st.has_token:
                holder[lock_id] = host.pid
        lock_ids.update(host.proto.locks.managed_locks())
        lock_ids.update(host.proto._completed_seq.keys())
    for lock_id in lock_ids:
        manager = config.lock_manager(lock_id)
        mgr_host = cluster.hosts[manager]
        owner = holder.get(lock_id, manager)
        if owner == manager:
            # ensure the manager's default token exists if nobody holds it
            st = mgr_host.proto.locks.token(lock_id)
            if lock_id not in holder:
                st.has_token = True
                if st.rel_vt is None:
                    st.rel_vt = VClock.zero(n)
        mgr = mgr_host.proto.locks.manager(lock_id)
        owner_seq = cluster.hosts[owner].proto._completed_seq.get(lock_id, 0)
        mgr.chain = [ChainEntry(owner, owner_seq)]
        mgr.owner_pos = 0
        mgr.last_seq = {
            p: cluster.hosts[p].proto._completed_seq.get(lock_id, 0)
            for p in range(n)
        }


def _restore_round(host: Any, round_id: int) -> None:
    from repro.dsm.barrier import BarrierEpisode

    snap = host.store.get(("coord", round_id))
    ckpt: Checkpoint = snap["ckpt"]
    proto = host.proto
    host.state = ckpt.restore_app_state()
    ckpt.restore_into(proto, host.ckpt_mgr.page_copies)
    # protocol bookkeeping from the cut (lock queue state is NOT restored:
    # the rollback rebuilds manager chains from token positions and the
    # waiters re-send their requests)
    extra = pickle.loads(snap["proto"])
    proto._completed_seq = dict(extra["completed_seq"])
    for wn in extra["notices"]:
        proto.notices.add(wn)
    if extra["barrier_mgr"] is not None and proto.barrier_mgr is not None:
        next_ep, last_global, arrived, notices, cur_ep = extra["barrier_mgr"]
        m = proto.barrier_mgr
        m.next_episode = next_ep
        m.last_global = last_global
        if arrived is not None:
            ep = BarrierEpisode(cur_ep)
            ep.arrived = dict(arrived)
            ep.notices = list(notices)
            m.current = ep


class CoordinatedCluster(DsmCluster):
    """A cluster whose FT layer is coordinated checkpointing, with the
    OF policy at ``l_fraction`` starting the rounds, and whose recovery
    rolls every process back to the last committed cut."""

    ft_class = CoordinatedFt

    def __init__(
        self,
        config: Optional[DsmConfig] = None,
        l_fraction: float = 0.1,
        **cluster_kw: Any,
    ) -> None:
        super().__init__(
            config,
            ft=True,
            policy_factory=lambda pid, fp: LogOverflowPolicy(l_fraction, fp),
            **cluster_kw,
        )

    def _start_recovery(self, pid: int) -> None:
        global_rollback(self)
