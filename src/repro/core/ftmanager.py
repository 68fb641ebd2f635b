"""The fault-tolerance manager: wires logging, checkpointing, LLT and CGC
into a :class:`~repro.dsm.protocol.DsmProcess` through the
:class:`~repro.dsm.protocol.FtHooks` interface.

Checkpoint discipline
---------------------
Policies are *evaluated* at every synchronization point (§4: "all logging
operations take place transparently, only at synchronization points"),
but the checkpoint itself is *taken* at the next application-declared
safe point (``proc.ckpt_point()``), where the application guarantees its
private state dict is resumable. This is the simulator's substitute for a
transparent processor-state snapshot (see DESIGN.md §1); the paper's own
system similarly supports checkpointing "at the request of the
application".

Taking a checkpoint (all at once, matching the paper's stress setup —
"log trimming, garbage collection of checkpoints and saving logs to
stable storage take place only at checkpoint time"):

1. flush the open interval and bump the vector time (so ``Tckp`` is a
   clean cut: everything after the checkpoint is strictly above it),
2. run LLT over all volatile logs (Rules 1, 2, 3.2),
3. write homed pages + still-live unsaved log entries + private state to
   the simulated disk,
4. commit the checkpoint and run CGC (Rule 3.1) against ``Tmin``,
5. queue the new ``p0.v`` values and ``Tckp`` for lazy propagation.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.checkpoint import Checkpoint, CheckpointManager
from repro.core.logs import VolatileLogs
from repro.core.policies import CheckpointPolicy
from repro.core.trimming import TrimmingInfo
from repro.dsm.diff import Diff
from repro.dsm.messages import AcqAck, Piggyback, ReplicaAck
from repro.dsm.pages import PageId
from repro.dsm.protocol import DsmProcess, FtHooks, Handler
from repro.dsm.vclock import VClock
from repro.sim.engine import back_ref
from repro.sim.node import TimeBucket
from repro.sim.storage import Disk
from repro.sim.trace import (
    CGC,
    CHECKPOINT_TAKEN,
    CKPT_WRITE_BEGIN,
    CKPT_WRITE_END,
    LLT,
    OP_CLOSE,
    OP_OPEN,
)

__all__ = ["FtConfig", "FtStats", "FtManager"]

#: max p0.v advertisements per message (bounds piggyback size)
PIGGYBACK_MAX_PAGE_VERSIONS = 16


@dataclass
class FtConfig:
    """Feature switches and tuning of the FT layer."""

    #: off only for ablation A1 (unbounded log growth without LLT)
    llt_enabled: bool = True
    #: buddy-replication tier: mirror committed checkpoints + sender-log
    #: segments into the ring buddy's volatile memory, so recovery can
    #: proceed from the replica when overlapping failures would otherwise
    #: degrade (ROADMAP 3; see core/replica.py)
    replicate: bool = False


@dataclass
class FtStats:
    """Per-process FT accounting (Tables 3-4, Figure 4)."""

    checkpoints_taken: int = 0
    time_logging: float = 0.0
    time_disk: float = 0.0
    ckpt_page_bytes: int = 0
    ckpt_state_bytes: int = 0
    logs_saved_bytes: int = 0
    max_log_disk: int = 0
    #: Figure 4 series: (checkpoint number, stable-storage log bytes)
    log_points: List[Tuple[int, int]] = field(default_factory=list)
    rel_entries_trimmed: int = 0
    wn_trimmed: int = 0


class FtManager(FtHooks):
    """Fault tolerance for one process."""

    def __init__(
        self,
        proc: DsmProcess,
        policy: CheckpointPolicy,
        ckpt_mgr: CheckpointManager,
        disk: Disk,
        config: FtConfig,
    ) -> None:
        #: the process owns this manager (``proc.ft``): a weak edge back
        self.proc = back_ref(proc)
        self.pid = proc.pid
        self.n = proc.n
        self.policy = policy
        self.ckpt_mgr = ckpt_mgr
        self.disk = disk
        self.config = config
        self.logs = VolatileLogs(self.pid, self.n)
        self.trim = TrimmingInfo(self.pid, self.n)
        self.stats = FtStats()
        #: page -> writers that have sent diffs (advertisement targets)
        self.page_writers: Dict[PageId, Set[int]] = {}
        #: dst -> pending (page, p0.v[dst]) advertisements
        self.pending_adverts: Dict[int, List[Tuple[PageId, int]]] = {}
        #: dst -> trim.gen synced to that destination; paired with the
        #: per-row change stamps in ``trim.row_gen``, the delta encoder
        #: ships exactly the rows that changed since (no per-proc scan)
        self._sent_gen: Dict[int, int] = {}
        #: trim.gen as of the last LLT pass: the per-acquirer Rule-2 /
        #: mirror trims visit only rows changed since (row_gen delta)
        self._llt_gen = 0
        #: buddy replicator (attached by the cluster when
        #: ``config.replicate``; None = replication off)
        self.repl: Any = None
        #: a policy asked for a checkpoint; taken at the next safe point
        self.checkpoint_requested = False
        #: set by the cluster: a weak proxy of the ProcHost we live on,
        #: which owns us (None when the manager is driven directly)
        self.proc_host: Any = None
        self._install()

    def _install(self) -> None:
        self.proc.ft = self
        self.proc.handlers.update(self.message_handlers())
        # seed virtual checkpoint 0 with the initial homed page contents
        self.ckpt_mgr.seed_initial_pages(
            {
                page: self.proc.page_bytes(page).tobytes()
                for page in self.proc.home.pages()
            }
        )

    # ==================================================================
    # FtHooks — logging (§4.2)
    # ==================================================================
    def home_wants_diffs(self) -> bool:
        return True

    def on_interval_flush(
        self, page: PageId, diff: Diff, vt: VClock, is_home: bool
    ) -> Iterator[float]:
        # empty diffs are logged too (header-only records): the write
        # notice they correspond to advances the page version at the
        # home, and replay must be able to advance the emulated copy to
        # that version
        entry = self.logs.diff.append(page, self.logged_diff(page, diff), vt)
        cost = entry.size_bytes * self.proc.cpu.costs.log_append_per_byte
        self.stats.time_logging += cost
        if self.repl is not None:
            self.repl.op(("diff", entry))
        yield from self.proc.cpu.charge(TimeBucket.LOG_CKPT, cost)

    def logged_diff(self, page: PageId, diff: Diff) -> Diff:
        """``diff`` as logged (page logging records it at whole-page cost)."""
        return diff

    def on_grant(
        self, lock_id: int, acquirer: int, acq_t: VClock, provisional: bool
    ) -> None:
        self.logs.rel.append(acquirer, lock_id, acq_t, provisional=provisional)
        self.stats.time_logging += 0.5e-6
        self.proc.cpu.accrue_handler(0.5e-6)
        if self.repl is not None:
            self.repl.op(("rel", acquirer, lock_id, acq_t, provisional))

    def on_acquire_done(
        self, lock_id: int, grantor: int, acq_t: VClock, provisional: bool
    ) -> None:
        self.logs.acq.append(grantor, lock_id, acq_t)
        self.stats.time_logging += 0.5e-6
        if provisional and grantor != self.pid:
            # the grantor logged a prediction (it had no request stamp):
            # confirm the actual acquire timestamp (§4.2.1 / DESIGN.md §7.6)
            self.proc._send(
                grantor, AcqAck(lock_id=lock_id, acquirer=self.pid, acq_t=acq_t)
            )
        if self.repl is not None:
            seq = self.proc._completed_seq.get(lock_id, 0)
            self.repl.op(("acq", grantor, lock_id, acq_t, seq))

    def on_self_grant(self, lock_id: int, acq_t: VClock) -> None:
        # the acq half, under the bucket of the node the protocol sends
        # the rel half to (a lone process has no such node and no peer
        # to recover from)
        holder = self.proc.config.self_grant_holder(lock_id, self.pid)
        if holder is not None:
            self.logs.acq.append(holder, lock_id, acq_t, local=True)
        self.stats.time_logging += 0.5e-6
        if self.repl is not None:
            seq = self.proc._completed_seq.get(lock_id, 0)
            self.repl.op(("self", holder, lock_id, acq_t, seq))

    def on_self_grant_mirror(self, grantor: int, lock_id: int, acq_t: VClock) -> None:
        # one drained late (queued while we were down) may be below the
        # Rule 2 bound already, which the row-delta LLT does not revisit
        if acq_t[grantor] <= self.trim.rel_bound(grantor):
            return
        self.logs.rel.append(grantor, lock_id, acq_t, local=True)
        if self.repl is not None:
            self.repl.op(("mself", grantor, lock_id, acq_t))

    def on_owner_observed(self, lock_id: int, owner: int) -> None:
        # managed-lock owner pointer advanced: keep the buddy's mirror of
        # managed_owners current so replica-served recoveries agree
        if self.repl is not None:
            self.repl.op(("owner", lock_id, owner))

    def on_barrier_done(self, episode: int, global_vt: VClock) -> None:
        self.logs.bar[episode] = global_vt
        self.stats.time_logging += 0.5e-6
        if self.repl is not None:
            self.repl.op(("bar", episode, global_vt))

    def on_diff_received(self, page: PageId, writer: int) -> None:
        self.page_writers.setdefault(page, set()).add(writer)

    def app_state(self) -> Any:
        """The application's resumable private state, as checkpointed."""
        return self.proc_host.state if self.proc_host is not None else {}

    def message_handlers(self) -> Dict[type, Handler]:
        """This layer's own message types, for ``proc.handlers``: plain
        functions of ``(proc, src, msg)`` that reach this manager as
        ``proc.ft``."""
        return {
            ReplicaAck: lambda p, src, m: p.ft._handle_replica_ack(src, m),
            AcqAck: lambda p, src, m: p.ft._handle_acq_ack(src, m),
        }

    def _handle_replica_ack(self, src: int, msg: ReplicaAck) -> None:
        if self.repl is not None:
            self.repl.on_ack(msg)

    def _handle_acq_ack(self, src: int, msg: AcqAck) -> None:
        fixed = self.logs.rel.confirm(src, msg.lock_id, msg.acq_t, self.pid)
        self.stats.time_logging += 0.5e-6
        self.proc.cpu.accrue_handler(0.5e-6)
        if fixed and self.repl is not None:
            self.repl.op(("rel_fix", src, msg.lock_id, msg.acq_t))

    # ==================================================================
    # FtHooks — checkpoint policy evaluation
    # ==================================================================
    def at_sync_point(self, at_barrier: bool = False) -> Iterator[float]:
        if self.policy.should_checkpoint(self, at_barrier):
            self.checkpoint_requested = True
        return
        yield  # pragma: no cover - makes this a generator

    # ==================================================================
    # FtHooks — lazy propagation (§4.4.4)
    # ==================================================================
    def piggyback_for(self, dst: int) -> Optional[Piggyback]:
        adverts: Tuple[Tuple[PageId, int], ...] = ()
        pending = self.pending_adverts.get(dst)
        if not pending and self._sent_gen.get(dst) == self.trim.gen:
            # nothing learned since the last scan for this destination:
            # the delta loop below would find every entry already sent
            return None
        if pending:
            adverts = tuple(pending[:PIGGYBACK_MAX_PAGE_VERSIONS])
            del pending[:PIGGYBACK_MAX_PAGE_VERSIONS]
        # gossip with delta encoding: ship every known (own and learned)
        # checkpoint timestamp that this destination has not seen from us.
        # A row's change stamp (trim.row_gen) exceeds the destination's
        # synced gen exactly when that row changed since the last
        # piggyback there; unchanged (and still-zero) rows are skipped
        # without being visited.
        trim = self.trim
        changed = (trim.row_gen > self._sent_gen.get(dst, 0)).nonzero()[0]
        tckps = []
        for proc in changed.tolist():
            if proc == dst:
                continue
            tckps.append((proc, trim.tckp[proc], trim.bar_ep[proc]))
        self._sent_gen[dst] = trim.gen
        if not tckps and not adverts:
            return None
        return Piggyback(tckps=tuple(tckps), page_versions=adverts)

    def on_piggyback(self, src: int, pb: Piggyback) -> None:
        for proc, tckp, bar_ep in pb.tckps:
            self.trim.learn_tckp(proc, tckp, bar_ep)
        for page, version in pb.page_versions:
            self.trim.learn_p0v(page, version)

    # ==================================================================
    # checkpointing
    # ==================================================================
    def at_safe_point(self) -> Iterator[Any]:
        """Called from ``proc.ckpt_point()``; takes a pending checkpoint."""
        if self.checkpoint_requested:
            self.checkpoint_requested = False
            yield from self.take_checkpoint()

    def take_checkpoint(self) -> Iterator[Any]:
        """The full checkpoint operation (see module docstring)."""
        proc = self.proc
        bus = proc.bus
        if bus.on[OP_OPEN]:
            bus.emit(OP_OPEN, self.pid, "ckpt", None)
        yield from proc.cpu.drain_debt()
        yield from proc._end_interval()
        proc.vt = proc.vt.bump(self.pid)  # clean cut: Tckp < everything after
        tckp = proc.vt

        if self.config.llt_enabled:
            self.run_llt()

        # -- snapshot ----------------------------------------------------
        state_blob = pickle.dumps(self.app_state())
        homed = Checkpoint.homed_pages(proc)
        pack_cost = sum(len(d) for d, _ in homed.values()) * (
            proc.cpu.costs.checkpoint_pack_per_byte
        )
        self.stats.time_logging += pack_cost
        yield from proc.cpu.charge(TimeBucket.LOG_CKPT, pack_cost)

        seqno = self.ckpt_mgr.next_seqno
        ckpt = Checkpoint.of(
            proc,
            seqno,
            state_blob,
            own_notices=proc.notices.own_after(self.pid, 0),
            diff_log=self.logs.diff.copy(),
        )

        # -- stable storage ------------------------------------------------
        # two-phase write: the checkpoint record is *staged* (lands on
        # stable storage without a commit marker), then the disk write
        # runs, then the marker commits it. A crash during the write
        # leaves a torn record that recovery detects and discards,
        # restarting from the previous stable checkpoint.
        page_bytes = self.ckpt_mgr.stage(ckpt, homed)
        if self.repl is not None:
            # replicate the new base into the buddy *before* the disk
            # write: a crash during the write leaves both the disk record
            # and the replica record torn (two-phase on both media)
            self.repl.on_ckpt_begin(seqno, tckp, proc.barrier_episode, homed)
        new_log_bytes = self.logs.diff.unsaved_bytes
        total_write = page_bytes + new_log_bytes + len(state_blob)
        t0 = proc.engine.now
        write_cost = self.disk.write_cost(total_write)
        self.disk.bytes_written += total_write
        self.disk.write_time += write_cost
        if bus.on[CKPT_WRITE_BEGIN]:
            bus.emit(CKPT_WRITE_BEGIN, self.pid, seqno, total_write)
        yield from proc.cpu.charge(TimeBucket.LOG_CKPT, write_cost)
        duration = proc.engine.now - t0
        if bus.on[CKPT_WRITE_END]:
            # also the write+commit duration: the commit marker lands in
            # zero virtual time right after the write completes
            bus.emit(CKPT_WRITE_END, self.pid, seqno, duration)
        self.stats.time_disk += duration

        # -- commit marker ---------------------------------------------------
        self.logs.diff.flush()
        self.stats.logs_saved_bytes += new_log_bytes
        self.ckpt_mgr.commit_staged(ckpt, homed)
        self.stats.ckpt_page_bytes += page_bytes
        self.stats.ckpt_state_bytes += len(state_blob)

        # -- CGC + advertisement -------------------------------------------
        self.trim.learn_tckp(self.pid, tckp, proc.barrier_episode)
        if self.repl is not None:
            self.repl.on_ckpt_commit(seqno)
        self.run_cgc()

        self.stats.checkpoints_taken += 1
        disk_log = self.logs.diff.saved_bytes
        self.stats.max_log_disk = max(self.stats.max_log_disk, disk_log)
        self.stats.log_points.append((self.stats.checkpoints_taken, disk_log))
        taken = self.stats.checkpoints_taken
        if bus.on[CHECKPOINT_TAKEN]:
            bus.emit(CHECKPOINT_TAKEN, self.pid, taken, proc.vt, disk_log)
        if bus.on[OP_CLOSE]:
            bus.emit(OP_CLOSE, self.pid, "ckpt", taken)

    # ==================================================================
    # LLT (Rules 1, 2, 3.2) — §4.4
    # ==================================================================
    def run_llt(self) -> Dict[str, int]:
        """Trim every log against the current (possibly stale) bounds."""
        out = {"diff_bytes": 0, "rel": 0, "acq": 0, "wn": 0, "bar": 0}
        # Rule 3.2 — the big one
        for page in self.logs.diff.pages():
            bound = self.trim.diff_bound(page)
            if bound > 0:
                out["diff_bytes"] += self.logs.diff.trim_page(page, self.pid, bound)
        # Rule 2 — visit only acquirer rows whose checkpoint knowledge
        # changed since the last pass (row_gen delta, same idiom as
        # piggyback_for): an unchanged bound can drop nothing, because
        # entries appended since then always exceed it (an acquire bumps
        # the acquirer past its own last checkpoint cut)
        trim = self.trim
        changed = (trim.row_gen > self._llt_gen).nonzero()[0].tolist()
        for j in changed:
            if j == self.pid:
                continue
            out["rel"] += self.logs.rel.trim(j, j, trim.rel_bound(j))
        acq_bound = trim.acq_bound()
        for g, bucket in enumerate(self.logs.acq.entries):
            if bucket:
                out["acq"] += self.logs.acq.trim(g, self.pid, acq_bound)
        # Rule 1 (a peer minimum is derived when asked: once per pass)
        out["wn"] += self.proc.notices.trim_creator_before(
            self.pid, trim.wn_keep_from()
        )
        # barrier log analogue
        out["bar"] += self.logs.trim_barriers(trim.bar_keep_from())
        self._llt_gen = trim.gen
        self.stats.rel_entries_trimmed += out["rel"] + out["acq"]
        self.stats.wn_trimmed += out["wn"]
        # synchronously at the end of the pass, so a subscriber (the
        # invariant monitor) reads the logs exactly as LLT left them
        if self.proc.bus.on[LLT]:
            self.proc.bus.emit(LLT, self.pid, out)
        return out

    # ==================================================================
    # CGC (Rule 3.1) — §4.4
    # ==================================================================
    def cgc_seqno_ceiling(self) -> Optional[int]:
        """Buddy-ack gate for CGC: newest checkpoint seqno the buddy holds.

        ``None`` when replication is off (no gate); -1 right after a
        re-buddy (nothing acked yet — collect nothing newer than the
        virtual checkpoint 0).
        """
        return self.repl.acked_seqno if self.repl is not None else None

    def run_cgc(self) -> int:
        """Collect past checkpoints; queue new p0.v advertisements."""
        tmin = self.trim.tmin()
        freed = self.ckpt_mgr.collect(tmin, seqno_ceiling=self.cgc_seqno_ceiling())
        # after collection, advertise each page's maximal-starting-copy
        # version to its writers (they trim their diff logs with it)
        for page, copies in self.ckpt_mgr.page_copies.items():
            p0 = copies[0]  # oldest retained == maximal starting copy
            for writer in self.page_writers.get(page, ()):
                if writer == self.pid:
                    continue
                self.pending_adverts.setdefault(writer, []).append(
                    (page, p0.version[writer])
                )
            # the home is its own writer: trim its own diff log directly
            self.trim.learn_p0v(page, p0.version[self.pid])
        # synchronously at the end of the pass: Tmin and the retained
        # copies are exactly the ones this pass computed when read
        if self.proc.bus.on[CGC]:
            self.proc.bus.emit(CGC, self.pid, freed, self.ckpt_mgr.window_size)
        return freed
