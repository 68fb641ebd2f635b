"""Independent checkpointing and checkpoint garbage collection (§4.2, §4.4).

A checkpoint of process ``i`` contains the "processor state" (here: the
application's pickled private state), the pages homed at ``i`` with their
version vectors, the vector timestamp ``Tckp`` (stamped per §4.4 with the
local vector time at the moment the checkpoint is taken), the saved
volatile logs, and the small protocol structures needed to restart (lock
token snapshot, acquire sequence numbers, barrier position).

Homes additionally retain a *sequence* ``pckp`` of page copies from past
checkpoints; Rule 3.1 (CGC) bounds that sequence to a window ending at
the *maximal starting copy* — the newest copy whose version is ≤ the
componentwise minimum ``Tmin`` of all other processes' (last known)
checkpoint timestamps.

A virtual "checkpoint 0" holds the initial page contents with a zero
version vector, so recovery is well defined before a process's first real
checkpoint and Rule 3.1 always has a candidate copy.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.logs import DiffLog
from repro.dsm.messages import WriteNotice
from repro.dsm.pages import PageId
from repro.dsm.protocol import DsmProcess
from repro.dsm.vclock import VClock
from repro.sim.storage import CheckpointStore

__all__ = ["PageCopy", "Checkpoint", "CheckpointManager", "maximal_starting_copy"]


@dataclass
class PageCopy:
    """One checkpointed copy of a homed page."""

    ckpt_seqno: int
    version: VClock
    data: bytes


@dataclass
class Checkpoint:
    """Everything needed to restart a process (restart checkpoint)."""

    pid: int
    seqno: int
    tckp: VClock
    app_state_blob: bytes
    own_notices: List[WriteNotice]
    diff_log: DiffLog  # a copy: the live log's records, its own containers
    lock_tokens: Dict[int, Tuple[bool, bool]]  # lock -> (has_token, held)
    acq_seq: Dict[int, int]
    barrier_episode: int
    last_barrier_global: VClock
    #: page -> version of the homed copy saved with this checkpoint
    homed_versions: Dict[PageId, VClock] = field(default_factory=dict)

    @classmethod
    def of(
        cls,
        proc: DsmProcess,
        seqno: int,
        app_state_blob: bytes,
        own_notices: List[WriteNotice],
        diff_log: DiffLog,
    ) -> "Checkpoint":
        """Checkpoint ``seqno`` of live process ``proc``, stamped with its
        vector time and carrying its restartable protocol structures."""
        return cls(
            pid=proc.pid,
            seqno=seqno,
            tckp=proc.vt,
            app_state_blob=app_state_blob,
            own_notices=own_notices,
            diff_log=diff_log,
            lock_tokens=proc.locks.token_snapshot(),
            acq_seq=dict(proc._acq_seq),
            barrier_episode=proc.barrier_episode,
            last_barrier_global=proc.last_barrier_global,
        )

    @staticmethod
    def homed_pages(proc: DsmProcess) -> Dict[PageId, Tuple[bytes, VClock]]:
        """(contents, version) of every page homed at ``proc``, now."""
        homes = ((page, proc.home[page]) for page in proc.home.pages())
        return {p: (proc.page_snapshot(p, hp), hp.version) for p, hp in homes}

    def restore_app_state(self) -> Any:
        return pickle.loads(self.app_state_blob)

    def restore_into(
        self, proto: DsmProcess, page_copies: Dict[PageId, List[PageCopy]]
    ) -> None:
        """Put a freshly built ``proto`` back at this checkpoint: vector
        time, homed pages (from the copies committed with it) and the
        protocol structures :meth:`of` saved."""
        proto.vt = self.tckp
        for page, version in self.homed_versions.items():
            for copy in page_copies[page]:
                if copy.ckpt_seqno == self.seqno:
                    break
            else:
                raise RuntimeError(
                    f"restart checkpoint {self.seqno} lost page {page} "
                    "(CGC must never collect the latest checkpoint)"
                )
            proto.page_bytes(page)[:] = np.frombuffer(copy.data, dtype=np.uint8)
            hp = proto.home[page]
            hp.version = version
            hp.drop_snapshot()
            proto.have_v[page] = version
        for lock_id, (has_token, held) in self.lock_tokens.items():
            st = proto.locks.token(lock_id)
            st.has_token = has_token
            st.held = held
            if has_token and not held:
                st.rel_vt = self.tckp  # conservative release snapshot
        proto._acq_seq = dict(self.acq_seq)
        proto._completed_seq = dict(self.acq_seq)
        proto.barrier_episode = self.barrier_episode
        proto.last_barrier_global = self.last_barrier_global


def maximal_starting_copy(
    copies: Sequence[PageCopy], needed_max: VClock
) -> Optional[PageCopy]:
    """Newest copy of a retained chain usable as ``p0`` for a recovery.

    A copy is usable if its version is ≤ the recovering process's replay
    ceiling (``needed_max``) — nothing beyond what happened before the
    crash may be baked into the starting copy, or replay could observe
    future writes. Rule 3 guarantees a usable copy exists among the
    window a live home retains; ``None`` when this chain has none.
    """
    best: Optional[PageCopy] = None
    for copy in copies:
        if copy.version.leq(needed_max):
            best = copy
    return best


class CheckpointManager:
    """Stable-storage side of checkpointing for one process.

    Owns the page-copy sequences (``pckp``) and implements CGC. The
    object lives in the node's :class:`CheckpointStore`, so it survives a
    fail-stop of the process.
    """

    def __init__(self, pid: int, num_procs: int, store: CheckpointStore) -> None:
        self.pid = pid
        self.n = num_procs
        self.store = store
        self.next_seqno = 1
        self.page_copies: Dict[PageId, List[PageCopy]] = {}
        self.latest: Optional[Checkpoint] = None
        # accounting
        self.window_size = 1  # includes virtual checkpoint 0
        self.max_window = 1
        self.pages_retained_bytes = 0
        self.pages_discarded_bytes = 0
        #: torn (uncommitted) checkpoints discarded by recovery
        self.torn_discarded = 0

    # ------------------------------------------------------------------
    # seeding (virtual checkpoint 0)
    # ------------------------------------------------------------------
    def seed_initial_pages(self, pages: Dict[PageId, bytes]) -> None:
        zero = VClock.zero(self.n)
        for page, data in pages.items():
            if page in self.page_copies:
                continue  # re-install after recovery: stable state persists
            self.page_copies[page] = [PageCopy(0, zero, data)]
            self.pages_retained_bytes += len(data)

    # ------------------------------------------------------------------
    # taking a checkpoint (two-phase: stage -> disk write -> commit)
    # ------------------------------------------------------------------
    def stage(
        self,
        ckpt: Checkpoint,
        homed_pages: Dict[PageId, Tuple[bytes, VClock]],
    ) -> int:
        """Start writing a checkpoint to stable storage (no commit marker).

        The staged record consumes a seqno and lands in the store as a
        *pending* key; until :meth:`commit_staged` adds the commit
        marker, a crash leaves it torn and recovery will discard it
        (restarting from the previous stable checkpoint). Returns the
        page bytes that will be written.
        """
        if ckpt.seqno != self.next_seqno:
            raise ValueError(
                f"checkpoint seqno {ckpt.seqno}, expected {self.next_seqno}"
            )
        self.next_seqno += 1
        page_bytes = 0
        for page, (data, version) in homed_pages.items():
            ckpt.homed_versions[page] = version
            page_bytes += len(data)
        self.store.begin_put(("ckpt", ckpt.seqno), ckpt, page_bytes)
        return page_bytes

    def commit_staged(
        self,
        ckpt: Checkpoint,
        homed_pages: Dict[PageId, Tuple[bytes, VClock]],
    ) -> None:
        """The disk write finished: mark the checkpoint stable.

        Only now do the page copies join ``pckp`` and does ``latest``
        advance — a torn checkpoint must never influence recovery.
        """
        if ("ckpt", ckpt.seqno) not in self.store:
            raise RuntimeError(f"commit of unstaged checkpoint {ckpt.seqno}")
        for page, (data, version) in homed_pages.items():
            self.page_copies.setdefault(page, []).append(
                PageCopy(ckpt.seqno, version, data)
            )
            self.pages_retained_bytes += len(data)
        self.latest = ckpt
        self.store.commit_put(("ckpt", ckpt.seqno))
        self._update_window()

    def commit(
        self,
        ckpt: Checkpoint,
        homed_pages: Dict[PageId, Tuple[bytes, VClock]],
    ) -> int:
        """Record a checkpoint atomically; returns the page bytes written.

        ``homed_pages`` maps each page homed here to (contents, version).
        Convenience wrapper over :meth:`stage` + :meth:`commit_staged`
        for callers whose write cannot be interrupted (tests, the
        coordinated baseline).
        """
        page_bytes = self.stage(ckpt, homed_pages)
        self.commit_staged(ckpt, homed_pages)
        return page_bytes

    def discard_torn(self) -> int:
        """Drop store keys whose commit marker is missing (torn writes).

        Called at the start of recovery: a crash during a checkpoint
        disk write leaves a marker-less record that must not be used as
        a restart point. Returns the number of keys discarded.
        """
        torn = self.store.discard_pending()
        self.torn_discarded += torn
        return torn

    def _update_window(self) -> None:
        self.window_size = max(1, len(self.retained_seqnos))
        self.max_window = max(self.max_window, self.window_size)

    # ------------------------------------------------------------------
    # storage facts: what is wrong, or None (the invariant monitor checks
    # them during a run, the sweep oracle at its end)
    # ------------------------------------------------------------------
    def restart_problem(self) -> Optional[str]:
        """The restart checkpoint must be a committed store key."""
        if self.latest is None:
            return None
        key = ("ckpt", self.latest.seqno)
        if key in self.store and not self.store.is_pending(key):
            return None
        return (f"restart checkpoint {self.latest.seqno} is not a "
                "committed stable-storage key")

    def torn_problem(self) -> Optional[str]:
        """No key may lack its commit marker (outside a write window)."""
        torn = self.store.pending_keys()
        return f"stable store holds torn keys {torn}" if torn else None

    # ------------------------------------------------------------------
    # Rule 3.1 — checkpoint garbage collection
    # ------------------------------------------------------------------
    def collect(self, tmin: VClock, seqno_ceiling: Optional[int] = None) -> int:
        """Run CGC against ``Tmin``; returns page bytes discarded.

        For every page, the *maximal starting copy* is the newest copy
        with ``version <= Tmin``; all older copies are dropped. Old
        checkpoint records whose page copies are all gone are dropped too
        (their logs/state can no longer be the restart point of this
        process, which always restarts from ``latest``).

        ``seqno_ceiling`` is the buddy-replication ack gate: when set,
        the chosen maximal starting copy must additionally come from a
        checkpoint the buddy has acked (``ckpt_seqno <= ceiling``), so
        every copy CGC drops is superseded by one that is both
        disk-stable *and* buddy-held. The virtual checkpoint 0 (seqno 0,
        deterministically reconstructible seed contents) always
        qualifies; a ceiling of -1 (nothing acked yet) collects nothing.
        """
        freed = 0
        for page, copies in self.page_copies.items():
            max_idx = 0
            for i, copy in enumerate(copies):
                if copy.version.leq(tmin) and (
                    seqno_ceiling is None or copy.ckpt_seqno <= seqno_ceiling
                ):
                    max_idx = i
            if max_idx > 0:
                for dropped in copies[:max_idx]:
                    freed += len(dropped.data)
                    self.pages_discarded_bytes += len(dropped.data)
                    self.pages_retained_bytes -= len(dropped.data)
                del copies[:max_idx]
        # prune superseded committed records (never the latest, nor one
        # staged and not committed yet)
        live_seqnos = set(self.retained_seqnos)
        if self.latest is not None:
            live_seqnos.add(self.latest.seqno)
        for key in self.store.committed_keys():
            if key[0] == "ckpt" and key[1] not in live_seqnos:
                self.store.delete(key)
        self._update_window()
        return freed

    @property
    def retained_seqnos(self) -> List[int]:
        out = {
            c.ckpt_seqno for copies in self.page_copies.values() for c in copies
        }
        return sorted(out)
