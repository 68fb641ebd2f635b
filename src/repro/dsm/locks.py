"""Distributed queue-based locks.

Each lock has a statically assigned *manager*
(:meth:`DsmConfig.lock_manager`). An acquire request goes to the manager,
which forwards it to the most recent requester it knows of, forming a
distributed FIFO queue: every process in the chain grants the lock
directly to its successor when it releases
(§3, Figure 1 — the grant message carries the releaser's vector time and
the write notices the acquirer is missing).

For recoverability the manager keeps the *request chain* (the ordered
list of requesters) and grantors send it a small asynchronous
``GrantInfo`` notification, so that after a fail-stop the manager knows
where the token is and can re-issue a forward whose original copy died
with the failed process. Requests carry a per-(acquirer, lock) sequence
number so re-sent requests after recovery are idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dsm.config import DsmConfig
from repro.dsm.vclock import VClock

__all__ = ["LockState", "LockManagerState", "LockTable", "token_holders"]


@dataclass
class LockState:
    """Per-process token state for one lock."""

    has_token: bool = False
    held: bool = False
    rel_vt: Optional[VClock] = None  # vt snapshot at last release here
    #: (acquirer, acq_vt, seq); acq_vt None when the stamp was lost
    successor: Optional[Tuple[int, Optional[VClock], int]] = None
    #: acquirer -> highest request seq this process has granted; makes
    #: re-issued forwards after a recovery idempotent
    granted: Dict[int, int] = field(default_factory=dict)


@dataclass
class ChainEntry:
    acquirer: int
    seq: int
    #: the vector time the queued request carried; ``None`` for an entry
    #: rebuilt after a crash, whose request died with the old manager
    acq_vt: Optional[VClock] = None


class LockManagerState:
    """Manager-side state: the request chain and the known owner position."""

    def __init__(self, manager: int) -> None:
        self.chain: List[ChainEntry] = [ChainEntry(manager, 0)]
        self.owner_pos: int = 0
        self.last_seq: Dict[int, int] = {}  # acquirer -> highest seq seen

    def is_duplicate(self, acquirer: int, seq: int) -> bool:
        return seq <= self.last_seq.get(acquirer, -1)

    def append(
        self, acquirer: int, seq: int, acq_vt: Optional[VClock] = None
    ) -> int:
        """Record a new request; returns the previous chain tail (forward target)."""
        prev = self.chain[-1].acquirer
        self.chain.append(ChainEntry(acquirer, seq, acq_vt))
        self.last_seq[acquirer] = seq
        self._prune()
        return prev

    def grant_observed(self, grantee: int) -> None:
        """A GrantInfo said the token moved to ``grantee``."""
        for i in range(self.owner_pos + 1, len(self.chain)):
            if self.chain[i].acquirer == grantee:
                self.owner_pos = i
                self._prune()
                return
        # GrantInfo for a local re-acquire or stale duplicate: ignore.

    def owner(self) -> int:
        return self.chain[self.owner_pos].acquirer

    def waiter_after(self, proc: int) -> Optional[ChainEntry]:
        """The chain entry immediately after ``proc``'s latest position."""
        for i in range(len(self.chain) - 1, -1, -1):
            if self.chain[i].acquirer == proc:
                return self.chain[i + 1] if i + 1 < len(self.chain) else None
        return None

    def in_chain_at_or_after_owner(self, acquirer: int) -> bool:
        return any(
            e.acquirer == acquirer for e in self.chain[self.owner_pos:]
        )

    def _prune(self) -> None:
        # chain entries strictly before the owner are history
        if self.owner_pos > 8:
            drop = self.owner_pos - 1
            del self.chain[:drop]
            self.owner_pos -= drop


class LockTable:
    """All lock state at one process (token states + managed locks)."""

    def __init__(self, pid: int, config: DsmConfig) -> None:
        self.pid = pid
        self.config = config
        self._tokens: Dict[int, LockState] = {}
        self._managed: Dict[int, LockManagerState] = {}

    # -- token side -------------------------------------------------------
    def token(self, lock_id: int) -> LockState:
        st = self._tokens.get(lock_id)
        if st is None:
            st = LockState()
            # The manager starts as the initial resting place of the token,
            # with a zero release snapshot (first acquirer needs nothing).
            if self.manages(lock_id):
                st.has_token = True
                st.rel_vt = VClock.zero(self.config.num_procs)
            self._tokens[lock_id] = st
        return st

    def known_locks(self) -> List[int]:
        return list(self._tokens.keys())

    # -- manager side -------------------------------------------------------
    def manages(self, lock_id: int) -> bool:
        return self.config.lock_manager(lock_id) == self.pid

    def manager(self, lock_id: int) -> LockManagerState:
        if not self.manages(lock_id):
            raise RuntimeError(f"process {self.pid} does not manage lock {lock_id}")
        st = self._managed.get(lock_id)
        if st is None:
            st = LockManagerState(self.pid)
            self._managed[lock_id] = st
        return st

    def managed_locks(self) -> List[int]:
        return list(self._managed.keys())

    # -- recovery support ---------------------------------------------------
    def token_snapshot(self) -> Dict[int, Tuple[bool, bool]]:
        """lock_id -> (has_token, held); used in checkpoints and queries."""
        return {l: (st.has_token, st.held) for l, st in self._tokens.items()}

    def chain_snapshot(self) -> Dict[int, Tuple[bool, bool, Optional[int], int]]:
        """lock -> (has_token, held, successor acquirer, successor seq).

        Recovery queries use this to rebuild a crashed manager's chain
        from the live processes' successor pointers.
        """
        out: Dict[int, Tuple[bool, bool, Optional[int], int]] = {}
        for l, st in self._tokens.items():
            if st.successor is not None:
                out[l] = (st.has_token, st.held, st.successor[0], st.successor[2])
            else:
                out[l] = (st.has_token, st.held, None, 0)
        return out

    def restore_chain(
        self, lock_id: int, holder: int, edges: Dict[int, Tuple[int, int]]
    ) -> None:
        """Rebuild a managed lock's chain from the token holder onward.

        ``edges`` maps a process to its (successor, seq) pointer; the
        chain is the walk from ``holder`` through the pointers. A crashed
        holder loses its own successor pointer, leaving a headless path —
        it is re-attached right after the holder (single-fault: at most
        one pointer is missing). Waiters whose requests died with the old
        manager re-enter by re-sending.

        A re-attached head's *pending* request seq died with the old
        manager; only its last **completed** seq survives (handshake
        ``completed_seq``). Seeding the entry with that stale value would
        make the eventual repair grant look like a duplicate of an
        acquire the waiter already finished — the waiter drops it and
        the token is lost. Real seqs start at 1, so the entry carries the
        sentinel seq 0 instead: grants with seq 0 bypass the grantee's
        completed-seq dedup and are always accepted.
        """
        st = self.manager(lock_id)
        st.chain = [ChainEntry(holder, st.last_seq.get(holder, 0))]
        st.owner_pos = 0
        seen = {holder}

        def walk(cur: int) -> None:
            while cur in edges:
                nxt, seq = edges[cur]
                if nxt in seen:
                    break
                st.chain.append(ChainEntry(nxt, seq))
                st.last_seq[nxt] = max(st.last_seq.get(nxt, -1), seq)
                seen.add(nxt)
                cur = nxt

        walk(holder)
        targets = {t for (t, _) in edges.values()}
        while True:
            heads = sorted(
                s for s in edges if s not in seen and s not in targets
            )
            if not heads:
                break
            for h in heads:
                st.chain.append(ChainEntry(h, 0))
                seen.add(h)
                walk(h)


def token_holders(tables: Iterable[LockTable], lock_id: int) -> List[int]:
    """The pids among ``tables`` where ``lock_id``'s token rests: every
    table whose state says ``has_token``, and a manager that never
    touched the lock, which holds the initial token implicitly
    (:meth:`LockTable.token`). Reads, never creates state. Exactly one
    token per lock, resting here or a ``LockGrant`` in flight, is the
    invariant; the end-of-run oracle, the online lock checker and the
    deadlock diagnosis all count with this."""
    out = []
    for table in tables:
        st = table._tokens.get(lock_id)
        if st.has_token if st is not None else table.manages(lock_id):
            out.append(table.pid)
    return out
