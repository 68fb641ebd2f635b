"""Volatile logs for sender-based message logging (§4.2).

Records are immutable values: a log is appended to, trimmed (Rules
1-3.2), saved with a checkpoint and served to a recovering peer, never
edited, so the log, its checkpointed copy, the log restored from it and
a buddy's image share the record objects and copy only the containers.
Even the one correction, a provisional grant's predicted timestamp
replaced by the actual one (:meth:`GrantLog.confirm`), is made in a new
bucket.
Per process the FT layer keeps:

* ``wn_log`` — write notices it generated. This is physically the base
  protocol's notice table (own-creator slice); the FT layer only adds the
  Rule 1 trimming and the obligation to save it with checkpoints.
* ``rel_log[i]`` — one entry per lock grant to process ``i`` (the
  acquirer's vector time after the acquire). Needed to replay *other*
  processes' acquires.
* ``acq_log[i]`` — mirror entries for this process's own acquires granted
  by ``i``; restores ``i``'s ``rel_log`` after a crash of ``i``. The
  rel/acq pair is replicated on two distinct nodes, so neither needs to
  reach stable storage (§4.2.1). A local re-acquire (self-grant, our
  addition) is such a pair as well: ``local`` entries, the rel half at
  the lock's manager. Both logs are one class, :class:`GrantLog`.
* ``bar`` — episode -> global vt of the barriers this process passed.
  Every participant's is the twin of every other's: a recovering node
  (the barrier manager too) restores its own from its peers'.
* ``diff_log(p)`` — per page, every diff this process created, stamped
  with the creator's vector time and its append sequence number. The
  dominant log by volume, the one LLT targets (§5: "We consider only the
  diff logs for trimming") and the one saved to disk: a flush writes
  all that is unsaved, so the disk holds a prefix of append order,
  :attr:`DiffLog.flushed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.dsm.diff import Diff
from repro.dsm.interval import EMPTY
from repro.dsm.pages import PageId
from repro.dsm.vclock import VClock

__all__ = [
    "RelEntry",
    "GrantLog",
    "DiffLogEntry",
    "DiffLog",
    "VolatileLogs",
]


@dataclass(frozen=True)
class RelEntry:
    """One logged lock grant: the acquirer's vt after the acquire."""

    lock_id: int
    acq_t: VClock
    #: a self-grant: the acquirer took its own resting token. Replay fuel
    #: like any acquire, but no token moved and no AcqAck confirms it
    local: bool = False
    #: a grant made without the request's stamp: ``acq_t`` is a prediction
    #: from the zero clock until the acquirer's AcqAck confirms it
    provisional: bool = False


class GrantLog:
    """One half of §4.2.1's replicated grant pair, bucketed per peer.

    A process keeps two: ``rel`` (grants it made, per acquirer) and
    ``acq`` (its own acquires, per grantor). Neither reaches stable
    storage: after a fail-stop each bucket is rebuilt from its twin on
    the peer. A self-grant is a pair too — its acq half under the bucket
    of :meth:`DsmConfig.self_grant_holder`, its rel half at that holder.

    A bucket is append-only and otherwise replaced wholesale, by
    :meth:`trim` and by a :meth:`confirm` that changes an entry: a list
    object at a given length holds the same entries for as long as it is
    a bucket (the invariant monitor's incremental scan relies on exactly
    that). An empty bucket is the shared immutable
    :data:`~repro.dsm.interval.EMPTY` (a ``NoticeTable`` uses it too)
    until the peer's first :meth:`append` installs a list, and a trim
    that keeps nothing puts it back: a process holds a list only per
    peer it exchanged a lock with, not N of them.
    """

    def __init__(self, num_procs: int) -> None:
        self.n = num_procs
        self.entries: List[Sequence[RelEntry]] = [EMPTY] * num_procs
        #: entries in all buckets together, kept by every method that
        #: resizes one: the observer reads it per host per sample
        self._count = 0

    def append(
        self, peer: int, lock_id: int, acq_t: VClock, local: bool = False,
        provisional: bool = False,
    ) -> None:
        entry = RelEntry(lock_id, acq_t, local, provisional)
        bucket = self.entries[peer]
        if bucket:
            bucket.append(entry)
        else:
            self.entries[peer] = [entry]
        self._count += 1

    def for_peer(self, peer: int) -> List[RelEntry]:
        return list(self.entries[peer])

    def trim(self, peer: int, component: int, bound: int) -> int:
        """Rule 2: keep ``peer``'s entries with ``acq_t[component] >
        bound`` — the acquirer's component against its checkpoint cut,
        whichever half this is. Returns the number dropped; a trim that
        drops nothing keeps the bucket it found (the monitor extends a
        pair whose bucket is the same list instead of rebuilding it)."""
        old = self.entries[peer]
        if not old:
            return 0
        kept = [e for e in old if e.acq_t[component] > bound]
        dropped = len(old) - len(kept)
        if dropped:
            self.entries[peer] = kept or EMPTY
            self._count -= dropped
        return dropped

    def copy(self) -> "GrantLog":
        out = GrantLog(self.n)
        out.entries = [list(b) if b else EMPTY for b in self.entries]
        out._count = self._count
        return out

    def clear(self) -> None:
        self.entries[:] = [EMPTY] * self.n
        self._count = 0

    def confirm(
        self, acquirer: int, lock_id: int, actual_t: VClock, own_pid: int
    ) -> bool:
        """An AcqAck landed (rel side): replace a provisional grant's
        predicted timestamp with the acquirer's actual one (§4.2.1 pair
        symmetry), in a copy of the bucket, like every other change.

        The grantor's own component is identical in the prediction and
        the actual vt (both equal ``rel_vt[grantor]`` bumped nowhere), so
        ``(lock_id, acq_t[grantor])`` identifies the grant — among real
        grants: a self-grant mirror can carry the same pair and is
        skipped. Returns True when it rewrote the entry: False when the
        entry was already exact, or already trimmed under Rule 2 (the
        acquirer checkpointed past it — nothing left to fix).
        """
        lst = self.entries[acquirer]
        comp = actual_t[own_pid]
        for i in range(len(lst) - 1, -1, -1):
            e = lst[i]
            if e.lock_id == lock_id and e.acq_t[own_pid] == comp and not e.local:
                if not e.provisional and e.acq_t == actual_t:
                    return False
                lst = self.entries[acquirer] = list(lst)
                lst[i] = RelEntry(lock_id, actual_t)
                return True
        return False

    def count(self) -> int:
        return self._count


@dataclass(frozen=True)
class DiffLogEntry:
    """One logged diff with its creation timestamp ``diff.T`` (§4.2.2)."""

    page: PageId
    diff: Diff
    t: VClock  # creator's vt at interval flush
    seq: int  # position in the creator's append order

    @property
    def size_bytes(self) -> int:
        return self.diff.size_bytes + 16  # encoded diff + log record header


class DiffLog:
    """All diffs created by this process, per page.

    ``volatile_bytes``/``unsaved_bytes``/``saved_bytes`` are backed by
    incrementally maintained counters: the log-overflow policy reads them
    at every sync point, and summing over all entries there dominated
    profiles. All mutation goes through the methods below so that the
    counters stay exact.
    """

    def __init__(self) -> None:
        self.per_page: Dict[PageId, List[DiffLogEntry]] = {}
        # lifetime accounting for Table 4 (a copy starts its own at zero)
        self.bytes_created = 0
        self.bytes_discarded = 0
        self.next_seq = 0
        #: the disk prefix: an entry is on stable storage iff seq < flushed
        self.flushed = 0
        # current-footprint counters (kept in lockstep with per_page)
        self._volatile = 0
        self._unsaved = 0

    def append(self, page: PageId, diff: Diff, t: VClock) -> DiffLogEntry:
        entry = DiffLogEntry(page, diff, t, self.next_seq)
        self.bytes_created += entry.size_bytes
        self.adopt(entry)
        return entry

    def adopt(self, entry: DiffLogEntry) -> None:
        """Append the record its creator's log holds, in the creator's
        order (how a buddy's image follows). Adopting is not creating."""
        self.per_page.setdefault(entry.page, []).append(entry)
        self.next_seq = entry.seq + 1
        self._volatile += entry.size_bytes
        self._unsaved += entry.size_bytes

    def entries_for(self, page: PageId) -> List[DiffLogEntry]:
        return list(self.per_page.get(page, ()))

    def pages(self) -> List[PageId]:
        return list(self.per_page.keys())

    def trim_page(self, page: PageId, creator: int, min_keep_interval: int) -> int:
        """Rule 3.2: keep entries with ``diff.T[creator] > p0.v[creator]``.

        ``min_keep_interval`` is ``p0.v[creator]`` learned (possibly
        stale) from the page's home. Returns bytes discarded.
        """
        entries = self.per_page.get(page)
        if not entries:
            return 0
        kept: List[DiffLogEntry] = []
        dropped_bytes = 0
        for e in entries:
            if e.t[creator] > min_keep_interval:
                kept.append(e)
            else:
                dropped_bytes += e.size_bytes
                if e.seq >= self.flushed:
                    self._unsaved -= e.size_bytes
        self.per_page[page] = kept
        self.bytes_discarded += dropped_bytes
        self._volatile -= dropped_bytes
        return dropped_bytes

    def clear(self) -> int:
        """Discard the whole log (coordinated checkpointing commits do
        this: a consistent global cut obsoletes every volatile diff).
        Returns bytes discarded."""
        discarded = self._volatile
        self.per_page.clear()
        self.bytes_discarded += discarded
        self._volatile = 0
        self._unsaved = 0
        return discarded

    @property
    def volatile_bytes(self) -> int:
        return self._volatile

    @property
    def unsaved_bytes(self) -> int:
        return self._unsaved

    @property
    def saved_bytes(self) -> int:
        """Current stable-storage footprint of this log."""
        return self._volatile - self._unsaved

    def flush(self) -> int:
        """All appended so far is on disk (written with a checkpoint, or
        read back from one); returns the bytes that were not before."""
        written = self._unsaved
        self.flushed = self.next_seq
        self._unsaved = 0
        return written

    def copy(self) -> "DiffLog":
        """The same records behind its own containers, footprint counters
        and watermark (a checkpoint's, a restored log's, a buddy image's
        log): neither side sees the other's later changes."""
        out = DiffLog()
        out.per_page = {page: list(es) for page, es in self.per_page.items()}
        out.next_seq, out.flushed = self.next_seq, self.flushed
        out._volatile, out._unsaved = self._volatile, self._unsaved
        return out


class VolatileLogs:
    """Bundle of all volatile logs of one process."""

    def __init__(self, pid: int, num_procs: int) -> None:
        self.pid = pid
        self.n = num_procs
        self.rel = GrantLog(num_procs)
        self.acq = GrantLog(num_procs)
        self.diff = DiffLog()
        #: episode -> global vt of the barriers this process passed
        self.bar: Dict[int, VClock] = {}

    def copy(self) -> "VolatileLogs":
        """An independent copy of all four logs, sharing their records (a
        buddy's image of this process advances through the same methods)."""
        out = VolatileLogs(self.pid, self.n)
        out.rel = self.rel.copy()
        out.acq = self.acq.copy()
        out.diff = self.diff.copy()
        out.bar = dict(self.bar)
        return out

    def clear(self) -> None:
        """Drop every log (a committed coordinated cut obsoletes them)."""
        for log in (self.rel, self.acq, self.diff, self.bar):
            log.clear()

    def trim_barriers(self, min_keep_episode: int) -> int:
        """Drop the episodes before ``min_keep_episode``; returns how many."""
        old = len(self.bar)
        self.bar = {e: t for e, t in self.bar.items() if e >= min_keep_episode}
        return old - len(self.bar)
