"""Volatile logs for sender-based message logging (§4.2).

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
  reach stable storage (§4.2.1).
* ``selfgrant_log`` — grantor-side mirror of local re-acquires (our
  addition; the remote copy lives at the lock manager).
* ``bar_log`` — (episode, global vt) for each barrier passed; mirror of
  the barrier manager's history.
* ``diff_log(p)`` — per page, every diff this process created, stamped
  with the creator's vector time. The dominant log by volume and the one
  LLT targets (§5: "We consider only the diff logs for trimming").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dsm.diff import Diff
from repro.dsm.pages import PageId
from repro.dsm.vclock import VClock

__all__ = [
    "RelEntry",
    "RelLog",
    "AcqLog",
    "DiffLogEntry",
    "DiffLog",
    "VolatileLogs",
]


@dataclass(frozen=True)
class RelEntry:
    """One logged lock grant: the acquirer's vt after the acquire."""

    lock_id: int
    acq_t: VClock


#: modeled in-memory/wire size of one rel/acq entry
REL_ENTRY_BYTES = 8


class RelLog:
    """Grants made by this process, bucketed per acquirer."""

    def __init__(self, num_procs: int) -> None:
        self.n = num_procs
        self.entries: List[List[RelEntry]] = [[] for _ in range(num_procs)]
        #: entries in all buckets together, kept by every method that
        #: resizes one: the observer reads it per host per sample
        self._count = 0

    def append(self, acquirer: int, lock_id: int, acq_t: VClock) -> None:
        self.entries[acquirer].append(RelEntry(lock_id, acq_t))
        self._count += 1

    def for_acquirer(self, acquirer: int) -> List[RelEntry]:
        return list(self.entries[acquirer])

    def trim(self, acquirer: int, tckp_component: int) -> int:
        """Rule 2: keep entries with ``acq_t[acquirer] > Tckp_acquirer[acquirer]``."""
        old = self.entries[acquirer]
        kept = [e for e in old if e.acq_t[acquirer] > tckp_component]
        self.entries[acquirer] = kept
        self._count -= len(old) - len(kept)
        return len(old) - len(kept)

    def restore_for(self, acquirer: int, entries: Iterable[RelEntry]) -> None:
        new = list(entries)
        self._count += len(new) - len(self.entries[acquirer])
        self.entries[acquirer] = new

    def clear(self) -> None:
        self.entries[:] = [[] for _ in range(self.n)]
        self._count = 0

    def confirm(
        self, acquirer: int, lock_id: int, actual_t: VClock, own_pid: int
    ) -> bool:
        """An AcqAck landed: replace the predicted timestamp with the
        acquirer's actual one (§4.2.1 pair symmetry).

        The grantor's own component is identical in the prediction and
        the actual vt (both equal ``rel_vt[grantor]`` bumped nowhere), so
        ``(lock_id, acq_t[grantor])`` identifies the grant. Returns False
        when the entry was already trimmed under Rule 2 (the acquirer
        checkpointed past it — nothing left to fix).
        """
        lst = self.entries[acquirer]
        comp = actual_t[own_pid]
        for i in range(len(lst) - 1, -1, -1):
            e = lst[i]
            if e.lock_id == lock_id and e.acq_t[own_pid] == comp:
                if e.acq_t is not actual_t and e.acq_t != actual_t:
                    lst[i] = RelEntry(lock_id, actual_t)
                return True
        return False

    def count(self) -> int:
        return self._count


class AcqLog:
    """This process's own remote acquires, bucketed per grantor (mirror)."""

    def __init__(self, num_procs: int) -> None:
        self.n = num_procs
        self.entries: List[List[RelEntry]] = [[] for _ in range(num_procs)]
        #: grantors with entries — the trim pass visits only these instead
        #: of scanning all N buckets at every checkpoint
        self._nonempty: set = set()
        self._count = 0  # as RelLog's

    def append(self, grantor: int, lock_id: int, acq_t: VClock) -> None:
        self.entries[grantor].append(RelEntry(lock_id, acq_t))
        self._nonempty.add(grantor)
        self._count += 1

    def for_grantor(self, grantor: int) -> List[RelEntry]:
        return list(self.entries[grantor])

    def trim(self, own_pid: int, own_tckp_component: int) -> int:
        """Rule 2: keep entries with ``acq_t[self] > Tckp_self[self]``.

        Entries at or below the own checkpoint cut restore portions of a
        crashed grantor's rel_log that no recovery can need any more.
        """
        dropped = 0
        for g in sorted(self._nonempty):
            old = self.entries[g]
            kept = [e for e in old if e.acq_t[own_pid] > own_tckp_component]
            dropped += len(old) - len(kept)
            self.entries[g] = kept
            if not kept:
                self._nonempty.discard(g)
        self._count -= dropped
        return dropped

    def clear(self) -> None:
        self.entries[:] = [[] for _ in range(self.n)]
        self._nonempty.clear()
        self._count = 0

    def count(self) -> int:
        return self._count


@dataclass
class DiffLogEntry:
    """One logged diff with its creation timestamp ``diff.T`` (§4.2.2)."""

    page: PageId
    diff: Diff
    t: VClock  # creator's vt at interval flush
    saved: bool = False  # already written to stable storage

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
        # lifetime accounting for Table 4
        self.bytes_created = 0
        self.bytes_discarded = 0
        self.bytes_discarded_saved = 0  # subset that had reached the disk
        # current-footprint counters (kept in lockstep with per_page)
        self._volatile = 0
        self._unsaved = 0

    def append(
        self, page: PageId, diff: Diff, t: VClock, saved: bool = False
    ) -> DiffLogEntry:
        entry = DiffLogEntry(page, diff, t, saved)
        self.per_page.setdefault(page, []).append(entry)
        size = entry.size_bytes
        self.bytes_created += size
        self._volatile += size
        if not saved:
            self._unsaved += size
        return entry

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
                if e.saved:
                    self.bytes_discarded_saved += e.size_bytes
                else:
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

    def mark_all_saved(self) -> int:
        """Flush: mark unsaved entries saved; returns bytes newly written."""
        written = 0
        for es in self.per_page.values():
            for e in es:
                if not e.saved:
                    e.saved = True
                    written += e.size_bytes
        self._unsaved -= written
        return written

    def snapshot(self) -> Dict[PageId, List[DiffLogEntry]]:
        """Deep-enough copy for inclusion in a checkpoint (entries are
        immutable apart from the ``saved`` flag, which checkpointed copies
        never flip)."""
        return {
            page: [DiffLogEntry(e.page, e.diff, e.t, True) for e in es]
            for page, es in self.per_page.items()
        }


@dataclass
class BarEntry:
    episode: int
    global_vt: VClock


class VolatileLogs:
    """Bundle of all volatile logs of one process."""

    def __init__(self, pid: int, num_procs: int) -> None:
        self.pid = pid
        self.n = num_procs
        self.rel = RelLog(num_procs)
        self.acq = AcqLog(num_procs)
        self.diff = DiffLog()
        self.selfgrants: Dict[int, List[VClock]] = {}  # lock -> [acq_t]
        self.bar: List[BarEntry] = []

    def copy(self) -> "VolatileLogs":
        """An independent copy, whose counters and indexes are its own (a
        buddy's image of this process advances through the same methods)."""
        out = VolatileLogs(self.pid, self.n)
        for peer in range(self.n):
            out.rel.restore_for(peer, self.rel.entries[peer])
            for e in self.acq.entries[peer]:
                out.acq.append(peer, e.lock_id, e.acq_t)
        for page, entries in self.diff.per_page.items():
            for e in entries:
                out.diff.append(page, e.diff, e.t, e.saved)
        out.selfgrants = {l: list(ts) for l, ts in self.selfgrants.items()}
        out.bar = list(self.bar)
        return out

    # -- barrier log --------------------------------------------------------
    def log_barrier(self, episode: int, global_vt: VClock) -> None:
        self.bar.append(BarEntry(episode, global_vt))

    def trim_barriers(self, min_keep_episode: int) -> int:
        old = len(self.bar)
        self.bar = [b for b in self.bar if b.episode >= min_keep_episode]
        return old - len(self.bar)

    # -- self-grant mirror ---------------------------------------------------
    def log_self_grant(self, lock_id: int, acq_t: VClock) -> None:
        self.selfgrants.setdefault(lock_id, []).append(acq_t)

    def trim_self_grants(self, own_tckp_component: int) -> int:
        dropped = 0
        for lock_id, entries in self.selfgrants.items():
            kept = [t for t in entries if t[self.pid] > own_tckp_component]
            dropped += len(entries) - len(kept)
            self.selfgrants[lock_id] = kept
        return dropped
