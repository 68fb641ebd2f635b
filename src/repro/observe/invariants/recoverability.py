"""``recoverability``: the structural recovery precondition, read off
metadata (not by replay).

Every page's retained-copy chain is well formed and non-empty, with a
starting copy every live peer can use (``p0.version <=`` its vector
time: Rule 3); the restart checkpoint is committed and no key is torn
outside a write window (``CheckpointManager.restart_problem`` and
``torn_problem``, which the sweep oracle asks too); every rel/acq pair
of §4.2.1 is present at both ends, so a crash of either side replays
from the other; and with buddy replication the replica chains are sane.

What a scan visits
------------------
Scans run every :data:`SCAN_EVERY` deliveries, at every
``RECOVERY_LIVE`` and at the end. The periodic ones are *incremental*:
the same per-home and per-pair checks as a full scan, but only on what
can have changed since it last verified clean. ``RECOVERY_LIVE`` and the
end forget everything first, so they are full scans and the oracle for
the incremental path (a structure that fails is never remembered, so it
is re-checked and re-reported as a full scan would). Why skipping is
sound:

1. **Page chains and Rule 3.** A peer's vector time is monotone between
   its fail-stops (the ``vclock`` checker sees to that), so a home's
   verified chains stay verified until a chain changes or a peer's
   baseline resets. Every chain change (commit, CGC trim, seeding, or a
   page deleted behind the protocol's back) moves one of
   ``next_seqno``, the retained or discarded page bytes or
   ``len(page_copies)`` of the home's ``CheckpointManager``; a baseline
   reset (``FAILURE``, ``RECOVERY_LIVE``, a vt regression the monitor
   passes on as ``forget``) forgets every home. Corruption that keeps
   all four counters is left to the next full scan.
2. **§4.2.1 pairs.** Log buckets are append-only or replaced wholesale
   (``GrantLog.trim``, and a ``GrantLog.confirm`` that changes an
   entry, install a new list), so while both buckets of a verified pair
   are the same lists and neither side failed or went live (those
   forget every pair), what it verified still holds and the check only
   *extends*: it indexes the grantor's entries appended since, and
   checks the acquirer's appended entries plus those it let pass as
   "missing, nothing older kept" (an appended grant may match one, or
   be older than it). Every other verdict on an old entry is monotone
   in appends: an exact or provisional match stays in the index, and
   the acquirer's own checkpoint cut only rises, which only takes
   entries out of view. A replaced bucket is a new list: the pair is
   checked from scratch. Except a grantor's bucket the check read
   nothing of: an empty bucket is the shared ``dsm.interval.EMPTY`` until
   its first append installs a list, and extending from none of it
   indexes the whole new list, with every live entry of ours still
   "missing", exactly as a check from scratch would.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.dsm.vclock import VClock
from repro.sim.trace import (
    CKPT_WRITE_BEGIN, CKPT_WRITE_END, DELIVER, FAILURE, RECOVERY_LIVE,
)

__all__ = ["SCAN_EVERY", "RecoverabilityChecker"]

#: the scan runs at every Nth delivery. Ten is what every sweep and the
#: ledger run at; scanning at every delivery costs ``sweep_session``
#: +27 % host time
SCAN_EVERY = 10


class _Pair:
    """What one §4.2.1 pair check verified: the two buckets (holding the
    lists keeps their identities from being reused) and how much of each
    it read, the index of the grantor's entries, and the acquirer's
    entries it let pass only because nothing older was kept."""

    __slots__ = ("mine", "n_mine", "rel", "n_rel", "theirs", "oldest_rel",
                 "missing")

    def __init__(self, mine: List[Any], rel: List[Any]) -> None:
        self.mine = mine
        self.n_mine = 0
        self.rel = rel
        self.n_rel = 0
        #: (lock id, grantor's own component) -> the grantor's entries
        self.theirs: Dict[Tuple[int, int], List[Any]] = {}
        self.oldest_rel: Optional[int] = None
        #: positions in ``mine``, ascending
        self.missing: List[int] = []


class RecoverabilityChecker:
    name = "recoverability"

    def __init__(self, monitor: Any) -> None:
        self.hosts = monitor.cluster.hosts
        self.regions = monitor.cluster.regions
        self._net = monitor.cluster.network
        self._violate = monitor.sink(self.name)
        self.checks = 0
        self._deliveries = 0
        #: pids inside a ckpt_write begin/end window (torn stable-store
        #: keys are legal only there or while down)
        self._writing: Set[int] = set()
        #: per home: its manager's (next_seqno, retained page bytes,
        #: discarded page bytes, len(page_copies)) when all of its page
        #: chains last verified clean
        self._chains_ok: Dict[int, Tuple[int, ...]] = {}
        #: (acquirer, grantor) -> what the §4.2.1 pair check verified
        #: when that pair was last clean
        self._pairs_ok: Dict[Tuple[int, int], _Pair] = {}
        #: per-pid high-water mark of buddy-acked replica seqnos (the
        #: trim-never-ahead-of-ack bound; survives re-buddy resets)
        self._acked_hwm: Dict[int, int] = {}

    def subscriptions(self):
        return [
            (DELIVER, self._on_deliver), (CKPT_WRITE_BEGIN, self._on_write_begin),
            (CKPT_WRITE_END, self._on_write_end), (FAILURE, self._on_failure),
            (RECOVERY_LIVE, self._on_live),
        ]

    def adopt(self) -> None:
        """The scan cadence goes on from the deliveries so far; a live
        host with a staged checkpoint is inside its write window (stage
        and ``CKPT_WRITE_BEGIN`` share an engine event, as do
        ``CKPT_WRITE_END`` and the commit); each buddy's acks so far are
        their high-water mark. The memos start empty: the first scan is
        a full scan."""
        net = self._net
        self._deliveries = net.traffic.total_msgs - net.inflight_msgs
        for host in self.hosts:
            if not host.live:
                continue
            if host.ckpt_mgr is not None and host.ckpt_mgr.store.pending_keys():
                self._writing.add(host.pid)
            repl = getattr(host.ft, "repl", None)
            if repl is not None:
                self._acked_hwm[host.pid] = max(0, repl.acked_seqno)

    def _on_deliver(self, src: int, dst: int, payload: Any, epoch: int) -> None:
        self._deliveries += 1
        if self._deliveries % SCAN_EVERY == 0:
            self.scan(full=False, final=False)

    def _on_write_begin(self, pid: int, seqno: int, nbytes: int) -> None:
        self._writing.add(pid)

    def _on_write_end(self, pid: int, seqno: int, duration: float) -> None:
        # the commit marker lands later in this same engine event (the
        # event fires before commit_staged), so do NOT scan here — the
        # next delivery-driven scan runs after the commit and must find
        # no torn keys
        self._writing.discard(pid)

    def _on_failure(self, pid: int) -> None:
        self._writing.discard(pid)
        self.forget()

    def _on_live(self, pid: int) -> None:
        self.scan(full=True, final=False)

    def forget(self) -> None:
        """Nothing verified so far may be relied on: the next scan visits
        every home and every pair."""
        self._chains_ok.clear()
        self._pairs_ok.clear()

    def finish(self) -> None:
        self.scan(full=True, final=True)

    def scan(self, full: bool, final: bool) -> None:
        """One scan. A full scan is an incremental scan that remembers
        nothing (module docstring); ``final`` asks the §4.2.1 pairs for
        exact agreement (the run has quiesced)."""
        if full:
            self.forget()
        hosts = self.hosts
        live = [h for h in hosts if h.live]
        chains_ok = self._chains_ok
        for host in hosts:
            mgr = host.ckpt_mgr
            if mgr is None:
                continue
            pid = host.pid
            sig = (mgr.next_seqno, mgr.pages_retained_bytes,
                   mgr.pages_discarded_bytes, len(mgr.page_copies))
            if chains_ok.get(pid) != sig:
                peers = [h for h in live
                         if h.pid != pid and h.proto is not None]
                clean = True
                # iterate the pages that MUST have a copy sequence here
                # (the ones homed at this node) rather than page_copies'
                # own keys, so a vanished page is a violation, not a
                # silent skip
                for page in self.regions.pages_homed_at(pid):
                    if not self._check_chain(
                        pid, page, mgr.page_copies.get(page), peers
                    ):
                        clean = False
                if clean:
                    chains_ok[pid] = sig
                else:
                    chains_ok.pop(pid, None)
            problem = mgr.restart_problem()
            if problem is not None:
                self._violate(pid, problem)
            if host.live and pid not in self._writing:
                problem = mgr.torn_problem()
                if problem is not None:
                    self._violate(
                        pid, f"{problem} outside any checkpoint write window"
                    )
        pairs_ok = self._pairs_ok
        for host in live:
            ft = host.ft
            if ft is None:
                continue
            i = host.pid
            mgr = host.ckpt_mgr
            own_cut = (mgr.latest.tckp[i]
                       if mgr is not None and mgr.latest is not None else 0)
            for g, mine in enumerate(ft.logs.acq.entries):
                # cheapest rejection first: most (i, g) pairs never
                # exchanged a lock, and the pair loop is O(N^2) per scan
                if not mine or g == i:
                    continue
                peer = hosts[g]
                if peer.ft is None or not peer.live:
                    continue
                rel = peer.ft.logs.rel.entries[i]
                seen = pairs_ok.get((i, g))
                if seen is not None and not seen.n_rel:
                    seen.rel = rel  # read none of it: any list extends it
                if seen is None or seen.mine is not mine or seen.rel is not rel:
                    seen = _Pair(mine, rel)
                elif seen.n_mine == len(mine) and seen.n_rel == len(rel):
                    continue
                if self._check_pair(i, g, seen, own_cut, final):
                    pairs_ok[(i, g)] = seen
                else:
                    pairs_ok.pop((i, g), None)
        self._scan_replicas(final)
        self.checks += 1

    def _check_chain(self, pid: int, page: Any, copies: Optional[List[Any]],
                     peers: List[Any]) -> bool:
        """One page's retained-copy chain at its home ``pid`` against the
        live ``peers``; True when nothing was flagged."""
        if not copies:
            self._violate(
                pid, f"page {tuple(page)} has no retained checkpoint "
                "copies — no recovery could obtain a starting copy",
            )
            return False
        clean = True
        for a, b in zip(copies, copies[1:]):
            if not (a.version.leq(b.version)
                    and a.ckpt_seqno < b.ckpt_seqno):
                self._violate(
                    pid, f"page {tuple(page)} retained-copy sequence "
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
                    pid, f"oldest retained copy of page {tuple(page)} "
                    f"(version {tuple(p0)}) is not <= "
                    f"p{peer.pid}'s vector time "
                    f"{tuple(peer.proto.vt)} — a crash of "
                    f"p{peer.pid} would find no usable starting "
                    "copy (Rule 3 precondition)",
                )
                clean = False
        return clean

    def _check_pair(self, i: int, g: int, pair: _Pair, own_cut: int,
                    final: bool) -> bool:
        """§4.2.1 replication of one live (acquirer ``i``, grantor ``g``)
        pair, extending what ``pair`` verified: every acquire in
        ``pair.mine`` (``i``'s ``acq_log[g]``) must be in ``pair.rel``
        (``g``'s ``rel_log[i]``), or a replay of ``i`` loses a grant. True
        when nothing was flagged; ``pair`` then records what was read.
        What metadata allows:

        * entries at or below ``own_cut`` (``i``'s checkpoint cut) are
          dead and may linger until ``i``'s next LLT pass — skipped;
        * entries match on lock id plus the grantor's own vt component
          and must agree exactly, at every scan. Only a *provisional*
          grant (made without the request's stamp) logs a prediction,
          which the acquirer's AcqAck corrects: until the run has
          quiesced (``final``) it may be prediction <= actual. A missing
          match is flagged only when the grantor keeps an *older* grant
          for us: trimming drops a prefix in grant order, so an older
          one kept and a newer one missing is a loss;
        * a self-grant (``local``) pairs with its holder ``g``, but ``i``
          logs its half before the notification to ``g`` is sent: its
          twin is demanded only at quiescence with nothing in flight.
        """
        mine, rel = pair.mine, pair.rel
        theirs = pair.theirs
        oldest_rel = pair.oldest_rel
        for e in islice(rel, pair.n_rel, None):
            if e.local:
                continue
            own = e.acq_t[g]
            if oldest_rel is None or own < oldest_rel:
                oldest_rel = own
            theirs.setdefault((e.lock_id, own), []).append(e)
        pair.n_rel = len(rel)
        pair.oldest_rel = oldest_rel
        # the periodic scans never ask for a self-grant's twin
        mirrors: Optional[Set[Tuple[int, VClock]]] = None
        if final and not self._net.inflight_msgs:
            mirrors = {(e.lock_id, e.acq_t) for e in rel if e.local}
        todo = pair.missing + list(range(pair.n_mine, len(mine)))
        missing = pair.missing = []
        pair.n_mine = len(mine)
        for k in todo:
            e = mine[k]
            actual = e.acq_t
            if actual[i] <= own_cut:
                continue  # dead: below our own restart cut
            if e.local:
                if mirrors is not None and (e.lock_id, actual) not in mirrors:
                    self._violate(
                        i, f"self-grant (lock {e.lock_id}, acq_t "
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
                        i, f"acq_log entry (lock {e.lock_id}, acq_t "
                        f"{tuple(actual)}) granted by p{g} is missing "
                        f"from p{g}'s rel_log[{i}], which still holds "
                        f"an older grant — the §4.2.1 replicated pair "
                        "lost an entry",
                    )
                    return False
                missing.append(k)
                continue
            if any(r.acq_t == actual for r in logged):
                continue
            if not final and any(
                r.provisional and r.acq_t.leq(actual) for r in logged
            ):
                continue  # a provisional grant's AcqAck is on its way
            if all(r.acq_t.leq(actual) for r in logged):
                self._violate(
                    i, f"p{g}'s rel_log[{i}] entry for lock "
                    f"{e.lock_id} does not exactly match "
                    f"the acquirer's actual timestamp {tuple(actual)}"
                    + (" after quiescence" if final else "")
                    + " — the §4.2.1 pair disagrees (a wrong grant "
                    "stamp, or an AcqAck fix-up lost)",
                )
            else:
                self._violate(
                    i, f"p{g}'s rel_log[{i}] entry for lock "
                    f"{e.lock_id} stamps a timestamp beyond "
                    f"the acquirer's actual {tuple(actual)} "
                    "— the grantor logged an acquire that "
                    "never happened",
                )
            return False
        return True

    def _scan_replicas(self, final: bool) -> None:
        """Trims never outran the buddy's acks, and buddy-held replica
        chains are sane. The bound is a high-water mark of acked seqnos:
        a re-buddy resets ``acked_seqno`` while state acked (and trimmed)
        earlier waits for the re-sync — an exposure window, not a bug.
        """
        hosts = self.hosts
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
                    pid, f"replica ack seqno {repl.acked_seqno} exceeds the "
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
                            pid, f"page {tuple(page)}: oldest retained copy is "
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
                                and not self._net.inflight_msgs):
                            self._violate(
                                holder.pid, f"replica record {key} of p{protected} "
                                "is still torn (begin without commit) "
                                "after the run quiesced",
                            )
                        continue
                    if p_latest is not None and key[1] > p_latest:
                        self._violate(
                            holder.pid, f"holds a committed replica of "
                            f"p{protected}'s checkpoint {key[1]}, which "
                            f"p{protected} never committed "
                            f"(latest {p_latest})",
                        )
