"""The recovery image, and its buddy replication (ROADMAP 3).

§4.2-4.3 has a restarting process ask its peers for "the logs they hold
about me". :class:`FtImage` is everything one node can be asked for, in
the classes the live node already uses, with one :meth:`FtImage.answer`
for the four query kinds (handshake / page_diffs / home_diffs /
starting_copy) and one modelled wire size per kind. A live node answers
from a by-reference view of its own state (:meth:`FtImage.live`).

The paper assumes at most one failure at a time: a second, overlapping
failure can take down exactly the responder whose logs replay needs
(``OverlappingFailureError``). Following the in-memory-replication
direction of Besta & Hoefler's resilient RMA model and LLFT's
leader/follower replication, each node optionally ships a *copy* of its
image (:meth:`FtImage.copy_of`) into a designated peer's *volatile*
memory — the ring buddy ``pid -> (pid+1) % N``, re-assigned when a buddy
dies — so recovery has a second source that answers the same way:

- :class:`Replicator` — the protected node's side: a full image at every
  checkpoint (two-phase ``begin``/``commit`` bracketing the disk write,
  mirroring the stable-storage commit-marker discipline so a crash
  mid-replication leaves a detectably *torn* record) plus one ``op`` per
  FT log event in between; tracks replication acks, whose seqno is the
  ceiling CGC may trim up to (state must be disk-stable *and*
  buddy-held).
- :func:`replica_apply` — the buddy's side: stores images in the host's
  :class:`~repro.sim.storage.ReplicaStore`, advances every retained one
  when an op arrives (:meth:`FtImage.apply`, through the same log
  methods the FT hooks call) and acks committed ones.
- :func:`best_record` — the newest committed record, whose image the
  responder asks on behalf of a lost peer. Extra entries a live node
  would already have trimmed are harmless: the recovering side filters
  with the same predicates it applies to live answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.checkpoint import PageCopy, maximal_starting_copy
from repro.core.logs import RelEntry, VolatileLogs
from repro.dsm.messages import (
    NOTICE_BYTES,
    ReplicaAck,
    ReplicaUpdate,
    WriteNotice,
)
from repro.dsm.pages import PageId
from repro.dsm.vclock import VClock
from repro.sim.engine import back_ref
from repro.sim.trace import (
    REPL_ACK,
    REPL_BEGIN,
    REPL_COMMIT,
    REPL_RETARGET,
    REPL_SYNC,
)

__all__ = [
    "FtImage",
    "SyncState",
    "ReplicaRecord",
    "Replicator",
    "replica_apply",
    "best_record",
]

NO_REPLICA = "__noreplica__"  # sentinel payload: nothing usable to answer from

# modeled wire sizes; every stamp costs its own VClock.wire_bytes()
ENTRY_WIRE = 8  # a log record's fixed fields (lock id, peer, flags)

DiffEntries = List[Tuple[VClock, Any]]  # [(diff.T, diff)]


def _diff_wire(diff: Any, t: VClock) -> int:
    """Modelled size of one logged diff with its timestamp."""
    return diff.size_bytes + t.wire_bytes()


def _grants_wire(buckets: Iterable[List[RelEntry]]) -> int:
    """Modelled size of grant-log entries, each with its stamp."""
    return sum(ENTRY_WIRE + e.acq_t.wire_bytes() for b in buckets for e in b)


def _stamps_wire(stamps: Iterable[VClock]) -> int:
    return sum(t.wire_bytes() for t in stamps)


# ======================================================================
# the image
# ======================================================================


@dataclass
class SyncState:
    """The lock bookkeeping and checkpoint position a handshake reports."""

    #: lock -> (has_token, held, successor acquirer, successor seq)
    tokens: Dict[int, Tuple[bool, bool, Optional[int], int]]
    managed_owners: Dict[int, int]
    completed_seq: Dict[int, int]
    tckp: VClock
    bar_ep: int

    @classmethod
    def of(
        cls, ft: Any, tckp: Optional[VClock] = None, bar_ep: Optional[int] = None
    ) -> "SyncState":
        """Read a live node (``tckp``/``bar_ep``: those of a checkpoint
        being staged, which ``ft.trim`` learns only at its commit)."""
        proc, pid = ft.proc, ft.pid
        locks = proc.locks
        return cls(
            tokens=locks.chain_snapshot(),
            managed_owners={
                l: locks.manager(l).owner() for l in locks.managed_locks()
            },
            completed_seq=dict(proc._completed_seq),
            tckp=tckp if tckp is not None else ft.trim.tckp[pid],
            bar_ep=bar_ep if bar_ep is not None else ft.trim.bar_ep[pid],
        )

    def acquired(self, lock_id: int, seq: int) -> None:
        """The node completed acquire ``seq``: the token is here, held."""
        self.tokens[lock_id] = (True, True, None, 0)
        self.completed_seq[lock_id] = seq


class FtImage:
    """Everything a peer's recovery may ask node ``pid`` for."""

    def __init__(
        self,
        pid: int,
        regions: Any,
        logs: VolatileLogs,
        page_copies: Dict[PageId, List[PageCopy]],
        wn: Optional[List[WriteNotice]] = None,
        sync: Optional[SyncState] = None,
        live_ft: Any = None,
    ) -> None:
        self.pid = pid
        self.regions = regions
        #: rel/acq/diff and barrier logs
        self.logs = logs
        #: retained checkpoint copies of the pages homed at ``pid``
        self.page_copies = page_copies
        #: own write notices and sync state of a copied image; a live
        #: view reads them from ``live_ft`` when a handshake asks
        self.wn = wn
        self.sync = sync
        self.live_ft = live_ft

    @classmethod
    def live(cls, ft: Any) -> "FtImage":
        """By-reference view of a live node: nothing is copied, and only
        what the asked kind reads is materialised."""
        return cls(
            ft.pid, ft.proc.regions, ft.logs, ft.ckpt_mgr.page_copies, live_ft=ft
        )

    @classmethod
    def copy_of(
        cls,
        ft: Any,
        tckp: Optional[VClock] = None,
        bar_ep: Optional[int] = None,
        staged: Optional[Dict[PageId, Tuple[bytes, VClock]]] = None,
        staged_seqno: int = 0,
    ) -> "FtImage":
        """Independent copy, to ship to the buddy.

        ``staged`` carries the homed pages of a checkpoint currently
        being staged (its copies join ``ckpt_mgr.page_copies`` only at
        commit, but the image for that seqno must include them).
        """
        page_copies = {p: list(cs) for p, cs in ft.ckpt_mgr.page_copies.items()}
        for page, (data, version) in (staged or {}).items():
            page_copies.setdefault(page, []).append(
                PageCopy(staged_seqno, version, data)
            )
        return cls(
            ft.pid,
            ft.proc.regions,
            ft.logs.copy(),
            page_copies,
            wn=list(ft.proc.notices.own_after(ft.pid, 0)),
            sync=SyncState.of(ft, tckp, bar_ep),
        )

    def size_bytes(self) -> int:
        """Modelled size of the whole (copied) image on the wire."""
        logs, sync = self.logs, self.sync
        return (
            _grants_wire(logs.rel.entries) + _grants_wire(logs.acq.entries)
            + len(self.wn) * NOTICE_BYTES
            + _stamps_wire(logs.bar.values())
            + sum(
                _diff_wire(e.diff, e.t)
                for es in logs.diff.per_page.values()
                for e in es
            )
            + sum(
                len(c.data) + c.version.wire_bytes()
                for copies in self.page_copies.values()
                for c in copies
            )
            + (len(sync.tokens) + len(sync.managed_owners)) * 8
            + sync.tckp.wire_bytes()
        )

    # -- the one answerer -----------------------------------------------
    def _diffs(self, page: PageId) -> DiffEntries:
        return [(e.t, e.diff) for e in self.logs.diff.entries_for(page)]

    def answer(self, kind: str, requester: int, detail: Any = None) -> Tuple[Any, int]:
        """``(payload, modelled size)`` for one recovery query."""
        if kind == "handshake":
            ft = self.live_ft
            if ft is None:
                wn, sync = self.wn, self.sync
            else:
                wn, sync = ft.proc.notices.own_after(self.pid, 0), SyncState.of(ft)
            rel_entries = self.logs.rel.for_peer(requester)
            acq_mirror = self.logs.acq.for_peer(requester)
            bar = dict(self.logs.bar)
            payload = {
                "managed_owners": sync.managed_owners,
                "rel_entries": rel_entries,
                "acq_mirror": acq_mirror,
                "wn": wn,
                "bar": bar,
                "tckp": sync.tckp,
                "bar_ep": sync.bar_ep,
                "tokens": sync.tokens,
                "completed_seq": sync.completed_seq,
            }
            size = (
                _grants_wire((rel_entries, acq_mirror))
                + len(wn) * NOTICE_BYTES
                + _stamps_wire(bar.values())
                + len(sync.tokens) * 8
                + sync.tckp.wire_bytes()
            )
            return payload, size
        if kind == "page_diffs":
            entries = self._diffs(detail)
            return entries, sum(_diff_wire(d, t) for t, d in entries)
        if kind == "home_diffs":
            out = {
                page: self._diffs(page)
                for page, es in self.logs.diff.per_page.items()
                if es and self.regions.home_of(page) == requester
            }
            return out, sum(_diff_wire(d, t) for es in out.values() for t, d in es)
        if kind == "starting_copy":
            page, ceiling = detail
            copy = maximal_starting_copy(self.page_copies.get(page, ()), ceiling)
            if copy is None:
                return NO_REPLICA, 8
            return (copy.data, copy.version), len(copy.data) + copy.version.wire_bytes()
        raise RuntimeError(f"unknown recovery query kind {kind!r}")

    # -- replica advance ------------------------------------------------
    def apply(self, op: Tuple) -> None:
        """Advance a copied image by one FT logging event of §4.2, through
        the log methods the protected node's own hooks called."""
        kind = op[0]
        logs, sync = self.logs, self.sync
        if kind == "rel":
            # the protected node granted lock_id away: log + token left
            _, acquirer, lock_id, acq_t, provisional = op
            logs.rel.append(acquirer, lock_id, acq_t, provisional=provisional)
            sync.tokens[lock_id] = (False, False, None, 0)
        elif kind == "rel_fix":
            _, acquirer, lock_id, actual_t = op
            logs.rel.confirm(acquirer, lock_id, actual_t, self.pid)
        elif kind in ("acq", "self"):
            # an acquire of the protected node: granted by ``peer``, or a
            # self-grant whose twin ``peer`` holds
            _, peer, lock_id, acq_t, seq = op
            logs.acq.append(peer, lock_id, acq_t, local=kind == "self")
            sync.acquired(lock_id, seq)
        elif kind == "mself":
            # the twin of a peer's self-grant: no token left
            _, grantor, lock_id, acq_t = op
            logs.rel.append(grantor, lock_id, acq_t, local=True)
        elif kind == "bar":
            logs.bar[op[1]] = op[2]
        elif kind == "diff":
            # the entry the protected node appended + its 1:1 own notice
            entry, t = op[1], op[1].t
            logs.diff.adopt(entry)
            self.wn.append(WriteNotice(self.pid, t[self.pid], entry.page, t))
        elif kind == "owner":
            sync.managed_owners[op[1]] = op[2]
        else:
            raise RuntimeError(f"unknown replica op {kind!r}")


def _op_size(op: Tuple) -> int:
    kind = op[0]
    if kind == "diff":
        return _diff_wire(op[1].diff, op[1].t)
    if kind == "owner":
        return ENTRY_WIRE  # lock id and new owner: no stamp
    # a barrier op carries its global vt third, every grant op its acq_t fourth
    return ENTRY_WIRE + (op[2] if kind == "bar" else op[3]).wire_bytes()


@dataclass
class ReplicaRecord:
    """One replicated image generation, advanced by the ops since.

    Stored in the buddy's :class:`ReplicaStore` under ``("replica",
    seqno)``; ``gen`` is the protected node's re-buddying epoch, so a
    holder scan can prefer the freshest copy when several nodes held
    replicas of the same peer at different times.
    """

    seqno: int
    gen: int
    image: FtImage


# ======================================================================
# protected node's side
# ======================================================================


class Replicator:
    """Streams one node's FT state into its ring buddy's volatile memory."""

    def __init__(self, ft: Any, host: Any) -> None:
        #: the manager owns this replicator (``ft.repl``) and the host
        #: owns the manager: weak edges back to both
        self.ft = back_ref(ft)
        self.host = back_ref(host)
        self.cluster = host.cluster
        self.bus = host.cluster.engine.bus
        self.pid = ft.pid
        self.n = ft.n
        self.buddy: Optional[int] = None
        #: re-buddying epoch; bumped on every retarget so holder scans and
        #: ack filtering can tell a fresh replica from a stale one
        self.gen = 0
        #: highest base seqno the *current* buddy has acked — the CGC trim
        #: ceiling (-1: nothing buddy-held yet, CGC must not collect)
        self.acked_seqno = -1

    # -- buddy assignment ----------------------------------------------
    def choose_buddy(self) -> Optional[int]:
        """First live host in ring order after ``pid`` (a recovering host
        is not live until its live switch)."""
        for k in range(1, self.n):
            j = (self.pid + k) % self.n
            if self.cluster.hosts[j].live:
                return j
        return None

    def recompute(self) -> None:
        """Re-evaluate the buddy choice after a liveness change."""
        if self.host.recovering:
            return
        new = self.choose_buddy()
        if new == self.buddy:
            return
        old = self.buddy
        self.buddy = new
        self.gen += 1
        self.acked_seqno = -1  # nothing buddy-held until the new sync acks
        if old is not None and self.cluster.hosts[old].live:
            self._send(
                ReplicaUpdate(kind="drop", protected=self.pid, gen=self.gen),
                dst=old,
            )
        if self.bus.on[REPL_RETARGET]:
            self.bus.emit(REPL_RETARGET, self.pid, old, new, self.gen)
        if new is not None:
            self.full_sync()

    # -- replication stream --------------------------------------------
    def _send(self, msg: ReplicaUpdate, dst: Optional[int] = None) -> None:
        dst = self.buddy if dst is None else dst
        if dst is not None:
            self.ft.proc._send(dst, msg)

    def _streaming(self) -> bool:
        return self.buddy is not None and not self.host.recovering

    def _ship(self, kind: str, seqno: int, image: FtImage) -> None:
        self._send(
            ReplicaUpdate(
                kind=kind,
                protected=self.pid,
                seqno=seqno,
                gen=self.gen,
                body=image,
                body_size=image.size_bytes(),
            )
        )

    def full_sync(self) -> None:
        """Replicate the complete current state as one committed image."""
        if not self._streaming():
            return
        seqno = self.ft.ckpt_mgr.next_seqno - 1
        self._ship("sync", seqno, FtImage.copy_of(self.ft))
        if self.bus.on[REPL_SYNC]:
            self.bus.emit(REPL_SYNC, self.pid, seqno, self.buddy)

    def on_ckpt_begin(
        self, seqno: int, tckp: Any, bar_ep: int, homed: Dict[Any, Tuple[bytes, Any]]
    ) -> None:
        """A checkpoint disk write is starting: stage the new image.

        Sent *before* the write so a crash during the vulnerable window
        leaves a pending (torn) replica record at the buddy, which
        recovery detects via the commit marker and falls back past.
        """
        if not self._streaming():
            return
        self._ship(
            "begin", seqno, FtImage.copy_of(self.ft, tckp, bar_ep, homed, seqno)
        )
        if self.bus.on[REPL_BEGIN]:
            self.bus.emit(REPL_BEGIN, self.pid, seqno, self.buddy)

    def on_ckpt_commit(self, seqno: int) -> None:
        if not self._streaming():
            return
        self._send(
            ReplicaUpdate(
                kind="commit", protected=self.pid, seqno=seqno, gen=self.gen
            )
        )
        if self.bus.on[REPL_COMMIT]:
            self.bus.emit(REPL_COMMIT, self.pid, seqno, self.buddy)

    def op(self, op: Tuple) -> None:
        """Mirror one incremental log event."""
        if not self._streaming():
            return
        self._send(
            ReplicaUpdate(
                kind="op",
                protected=self.pid,
                gen=self.gen,
                body=op,
                body_size=_op_size(op),
            )
        )

    def on_ack(self, msg: ReplicaAck) -> None:
        if msg.gen != self.gen:
            return  # ack from a previous buddy epoch: its records are gone
        if msg.seqno > self.acked_seqno:
            self.acked_seqno = msg.seqno
            if self.bus.on[REPL_ACK]:
                self.bus.emit(REPL_ACK, self.pid, msg.seqno)

    @property
    def lag(self) -> int:
        """Committed checkpoints not yet covered by a replica ack."""
        latest = self.ft.ckpt_mgr.next_seqno - 1
        return latest - self.acked_seqno if self.acked_seqno >= 0 else latest + 1


# ======================================================================
# buddy's side
# ======================================================================


def replica_apply(host: Any, src: int, msg: ReplicaUpdate) -> None:
    """Apply a replication update into this host's ReplicaStore."""
    rs = host.replica_store
    if msg.kind == "drop":
        rs.drop(msg.protected)
        return
    store = rs.store_for(msg.protected)
    key = ("replica", msg.seqno)
    if msg.kind == "sync":
        for k in store.keys():
            store.delete(k)
        store.put(key, ReplicaRecord(msg.seqno, msg.gen, msg.body), msg.body_size)
        _ack(host, src, msg)
    elif msg.kind == "begin":
        store.begin_put(
            key, ReplicaRecord(msg.seqno, msg.gen, msg.body), msg.body_size
        )
    elif msg.kind == "commit":
        if key not in store:
            return  # superseded by a later sync (FIFO makes this rare)
        store.commit_put(key)
        for k in store.keys():
            if k != key and k[1] < msg.seqno:
                store.delete(k)
        _ack(host, src, msg)
    elif msg.kind == "op":
        # advance every retained image: the previous committed one must
        # keep up in case the in-flight one ends up torn
        for k in store.keys():
            store.get(k).image.apply(msg.body)
    else:
        raise RuntimeError(f"unknown replica update kind {msg.kind!r}")


def _ack(host: Any, src: int, msg: ReplicaUpdate) -> None:
    host.proto.cpu.accrue_handler(1e-6)
    host.proto._send(
        src, ReplicaAck(protected=msg.protected, seqno=msg.seqno, gen=msg.gen)
    )


def best_record(host: Any, protected: int) -> Optional[ReplicaRecord]:
    """The newest *committed* replica record this host holds, if any."""
    rs = host.replica_store
    if not rs.has(protected):
        return None
    store = rs.store_for(protected)
    best: Optional[ReplicaRecord] = None
    for k in store.committed_keys():  # a torn record (no commit) is skipped
        rec = store.get(k)
        if best is None or (rec.gen, rec.seqno) > (best.gen, best.seqno):
            best = rec
    return best
