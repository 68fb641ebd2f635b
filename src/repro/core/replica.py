"""Buddy replication: in-memory checkpoint + sender-log mirrors (ROADMAP 3).

The paper's recovery protocol assumes at most one failure at a time: a
recovering process rebuilds its volatile logs from *peers'* mirrors, so a
second overlapping failure can take down exactly the responder whose
mirrors replay needs (``OverlappingFailureError``). Following the
in-memory-replication direction of Besta & Hoefler's resilient RMA model
and LLFT's leader/follower replication, each node optionally mirrors its
committed checkpoints and sender-log segments into a designated peer's
*volatile* memory — the ring buddy ``pid -> (pid+1) % N``, re-assigned
when a buddy dies — giving recovery a second source that survives the
loss of the node's own volatile state.

Three moving parts live here:

- :class:`Replicator` — the protected node's side: streams a full **base
  snapshot** at every checkpoint commit (two-phase ``begin``/``commit``
  bracketing the disk write, mirroring the stable-storage commit-marker
  discipline so a crash mid-replication leaves a detectably *torn*
  replica record) plus **incremental ops** for every FT log event in
  between; tracks replication acks, whose seqno is the ceiling CGC may
  trim up to (state must be disk-stable *and* buddy-held).
- :func:`replica_apply` — the buddy's side: applies updates into the
  host's :class:`~repro.sim.storage.ReplicaStore` and acks committed
  bases.
- :func:`serve_replica_query` — recovery's second source: answers the
  same four query kinds the live :class:`RecoveryResponder` serves
  (handshake / page_diffs / home_diffs / starting_copy), reconstructed
  from the newest committed base plus its op tail. Extra entries a live
  node would already have trimmed are harmless: the recovering side
  filters with the same predicates it applies to live answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.logs import RelEntry
from repro.dsm.messages import ReplicaAck, ReplicaUpdate, WriteNotice
from repro.sim.trace import (
    REPL_ACK,
    REPL_BEGIN,
    REPL_COMMIT,
    REPL_RETARGET,
    REPL_SYNC,
)

__all__ = ["ReplicaRecord", "Replicator", "replica_apply", "serve_replica_query"]

NO_REPLICA = "__noreplica__"  # sentinel payload: holder has nothing usable

# modeled wire sizes (match repro.core.recovery's constants)
_REL_WIRE = 40
_NOTICE_WIRE = 16
_VT_WIRE = 32


@dataclass
class ReplicaRecord:
    """One replicated base generation plus the op tail appended since.

    Stored in the buddy's :class:`ReplicaStore` under ``("replica",
    seqno)``; ``gen`` is the protected node's re-buddying epoch, so a
    holder scan can prefer the freshest copy when several nodes held
    replicas of the same peer at different times.
    """

    seqno: int
    gen: int
    base: Dict[str, Any]
    ops: List[Tuple] = field(default_factory=list)
    base_size: int = 0


# ======================================================================
# base snapshots
# ======================================================================


def build_base(
    ft: Any,
    tckp: Any = None,
    bar_ep: Optional[int] = None,
    extra_copies: Optional[Dict[Any, Tuple[bytes, Any]]] = None,
    extra_seqno: int = 0,
) -> Tuple[Dict[str, Any], int]:
    """Snapshot everything a recovery handshake could ask this node for.

    ``extra_copies`` carries the homed pages of a checkpoint currently
    being staged (its copies join ``ckpt_mgr.page_copies`` only at
    commit, but the replica base for that seqno must include them).
    Returns ``(base, modeled_size_bytes)``.
    """
    proc = ft.proc
    pid = ft.pid
    rel = [
        (acquirer, e.lock_id, e.acq_t)
        for acquirer, entries in enumerate(ft.logs.rel.entries)
        for e in entries
    ]
    acq = [
        (grantor, e.lock_id, e.acq_t)
        for grantor, entries in enumerate(ft.logs.acq.entries)
        for e in entries
    ]
    wn = list(proc.notices.own_after(pid, 0))
    mirror_self: Dict[int, Dict[int, List[Any]]] = {}
    for lock_id in proc.locks.managed_locks():
        mgr = proc.locks.manager(lock_id)
        for grantor, entries in mgr.self_grants.items():
            if entries and grantor != pid:
                mirror_self.setdefault(grantor, {}).setdefault(
                    lock_id, []
                ).extend(entries)
    for grantor, locks in ft.buddy_selfgrants.items():
        for lock_id, entries in locks.items():
            if entries:
                mirror_self.setdefault(grantor, {}).setdefault(
                    lock_id, []
                ).extend(entries)
    bar_history: Dict[int, Any] = {}
    if proc.barrier_mgr is not None:
        bar_history = dict(proc.barrier_mgr.history)
    bar_mirror = [(b.episode, b.global_vt) for b in ft.logs.bar]
    diff: Dict[Any, List[Tuple[Any, Any]]] = {}
    for page in ft.logs.diff.pages():
        entries = [(e.t, e.diff) for e in ft.logs.diff.entries_for(page)]
        if entries:
            diff[page] = entries
    page_copies: Dict[Any, List[Tuple[int, Any, bytes]]] = {}
    for page, copies in ft.ckpt_mgr.page_copies.items():
        page_copies[page] = [(c.ckpt_seqno, c.version, c.data) for c in copies]
    if extra_copies:
        for page, (data, version) in extra_copies.items():
            page_copies.setdefault(page, []).append(
                (extra_seqno, version, data)
            )
    base = {
        "rel": rel,
        "acq": acq,
        "wn": wn,
        "mirror_self": mirror_self,
        "bar_history": bar_history,
        "bar_mirror": bar_mirror,
        "tckp": tckp if tckp is not None else ft.trim.tckp[pid],
        "bar_ep": bar_ep if bar_ep is not None else ft.trim.bar_ep[pid],
        "tokens": proc.locks.chain_snapshot(),
        "managed_owners": {
            lock_id: proc.locks.manager(lock_id).owner()
            for lock_id in proc.locks.managed_locks()
        },
        "completed_seq": dict(proc._completed_seq),
    }
    size = (
        (len(rel) + len(acq)) * _REL_WIRE
        + len(wn) * _NOTICE_WIRE
        + sum(
            len(v) for locks in mirror_self.values() for v in locks.values()
        )
        * _VT_WIRE
        + (len(bar_history) + len(bar_mirror)) * _VT_WIRE
        + sum(
            d.size_bytes + _VT_WIRE for es in diff.values() for _, d in es
        )
        + sum(
            len(data) + _VT_WIRE
            for copies in page_copies.values()
            for _, _, data in copies
        )
        + (len(base["tokens"]) + len(base["managed_owners"])) * 8
        + _VT_WIRE
    )
    base["diff"] = diff
    base["page_copies"] = page_copies
    return base, size


def _op_size(op: Tuple) -> int:
    if op[0] == "diff":
        return op[2].size_bytes + _VT_WIRE
    return _REL_WIRE


# ======================================================================
# protected node's side
# ======================================================================


class Replicator:
    """Streams one node's FT state into its ring buddy's volatile memory."""

    def __init__(self, ft: Any, host: Any) -> None:
        self.ft = ft
        self.host = host
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
        # accounting
        self.bytes_sent = 0
        self.ops_sent = 0
        self.syncs_sent = 0

    # -- buddy assignment ----------------------------------------------
    def choose_buddy(self) -> Optional[int]:
        """First live, non-recovering host in ring order after ``pid``."""
        for k in range(1, self.n):
            j = (self.pid + k) % self.n
            h = self.cluster.hosts[j]
            if h.live and not h.recovering:
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
        if self.bus.active:
            self.bus.emit(REPL_RETARGET, self.pid, old, new, self.gen)
        if new is not None:
            self.full_sync()

    # -- replication stream --------------------------------------------
    def _send(self, msg: ReplicaUpdate, dst: Optional[int] = None) -> None:
        dst = self.buddy if dst is None else dst
        if dst is None:
            return
        self.bytes_sent += msg.body_size + 16
        self.ft.proc._send(dst, msg)

    def _streaming(self) -> bool:
        return self.buddy is not None and not self.host.recovering

    def full_sync(self) -> None:
        """Replicate the complete current state as one committed base."""
        if not self._streaming():
            return
        base, size = build_base(self.ft)
        seqno = self.ft.ckpt_mgr.next_seqno - 1
        self.syncs_sent += 1
        self._send(
            ReplicaUpdate(
                kind="sync",
                protected=self.pid,
                seqno=seqno,
                gen=self.gen,
                body=base,
                body_size=size,
            )
        )
        if self.bus.active:
            self.bus.emit(REPL_SYNC, self.pid, seqno, self.buddy)

    def on_ckpt_begin(
        self, seqno: int, tckp: Any, bar_ep: int, homed: Dict[Any, Tuple[bytes, Any]]
    ) -> None:
        """A checkpoint disk write is starting: stage the new base.

        Sent *before* the write so a crash during the vulnerable window
        leaves a pending (torn) replica record at the buddy, which
        recovery detects via the commit marker and falls back past.
        """
        if not self._streaming():
            return
        base, size = build_base(
            self.ft, tckp=tckp, bar_ep=bar_ep, extra_copies=homed,
            extra_seqno=seqno,
        )
        self._send(
            ReplicaUpdate(
                kind="begin",
                protected=self.pid,
                seqno=seqno,
                gen=self.gen,
                body=base,
                body_size=size,
            )
        )
        if self.bus.active:
            self.bus.emit(REPL_BEGIN, self.pid, seqno, self.buddy)

    def on_ckpt_commit(self, seqno: int) -> None:
        if not self._streaming():
            return
        self._send(
            ReplicaUpdate(
                kind="commit", protected=self.pid, seqno=seqno, gen=self.gen
            )
        )
        if self.bus.active:
            self.bus.emit(REPL_COMMIT, self.pid, seqno, self.buddy)

    def op(self, op: Tuple) -> None:
        """Mirror one incremental log event."""
        if not self._streaming():
            return
        self.ops_sent += 1
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
            if self.bus.active:
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
        store.put(
            key,
            ReplicaRecord(msg.seqno, msg.gen, msg.body, base_size=msg.body_size),
            msg.body_size,
        )
        _ack(host, src, msg)
    elif msg.kind == "begin":
        store.begin_put(
            key,
            ReplicaRecord(msg.seqno, msg.gen, msg.body, base_size=msg.body_size),
            msg.body_size,
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
        # append to every retained record: the previous committed base
        # needs the tail in case the in-flight one ends up torn
        for k in store.keys():
            store.get(k).ops.append(msg.body)
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
    for k in store.keys():
        if store.is_pending(k):
            continue  # torn: begin seen, commit never arrived
        rec = store.get(k)
        if best is None or (rec.gen, rec.seqno) > (best.gen, best.seqno):
            best = rec
    return best


# ======================================================================
# recovery's second source
# ======================================================================


def _view(rec: ReplicaRecord, protected: int) -> Dict[str, Any]:
    """Materialize the record's base + op tail into handshake-shaped state.

    The op stream is exactly the FT logging hook stream of §4.2, so the
    overlay mirrors what the live node's handlers would have built.
    """
    base = rec.base
    rel = [list(t) for t in base["rel"]]
    acq = list(base["acq"])
    wn = list(base["wn"])
    mirror_self = {
        g: {l: list(v) for l, v in locks.items()}
        for g, locks in base["mirror_self"].items()
    }
    bar_mirror = list(base["bar_mirror"])
    diff = {p: list(es) for p, es in base["diff"].items()}
    tokens = dict(base["tokens"])
    owners = dict(base["managed_owners"])
    completed = dict(base["completed_seq"])
    for op in rec.ops:
        kind = op[0]
        if kind == "rel":
            # the protected node granted lock_id away: log + token left
            rel.append([op[1], op[2], op[3]])
            tokens[op[2]] = (False, False, None, 0)
        elif kind == "rel_fix":
            # AcqAck landed: the grantor's predicted timestamp became the
            # acquirer's actual one (matched by the grantor's own
            # component, identical in both)
            _, acquirer, lock_id, actual = op
            for e in reversed(rel):
                if (
                    e[0] == acquirer
                    and e[1] == lock_id
                    and e[2][protected] == actual[protected]
                ):
                    e[2] = actual
                    break
        elif kind == "acq":
            _, grantor, lock_id, acq_t, seq = op
            acq.append((grantor, lock_id, acq_t))
            tokens[lock_id] = (True, True, None, 0)
            completed[lock_id] = seq
        elif kind == "self":
            _, lock_id, acq_t, seq = op
            tokens[lock_id] = (True, True, None, 0)
            completed[lock_id] = seq
        elif kind == "mself":
            _, grantor, lock_id, acq_t = op
            mirror_self.setdefault(grantor, {}).setdefault(lock_id, []).append(
                acq_t
            )
        elif kind == "bar":
            bar_mirror.append((op[1], op[2]))
        elif kind == "diff":
            # a diff-log append and its 1:1 own write notice
            _, page, d, t = op
            diff.setdefault(page, []).append((t, d))
            wn.append(WriteNotice(protected, t[protected], page, t))
        elif kind == "owner":
            owners[op[1]] = op[2]
    return {
        "rel": rel,
        "acq": acq,
        "wn": wn,
        "mirror_self": mirror_self,
        "bar_history": dict(base["bar_history"]),
        "bar_mirror": bar_mirror,
        "diff": diff,
        "tokens": tokens,
        "managed_owners": owners,
        "completed_seq": completed,
        "tckp": base["tckp"],
        "bar_ep": base["bar_ep"],
        "page_copies": base["page_copies"],
    }


def serve_replica_query(
    host: Any, protected: int, requester: int, kind: str, detail: Any
) -> Tuple[Any, int]:
    """Answer a recovery query for ``protected`` from this host's replica.

    Mirrors ``RecoveryResponder`` shapes exactly; returns the
    ``NO_REPLICA`` sentinel when no committed record survives (the
    requester re-scans other holders or degrades with a stated reason).
    """
    rec = best_record(host, protected)
    if rec is None:
        return NO_REPLICA, 8
    view = _view(rec, protected)
    if kind == "handshake":
        rel_entries = [
            RelEntry(lock_id, acq_t)
            for acquirer, lock_id, acq_t in view["rel"]
            if acquirer == requester
        ]
        acq_mirror = [
            RelEntry(lock_id, acq_t)
            for grantor, lock_id, acq_t in view["acq"]
            if grantor == requester
        ]
        self_grants = {
            lock_id: list(entries)
            for lock_id, entries in view["mirror_self"].get(requester, {}).items()
        }
        payload = {
            "managed_owners": view["managed_owners"],
            "rel_entries": rel_entries,
            "acq_mirror": acq_mirror,
            "wn": view["wn"],
            "self_grants": self_grants,
            "bar_history": view["bar_history"],
            "bar_mirror": view["bar_mirror"],
            "tckp": view["tckp"],
            "bar_ep": view["bar_ep"],
            "tokens": view["tokens"],
            "completed_seq": view["completed_seq"],
        }
        size = (
            (len(rel_entries) + len(acq_mirror)) * _REL_WIRE
            + len(payload["wn"]) * _NOTICE_WIRE
            + sum(len(v) for v in self_grants.values()) * _VT_WIRE
            + (len(payload["bar_history"]) + len(payload["bar_mirror"]))
            * _VT_WIRE
            + len(payload["tokens"]) * 8
            + _VT_WIRE
        )
        return payload, size
    if kind == "page_diffs":
        entries = list(view["diff"].get(detail, []))
        return entries, sum(d.size_bytes + _VT_WIRE for _, d in entries)
    if kind == "home_diffs":
        proto = host.proto
        out: Dict[Any, List[Tuple[Any, Any]]] = {}
        size = 0
        for page, entries in view["diff"].items():
            if proto.regions.home_of(page) != requester:
                continue
            if entries:
                out[page] = list(entries)
                size += sum(d.size_bytes + _VT_WIRE for _, d in entries)
        return out, size
    if kind == "starting_copy":
        page, ceiling = detail
        copies = view["page_copies"].get(page)
        if not copies:
            return NO_REPLICA, 8
        best = None
        for seqno, version, data in copies:
            if version.leq(ceiling):
                best = (data, version)
        if best is None:
            return NO_REPLICA, 8
        return best, len(best[0]) + _VT_WIRE
    raise RuntimeError(f"unknown replica query kind {kind!r}")
