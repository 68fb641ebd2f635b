"""Unit tests for the buddy-replication tier (core/replica.py).

Torn-record discipline on the buddy's side, ack bookkeeping across
re-buddying epochs on the protected side, and the central safety
property — CGC never trims ahead of the replica ack — exercised over
randomized ack delivery orders.
"""

import random
from types import SimpleNamespace

import pytest

from repro.core.checkpoint import CheckpointManager, PageCopy
from repro.core.logs import VolatileLogs
from repro.core.recovery import answer_query
from repro.core.replica import (
    NO_REPLICA,
    FtImage,
    Replicator,
    SyncState,
    best_record,
    replica_apply,
)
from repro.dsm.messages import RecoveryQuery, ReplicaAck, ReplicaUpdate
from repro.dsm.vclock import VClock
from repro.sim.engine import Engine
from repro.sim.storage import CheckpointStore, ReplicaStore

N = 4


# ---------------------------------------------------------------------------
# fakes: just enough host/ft surface for the pure-logic paths under test
# ---------------------------------------------------------------------------
class FakeProto:
    def __init__(self):
        self.sent = []
        self.cpu = SimpleNamespace(accrue_handler=lambda s: None)

    def _send(self, dst, msg):
        self.sent.append((dst, msg))


class FakeHost:
    def __init__(self, pid=1):
        self.pid = pid
        self.replica_store = ReplicaStore(pid)
        self.proto = FakeProto()
        self.recovering = False
        self.last_crash_time = -1.0
        self.replies = []
        self.cluster = SimpleNamespace(
            hosts=[], engine=Engine(),
            send=lambda src, dst, msg: self.replies.append(msg),
        )

    def ask(self, about, kind="handshake", requester=2):
        """What this host's responder answers ``requester`` about the
        replicated image of ``about``."""
        answer_query(
            self, requester,
            RecoveryQuery(kind=kind, requester=requester, about=about),
        )
        return self.replies.pop().payload


class FakeFt(SimpleNamespace):
    """A namespace a replicator can reach weakly, as it does its manager."""


def make_replicator(pid=0, n=N):
    host = FakeHost(pid)
    ft = FakeFt(
        pid=pid,
        n=n,
        ckpt_mgr=SimpleNamespace(next_seqno=1),
        proc_host=host,  # holds the host, which the cluster does for real
    )
    return Replicator(ft, host), ft


def update(kind, seqno=0, gen=0, body=None, size=0, protected=0):
    return ReplicaUpdate(
        kind=kind, protected=protected, seqno=seqno, gen=gen,
        body=body, body_size=size,
    )


def empty_image(pid=0):
    """The smallest image ``FtImage.copy_of`` could produce (empty logs)."""
    sync = SyncState(
        tokens={}, managed_owners={}, completed_seq={},
        tckp=VClock.zero(N), bar_ep=0,
    )
    return FtImage(pid, None, VolatileLogs(pid, N), {}, wn=[], sync=sync)


# ---------------------------------------------------------------------------
# buddy's side: commit-marker discipline
# ---------------------------------------------------------------------------
def test_torn_record_is_invisible_until_commit():
    """A begin without its commit is torn: no usable record exists."""
    host = FakeHost()
    replica_apply(host, 0, update("begin", seqno=1, body=empty_image(), size=64))
    assert best_record(host, 0) is None
    assert host.ask(about=0) == NO_REPLICA
    # no ack may be sent for a torn record (it would move the trim ceiling
    # past state the buddy cannot actually serve)
    assert host.proto.sent == []

    replica_apply(host, 0, update("commit", seqno=1))
    rec = best_record(host, 0)
    assert rec is not None and rec.seqno == 1
    assert [m.seqno for _, m in host.proto.sent] == [1]


def test_torn_record_falls_back_to_previous_committed_base():
    """Mid-transfer crash of the protected node: the previous committed
    image (advanced by the ops since) stays servable."""
    host = FakeHost()
    replica_apply(host, 0, update("sync", seqno=1, body=empty_image(), size=64))
    replica_apply(host, 0, update("begin", seqno=2, body=empty_image(), size=64))
    # ops stream on; the protected node dies before sending commit(2)
    op = ("bar", 3, VClock.zero(N))
    replica_apply(host, 0, update("op", body=op, size=40))

    rec = best_record(host, 0)
    assert rec is not None and rec.seqno == 1
    # the committed image advanced too, so the fallback answer is not
    # missing the events since begin(2)
    assert host.ask(about=0)["bar"] == {3: VClock.zero(N)}
    store = host.replica_store.store_for(0)
    assert store.is_pending(("replica", 2))


def test_commit_prunes_superseded_records():
    host = FakeHost()
    replica_apply(host, 0, update("sync", seqno=1, body=empty_image(), size=64))
    replica_apply(host, 0, update("begin", seqno=2, body=empty_image(), size=64))
    replica_apply(host, 0, update("commit", seqno=2))
    store = host.replica_store.store_for(0)
    assert store.keys() == [("replica", 2)]
    assert [m.seqno for _, m in host.proto.sent] == [1, 2]


def test_commit_without_record_is_noop():
    """A commit whose begin was superseded (sync raced past it) acks
    nothing and creates nothing."""
    host = FakeHost()
    replica_apply(host, 0, update("commit", seqno=3))
    assert not host.replica_store.store_for(0).keys()
    assert host.proto.sent == []


def test_drop_forgets_protected_peer():
    host = FakeHost()
    replica_apply(host, 0, update("sync", seqno=1, body=empty_image(), size=64))
    assert host.replica_store.has(0)
    replica_apply(host, 0, update("drop"))
    assert not host.replica_store.has(0)


# ---------------------------------------------------------------------------
# protected side: ack bookkeeping across re-buddy epochs
# ---------------------------------------------------------------------------
def test_stale_gen_ack_never_moves_the_ceiling():
    repl, ft = make_replicator()
    repl.gen = 2
    repl.on_ack(ReplicaAck(protected=0, seqno=5, gen=1))
    assert repl.acked_seqno == -1  # old buddy's records are gone
    repl.on_ack(ReplicaAck(protected=0, seqno=3, gen=2))
    assert repl.acked_seqno == 3
    repl.on_ack(ReplicaAck(protected=0, seqno=2, gen=2))
    assert repl.acked_seqno == 3  # acks are monotone


def test_lag_counts_unacked_committed_checkpoints():
    repl, ft = make_replicator()
    ft.ckpt_mgr.next_seqno = 4  # checkpoints 1..3 committed
    assert repl.lag == 4  # nothing acked: virtual ckpt 0 is exposed too
    repl.acked_seqno = 2
    assert repl.lag == 1
    repl.acked_seqno = 3
    assert repl.lag == 0


# ---------------------------------------------------------------------------
# the safety property: trim never ahead of the replica ack
# ---------------------------------------------------------------------------
def make_ckpt_mgr(seqnos, page="P"):
    """A CheckpointManager holding one page with copies at ``seqnos``."""
    mgr = CheckpointManager(0, N, CheckpointStore(0))
    mgr.seed_initial_pages({page: b"\x00" * 64})
    for s in seqnos:
        mgr.page_copies[page].append(
            PageCopy(s, VClock.zero(N).bump(0, s), b"\x01" * 64)
        )
        mgr.pages_retained_bytes += 64
        mgr.next_seqno = s + 1
    return mgr


@pytest.mark.parametrize("seed", range(20))
def test_trim_never_ahead_of_replica_ack(seed):
    """CGC with the ack ceiling never drops a copy unless a newer copy
    that the buddy has acked supersedes it — under arbitrary ack
    delivery orders interleaved with re-buddying retargets.

    Acks are FIFO per channel in the real system, but a retarget switches
    channels mid-stream, so the protected node can observe near-arbitrary
    (gen, seqno) sequences; the ceiling must stay safe through all of
    them.
    """
    rng = random.Random(seed)
    repl, ft = make_replicator()
    seqnos = list(range(1, 9))
    mgr = make_ckpt_mgr(seqnos)
    tmin = VClock([1000] * N)  # Tmin far ahead: only the ceiling gates CGC

    # every checkpoint's ack, possibly duplicated, in random order, with
    # random retargets (gen bumps + ceiling reset) mixed in
    events = [("ack", s) for s in seqnos] + [("ack", rng.choice(seqnos))]
    events += [("retarget", None)] * rng.randint(0, 3)
    rng.shuffle(events)

    acked_in_gen = set()
    hwm = -1  # highest seqno ever acked in any epoch (monitor's _acked_hwm)
    for kind, s in events:
        if kind == "retarget":
            repl.gen += 1
            repl.acked_seqno = -1  # what Replicator.recompute does
            acked_in_gen = set()
        else:
            # acks race: some arrive stamped with a stale gen
            gen = repl.gen if rng.random() < 0.8 else repl.gen - 1
            repl.on_ack(ReplicaAck(protected=0, seqno=s, gen=gen))
            if gen == repl.gen:
                acked_in_gen.add(s)
                hwm = max(hwm, s)

        ceiling = repl.acked_seqno
        assert ceiling <= max(acked_in_gen, default=-1)

        mgr.collect(tmin, seqno_ceiling=ceiling)
        copies = mgr.page_copies["P"]
        # every surviving window starts at a copy some buddy epoch acked
        # (after a retarget the ceiling resets to -1 while the already-
        # trimmed window awaits the re-sync, so the bound is the ack
        # high-water mark across epochs, not the current ceiling)
        assert copies[0].ckpt_seqno <= max(hwm, 0)
        # and nothing newer than the oldest retained copy was dropped:
        # the window end (latest copy) is always intact
        assert copies[-1].ckpt_seqno == seqnos[-1]

    # once every ack of the current epoch is in, CGC converges to a
    # single-copy window at the newest checkpoint
    repl.on_ack(ReplicaAck(protected=0, seqno=seqnos[-1], gen=repl.gen))
    mgr.collect(tmin, seqno_ceiling=repl.acked_seqno)
    assert [c.ckpt_seqno for c in mgr.page_copies["P"]] == [seqnos[-1]]


def test_ceiling_minus_one_collects_nothing():
    """Right after a retarget nothing is buddy-held: CGC must freeze."""
    mgr = make_ckpt_mgr([1, 2, 3])
    mgr.collect(VClock([1000] * N), seqno_ceiling=-1)
    assert [c.ckpt_seqno for c in mgr.page_copies["P"]] == [0, 1, 2, 3]


def test_no_ceiling_means_unreplicated_semantics():
    mgr = make_ckpt_mgr([1, 2, 3])
    mgr.collect(VClock([1000] * N), seqno_ceiling=None)
    assert [c.ckpt_seqno for c in mgr.page_copies["P"]] == [3]
