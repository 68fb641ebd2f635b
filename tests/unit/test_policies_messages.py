"""Unit tests for checkpointing policies and message size models."""

import pytest

from repro.core.policies import BarrierCoordinatedPolicy, LogOverflowPolicy
from repro.dsm.diff import Diff
from repro.dsm.messages import (
    MSG_HEADER,
    AcqAck,
    BarrierArrive,
    BarrierRelease,
    DiffMsg,
    GrantInfo,
    LockAcquireReq,
    LockForward,
    LockGrant,
    Message,
    PageFetchReply,
    PageFetchReq,
    Piggyback,
    RecoveryDone,
    RecoveryQuery,
    RecoveryReply,
    ReplicaAck,
    ReplicaUpdate,
    WriteNotice,
)
from repro.dsm.pages import PageId
from repro.dsm.vclock import VClock


class FakeFt:
    """Just enough of FtManager for policy unit tests."""

    class _Diff:
        volatile_bytes = 0
        unsaved_bytes = 0

    class _Logs:
        def __init__(self):
            self.diff = FakeFt._Diff()

    class _Proc:
        pid = 0
        vt = VClock((0, 0))
        barrier_episode = 0

    def __init__(self):
        self.logs = self._Logs()
        self.proc = self._Proc()


def test_log_overflow_threshold():
    ft = FakeFt()
    pol = LogOverflowPolicy(0.1, footprint_bytes=1000)
    ft.logs.diff.unsaved_bytes = 99
    assert not pol.should_checkpoint(ft, False)
    ft.logs.diff.unsaved_bytes = 100
    assert pol.should_checkpoint(ft, False)


def test_log_overflow_validation():
    with pytest.raises(ValueError):
        LogOverflowPolicy(0, 100)
    with pytest.raises(ValueError):
        LogOverflowPolicy(0.1, 0)


def test_barrier_coordinated_policy():
    ft = FakeFt()
    pol = BarrierCoordinatedPolicy(every_barriers=2)
    ft.proc.barrier_episode = 2
    assert not pol.should_checkpoint(ft, at_barrier=False)
    assert pol.should_checkpoint(ft, at_barrier=True)
    ft.proc.barrier_episode = 3
    assert not pol.should_checkpoint(ft, at_barrier=True)
    ft.proc.barrier_episode = 0
    assert not pol.should_checkpoint(ft, at_barrier=True)


# -- message sizes --------------------------------------------------------


VT = VClock((1, 2, 3, 4))
P = PageId(0, 0)


def test_piggyback_size():
    assert VT.wire_bytes() == 16  # dense: every component is nonzero
    assert Piggyback().size_bytes() == 0
    assert Piggyback(tckps=((0, VT, 1),)).size_bytes() == 16 + 6
    sparse = VClock((0, 0, 7, 0))  # 1 B bitmap + one component
    pb = Piggyback(
        tckps=((0, VT, 1), (2, sparse, 0)),
        page_versions=((P, 3), (PageId(0, 1), 5)),
    )
    assert pb.size_bytes() == (16 + 6) + (5 + 6) + 24


def test_message_sizes_include_header_and_piggyback():
    req = LockAcquireReq(lock_id=1, acquirer=2, acq_vt=VT, seq=1)
    base, ft = req.wire_size()
    assert (base, ft) == (MSG_HEADER + 12 + 16, 0)
    req.piggyback = Piggyback(tckps=((0, VT, 1),))
    assert req.wire_size() == (base + 16 + 6, 16 + 6)


def test_every_stamp_costs_its_own_encoding():
    """Each stamp-carrying message is charged its stamps' wire_bytes(),
    not a dense vector per stamp."""
    sparse = VClock((0, 3, 0, 0))
    assert sparse.wire_bytes() == 5
    wn = WriteNotice(1, 3, P, sparse)
    notices = 16  # one write notice, whatever its stamp
    for msg, fixed in [
        (LockAcquireReq(lock_id=1, acquirer=2, acq_vt=sparse, seq=1), 12),
        (LockForward(lock_id=1, acquirer=2, acq_vt=sparse, seq=1), 12),
        (GrantInfo(lock_id=0, grantor=0, grantee=0, acq_t=sparse), 12),
        (LockGrant(lock_id=0, grantor=0, rel_vt=sparse, notices=[wn]), 12 + notices),
        (PageFetchReq(page=P, requester=1, needed_v=sparse), 8),
        (PageFetchReply(page=P, data=b"\x00" * 64, version=sparse), 8 + 64),
        (BarrierArrive(episode=1, proc=2, vt=sparse, notices=[wn]), 8 + notices),
        (BarrierRelease(episode=1, global_vt=sparse, notices=[]), 8),
        (AcqAck(lock_id=3, acquirer=1, acq_t=sparse), 8),
    ]:
        assert msg.payload_bytes() == fixed + 5, type(msg).__name__


def test_a_repair_forward_without_a_stamp_is_charged_none():
    """A ``LockForward`` whose request stamp died with its manager
    carries no stamp: its absence is a bit in the fixed fields."""
    repair = LockForward(lock_id=1, acquirer=2, acq_vt=None, seq=1)
    stamped = LockForward(lock_id=1, acquirer=2, acq_vt=VT, seq=1)
    assert repair.payload_bytes() == 12
    assert stamped.payload_bytes() == 12 + VT.wire_bytes()


def test_a_fetch_for_a_page_one_peer_wrote_stays_small_at_width():
    """At 256 nodes a page version naming one writer costs a 32 B bitmap
    and one component, not 256 components."""
    needed = VClock.zero(256).with_component(17, 9)
    req = PageFetchReq(page=P, requester=3, needed_v=needed)
    assert req.wire_size() == (76, 0)
    assert MSG_HEADER + 8 + 256 * 4 == 1064  # dense


def test_grant_size_scales_with_notices():
    wn = WriteNotice(0, 1, P, VT)
    g0 = LockGrant(lock_id=0, grantor=0, rel_vt=VT, notices=[])
    g2 = LockGrant(lock_id=0, grantor=0, rel_vt=VT, notices=[wn, wn])
    assert g2.wire_size()[0] > g0.wire_size()[0]


def test_provisional_bit_rides_in_the_grant_fixed_fields():
    """Marking a grant provisional costs no wire byte; the AcqAck that
    confirms it is fault-tolerance traffic whole."""
    wn = WriteNotice(0, 1, P, VT)
    exact = LockGrant(lock_id=0, grantor=0, rel_vt=VT, notices=[wn])
    provisional = LockGrant(
        lock_id=0, grantor=0, rel_vt=VT, notices=[wn], provisional=True
    )
    assert provisional.wire_size() == exact.wire_size()
    size, ft = AcqAck(lock_id=3, acquirer=1, acq_t=VT).wire_size()
    assert ft == size - MSG_HEADER > 0


def test_diff_msg_size_includes_diff():
    d = Diff(((0, b"\x01" * 10),))
    m = DiffMsg(page=P, writer=0, diff=d, interval=2)
    assert m.wire_size()[0] == MSG_HEADER + 8 + 4 + d.size_bytes


def test_fetch_reply_size_includes_page():
    m = PageFetchReply(page=P, data=b"\x00" * 1024, version=VT)
    assert m.wire_size()[0] >= 1024


def test_grant_info_self_variant_bigger():
    plain = GrantInfo(lock_id=0, grantor=0, grantee=1)
    selfg = GrantInfo(lock_id=0, grantor=0, grantee=0, acq_t=VT)
    assert selfg.wire_size()[0] == plain.wire_size()[0] + VT.wire_bytes()


def _every_message_class():
    import repro.baselines.coordinated  # noqa: F401  (its Coord* messages)

    out, todo = set(), [Message]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.add(sub)
            todo.append(sub)
    return out


def _samples():
    from repro.baselines.coordinated import (
        CoordAck,
        CoordCommit,
        CoordMarker,
        CoordPrepare,
    )

    wn = WriteNotice(0, 1, P, VT)
    return [
        LockAcquireReq(lock_id=1, acquirer=2, acq_vt=VT, seq=1),
        LockForward(lock_id=1, acquirer=2, acq_vt=VT, seq=1),
        LockForward(lock_id=1, acquirer=2, acq_vt=None, seq=1),
        GrantInfo(lock_id=0, grantor=0, grantee=1),
        GrantInfo(lock_id=0, grantor=0, grantee=0, acq_t=VT),
        LockGrant(lock_id=0, grantor=0, rel_vt=VT, notices=[wn, wn]),
        DiffMsg(page=P, writer=0, diff=Diff(((0, b"\x01" * 10),)), interval=2),
        PageFetchReq(page=P, requester=1, needed_v=VT),
        PageFetchReply(page=P, data=b"\x00" * 64, version=VT),
        BarrierArrive(episode=1, proc=2, vt=VT, notices=[wn]),
        BarrierRelease(episode=1, global_vt=VT, notices=[wn, wn, wn]),
        AcqAck(lock_id=3, acquirer=1, acq_t=VT),
        ReplicaUpdate(kind="op", protected=1, seqno=2, body_size=300),
        ReplicaAck(protected=1, seqno=2),
        RecoveryQuery(kind="handshake", requester=1),
        RecoveryReply(kind="handshake", responder=2, payload_size=40),
        RecoveryDone(proc=1),
        CoordPrepare(round_id=1, cut_episode=2),
        CoordMarker(round_id=1),
        CoordAck(round_id=1, proc=2),
        CoordCommit(round_id=1),
    ]


def _old_pair(msg):
    """``(size_bytes, ft_bytes)`` as the two per-class methods computed
    them before ``wire_size`` replaced both, with their 32 B header."""
    pb = msg.piggyback.size_bytes() if msg.piggyback else 0
    payload = msg.payload_bytes()
    if isinstance(msg, (ReplicaUpdate, ReplicaAck, AcqAck)):
        # the whole message is FT overhead traffic (an AcqAck is sent by
        # the FT layer only: counted as FT since it stopped riding on the
        # base protocol's lock traffic)
        return 32 + payload + pb, payload + pb
    return 32 + payload + pb, pb


@pytest.mark.parametrize("piggyback", [None, Piggyback(
    tckps=((0, VT, 1), (2, VT, 0)), page_versions=((P, 3),),
)], ids=["bare", "piggybacked"])
def test_wire_size_matches_the_old_size_pair(piggyback):
    samples = _samples()
    assert {type(m) for m in samples} == _every_message_class()
    for msg in samples:
        msg.piggyback = piggyback
        assert msg.wire_size() == _old_pair(msg), type(msg).__name__
