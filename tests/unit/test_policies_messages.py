"""Unit tests for checkpointing policies and message size models."""

import pytest

from repro.core.policies import (
    BarrierCoordinatedPolicy,
    IntervalPolicy,
    LogOverflowPolicy,
    ManualPolicy,
    NeverPolicy,
)
from repro.dsm.config import DsmConfig
from repro.dsm.diff import Diff
from repro.dsm.messages import (
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
    assert pol.describe() == "OF L = 0.1"


def test_log_overflow_validation():
    with pytest.raises(ValueError):
        LogOverflowPolicy(0, 100)
    with pytest.raises(ValueError):
        LogOverflowPolicy(0.1, 0)


def test_interval_policy():
    ft = FakeFt()
    pol = IntervalPolicy(3)
    ft.proc.vt = VClock((2, 0))
    assert not pol.should_checkpoint(ft, False)
    ft.proc.vt = VClock((3, 0))
    assert pol.should_checkpoint(ft, False)
    # resets its base
    ft.proc.vt = VClock((4, 0))
    assert not pol.should_checkpoint(ft, False)


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


def test_manual_and_never():
    ft = FakeFt()
    assert not ManualPolicy().should_checkpoint(ft, True)
    assert not NeverPolicy().should_checkpoint(ft, True)


# -- message sizes --------------------------------------------------------


CFG = DsmConfig(num_procs=4)
VT = VClock((1, 2, 3, 4))
P = PageId(0, 0)


def test_piggyback_size():
    assert Piggyback().size_bytes(CFG) == 0
    assert Piggyback(tckps=((0, VT, 1),)).size_bytes(CFG) == CFG.vt_bytes() + 6
    pb = Piggyback(
        tckps=((0, VT, 1), (2, VT, 0)),
        page_versions=((P, 3), (PageId(0, 1), 5)),
    )
    assert pb.size_bytes(CFG) == 2 * (CFG.vt_bytes() + 6) + 24


def test_message_sizes_include_header_and_piggyback():
    req = LockAcquireReq(lock_id=1, acquirer=2, acq_vt=VT, seq=1)
    base, ft = req.wire_size(CFG)
    assert (base, ft) == (CFG.msg_header + 12 + CFG.vt_bytes(), 0)
    req.piggyback = Piggyback(tckps=((0, VT, 1),))
    assert req.wire_size(CFG) == (base + CFG.vt_bytes() + 6, CFG.vt_bytes() + 6)


def test_grant_size_scales_with_notices():
    wn = WriteNotice(0, 1, P, VT)
    g0 = LockGrant(lock_id=0, grantor=0, rel_vt=VT, notices=[])
    g2 = LockGrant(lock_id=0, grantor=0, rel_vt=VT, notices=[wn, wn])
    assert g2.wire_size(CFG)[0] > g0.wire_size(CFG)[0]


def test_provisional_bit_rides_in_the_grant_fixed_fields():
    """Marking a grant provisional costs no wire byte; the AcqAck that
    confirms it is fault-tolerance traffic whole."""
    wn = WriteNotice(0, 1, P, VT)
    exact = LockGrant(lock_id=0, grantor=0, rel_vt=VT, notices=[wn])
    provisional = LockGrant(
        lock_id=0, grantor=0, rel_vt=VT, notices=[wn], provisional=True
    )
    assert provisional.wire_size(CFG) == exact.wire_size(CFG)
    size, ft = AcqAck(lock_id=3, acquirer=1, acq_t=VT).wire_size(CFG)
    assert ft == size - CFG.msg_header > 0


def test_diff_msg_size_includes_diff():
    d = Diff(((0, b"\x01" * 10),))
    m = DiffMsg(page=P, writer=0, diff=d, diff_vt=VT)
    assert m.wire_size(CFG)[0] == CFG.msg_header + 8 + CFG.vt_bytes() + d.size_bytes


def test_fetch_reply_size_includes_page():
    m = PageFetchReply(page=P, data=b"\x00" * 1024, version=VT)
    assert m.wire_size(CFG)[0] >= 1024


def test_grant_info_self_variant_bigger():
    plain = GrantInfo(lock_id=0, grantor=0, grantee=1)
    selfg = GrantInfo(lock_id=0, grantor=0, grantee=0, acq_t=VT)
    assert selfg.wire_size(CFG)[0] == plain.wire_size(CFG)[0] + CFG.vt_bytes()


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
        GrantInfo(lock_id=0, grantor=0, grantee=1),
        GrantInfo(lock_id=0, grantor=0, grantee=0, acq_t=VT),
        LockGrant(lock_id=0, grantor=0, rel_vt=VT, notices=[wn, wn]),
        DiffMsg(page=P, writer=0, diff=Diff(((0, b"\x01" * 10),)), diff_vt=VT),
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


def _old_pair(msg, config):
    """``(size_bytes, ft_bytes)`` as the two per-class methods computed
    them before ``wire_size`` replaced both."""
    pb = msg.piggyback.size_bytes(config) if msg.piggyback else 0
    payload = msg.payload_bytes(config)
    if isinstance(msg, (ReplicaUpdate, ReplicaAck, AcqAck)):
        # the whole message is FT overhead traffic (an AcqAck is sent by
        # the FT layer only: counted as FT since it stopped riding on the
        # base protocol's lock traffic)
        return config.msg_header + payload + pb, payload + pb
    return config.msg_header + payload + pb, pb


@pytest.mark.parametrize("piggyback", [None, Piggyback(
    tckps=((0, VT, 1), (2, VT, 0)), page_versions=((P, 3),),
)], ids=["bare", "piggybacked"])
def test_wire_size_matches_the_old_size_pair(piggyback):
    samples = _samples()
    assert {type(m) for m in samples} == _every_message_class()
    for msg in samples:
        msg.piggyback = piggyback
        assert msg.wire_size(CFG) == _old_pair(msg, CFG), type(msg).__name__
