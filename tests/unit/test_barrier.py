"""Unit tests for the barrier manager."""

import pytest

from repro.dsm.barrier import BarrierManagerState
from repro.dsm.messages import WriteNotice
from repro.dsm.pages import PageId
from repro.dsm.vclock import VClock

N = 3


def wn(creator, interval):
    vt = VClock.zero(N).with_component(creator, interval)
    return WriteNotice(creator, interval, PageId(0, 0), vt)


def test_episode_completes_when_all_arrive():
    m = BarrierManagerState(N)
    assert m.arrive(0, 0, VClock((1, 0, 0)), []) is None
    assert m.arrive(1, 0, VClock((0, 2, 0)), [wn(1, 2)]) is None
    done = m.arrive(2, 0, VClock((0, 0, 3)), [])
    assert done is not None
    assert done.global_vt() == VClock((1, 2, 3))
    assert len(done.notices) == 1
    assert m.next_episode == 1
    assert m.last_global == VClock((1, 2, 3))


def test_double_arrival_rejected():
    m = BarrierManagerState(N)
    m.arrive(0, 0, VClock.zero(N), [])
    with pytest.raises(RuntimeError, match="twice"):
        m.arrive(0, 0, VClock.zero(N), [])


def test_wrong_episode_rejected():
    m = BarrierManagerState(N)
    with pytest.raises(RuntimeError, match="mismatch"):
        m.arrive(0, 5, VClock.zero(N), [])


def test_sequential_episodes():
    m = BarrierManagerState(N)
    for ep in range(3):
        for p in range(N):
            done = m.arrive(p, ep, VClock.zero(N).with_component(p, ep + 1), [])
        assert done.episode == ep
    assert m.next_episode == 3
    # the log of completed episodes is FT state: every participant's
    # ``VolatileLogs.bar``, the twins a recovering manager rebuilds from
    assert not hasattr(m, "history")
