"""Unit + property tests for the trimming bounds (LLT/CGC inputs)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.trimming import TrimmingInfo
from repro.dsm.pages import PageId
from repro.dsm.vclock import VClock

N = 4


def vt(*c):
    return VClock(c)


def test_initial_bounds_are_conservative():
    t = TrimmingInfo(0, N)
    assert t.tmin() == VClock.zero(N)
    assert t.wn_keep_from() == 1
    assert t.rel_bound(1) == 0
    assert t.acq_bound() == 0
    assert t.diff_bound(PageId(0, 0)) == 0
    assert t.bar_keep_from() == 0


def test_learn_tckp_monotone():
    t = TrimmingInfo(0, N)
    t.learn_tckp(1, vt(1, 5, 0, 0), bar_ep=2)
    t.learn_tckp(1, vt(0, 3, 1, 0), bar_ep=1)  # stale: join, not replace
    assert t.tckp[1] == vt(1, 5, 1, 0)
    assert t.bar_ep[1] == 2


def test_tmin_excludes_self():
    t = TrimmingInfo(0, N)
    t.learn_tckp(0, vt(99, 99, 99, 99))
    t.learn_tckp(1, vt(1, 2, 3, 4))
    t.learn_tckp(2, vt(4, 3, 2, 1))
    t.learn_tckp(3, vt(2, 2, 2, 2))
    assert t.tmin() == vt(1, 2, 2, 1)


def test_wn_keep_from_uses_min_peer_component():
    t = TrimmingInfo(2, N)
    t.learn_tckp(0, vt(0, 0, 5, 0))
    t.learn_tckp(1, vt(0, 0, 3, 0))
    t.learn_tckp(3, vt(0, 0, 7, 0))
    assert t.wn_keep_from() == 4  # min(5,3,7) + 1


def test_learn_p0v_monotone():
    t = TrimmingInfo(0, N)
    p = PageId(1, 2)
    t.learn_p0v(p, 5)
    t.learn_p0v(p, 3)
    assert t.diff_bound(p) == 5
    t.learn_p0v(p, 9)
    assert t.diff_bound(p) == 9


def test_single_process_cluster():
    t = TrimmingInfo(0, 1)
    t.tckp = [VClock((7,))]
    assert t.tmin() == VClock((7,))
    assert t.wn_keep_from() == 1
    assert t.bar_keep_from() == 0


@given(
    st.lists(
        st.tuples(
            st.integers(0, N - 1),
            st.lists(st.integers(0, 20), min_size=N, max_size=N),
        ),
        max_size=20,
    )
)
def test_tmin_never_exceeds_any_peer_knowledge(updates):
    """Staleness safety: Tmin is always a lower bound of every peer's
    last known checkpoint — so CGC never discards a copy a peer-recovery
    could still need."""
    t = TrimmingInfo(0, N)
    for proc, c in updates:
        t.learn_tckp(proc, VClock(c))
    tm = t.tmin()
    for j in range(1, N):
        assert tm.leq(t.tckp[j])


@given(st.lists(st.integers(0, 30), max_size=15))
def test_p0v_bound_is_max_of_learned(values):
    t = TrimmingInfo(0, N)
    p = PageId(0, 0)
    for v in values:
        t.learn_p0v(p, v)
    assert t.diff_bound(p) == (max(values) if values else 0)


def test_llt_trim_after_recovery_mixed_saved_and_fresh_entries():
    """LLT trim right after a recovery.

    Recovery restores the checkpointed diff log with every entry marked
    ``saved=True`` (the snapshot had reached disk with the checkpoint);
    replay then appends fresh *unsaved* entries on top. The first LLT
    after going live may drop a mix of both, and the byte accounting
    must split correctly: restored entries count toward
    ``bytes_discarded_saved``, fresh ones drain ``unsaved_bytes``, and
    the stable-footprint view (``saved_bytes``) only loses the restored
    share.
    """
    from repro.core.logs import DiffLog
    from repro.dsm.diff import Diff

    page = PageId(0, 0)
    dl = DiffLog()
    # restored-from-checkpoint entries (recovery appends with saved=True)
    r1 = dl.append(page, Diff(((0, b"x" * 8),)), vt(1, 0, 0, 0), saved=True)
    r2 = dl.append(page, Diff(((0, b"x" * 8),)), vt(2, 0, 0, 0), saved=True)
    # fresh post-recovery entries, not yet flushed
    f1 = dl.append(page, Diff(((0, b"y" * 8),)), vt(3, 0, 0, 0))
    f2 = dl.append(page, Diff(((0, b"y" * 8),)), vt(5, 0, 0, 0))
    assert dl.saved_bytes == r1.size_bytes + r2.size_bytes
    assert dl.unsaved_bytes == f1.size_bytes + f2.size_bytes

    # peers' checkpoints have advanced past interval 3: Rule 3.2 drops
    # both restored entries and the first fresh one
    dropped = dl.trim_page(page, creator=0, min_keep_interval=3)
    assert dropped == r1.size_bytes + r2.size_bytes + f1.size_bytes
    assert [e.t[0] for e in dl.entries_for(page)] == [5]
    assert dl.bytes_discarded_saved == r1.size_bytes + r2.size_bytes
    assert dl.unsaved_bytes == f2.size_bytes
    assert dl.saved_bytes == 0
    assert dl.volatile_bytes == f2.size_bytes


# -- incremental bounds vs full-rescan oracles --------------------------

_learn_seq = st.lists(
    st.tuples(
        st.integers(0, N - 1),  # proc whose row advances
        st.lists(st.integers(0, 20), min_size=N, max_size=N),
        st.integers(0, 5),  # bar_ep
    ),
    max_size=30,
)


def assert_bounds_match_rescan(t):
    """The O(1) bounds against a plain O(N) rescan of what ``t`` knows."""
    peers = [j for j in range(t.n) if j != t.pid]
    tmin = t.tckp[peers[0]]
    for j in peers[1:]:
        tmin = tmin.meet(t.tckp[j])
    assert t.tmin() == tmin
    assert t.wn_keep_from() == min(t.tckp[j][t.pid] for j in peers) + 1
    assert t.bar_keep_from() == min(t.bar_ep[j] for j in peers)


@given(_learn_seq)
def test_incremental_bounds_match_rescan(seq):
    t = TrimmingInfo(0, N)
    for proc, vec, bar in seq:
        t.learn_tckp(proc, VClock(vec), bar)
        assert_bounds_match_rescan(t)


def test_incremental_bounds_match_rescan_wide():
    """Long randomized learn sequence at a scale-out width (array path)."""
    import numpy as np

    n = 48
    rng = np.random.default_rng(20260808)
    t = TrimmingInfo(3, n)
    for step in range(400):
        proc = int(rng.integers(n))
        vec = VClock(tuple(int(x) for x in rng.integers(0, 60, n)))
        t.learn_tckp(proc, vec, int(rng.integers(0, 9)))
        if step % 7 == 0:
            assert_bounds_match_rescan(t)
    assert_bounds_match_rescan(t)


def test_row_gen_tracks_changes_for_gossip_delta():
    """row_gen stamps exactly the rows that changed, in gen order."""
    t = TrimmingInfo(0, N)
    assert t.gen == 0 and list(t.row_gen) == [0] * N
    t.learn_tckp(1, vt(0, 5, 0, 0))
    g1 = t.gen
    assert g1 > 0 and t.row_gen[1] == g1
    t.learn_tckp(1, vt(0, 3, 0, 0))  # dominated: no change
    assert t.gen == g1
    t.learn_tckp(2, vt(0, 0, 7, 0))
    assert t.gen > g1 and t.row_gen[2] == t.gen and t.row_gen[1] == g1
