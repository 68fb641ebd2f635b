"""Unit + property tests for the trimming bounds (LLT/CGC inputs)."""

import numpy as np
import pytest
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

    Recovery restores the checkpointed diff log as a flushed copy (its
    records had reached disk with the checkpoint, so the watermark
    covers all of them); replay then appends fresh *unsaved* entries on
    top. The first LLT after going live may drop a mix of both, and the
    byte accounting must split correctly: fresh ones drain
    ``unsaved_bytes``, and the stable-footprint view (``saved_bytes``)
    only loses the restored share.
    """
    from repro.core.logs import DiffLog
    from repro.dsm.diff import Diff

    page = PageId(0, 0)
    before_crash = DiffLog()
    r1 = before_crash.append(page, Diff(((0, b"x" * 8),)), vt(1, 0, 0, 0))
    r2 = before_crash.append(page, Diff(((0, b"x" * 8),)), vt(2, 0, 0, 0))
    # restored-from-checkpoint entries (what recovery does)
    dl = before_crash.copy()
    dl.flush()
    assert dl.bytes_created == 0  # restoring is not creating
    # fresh post-recovery entries, not yet flushed
    f1 = dl.append(page, Diff(((0, b"y" * 8),)), vt(3, 0, 0, 0))
    f2 = dl.append(page, Diff(((0, b"y" * 8),)), vt(5, 0, 0, 0))
    assert (f1.seq, f2.seq, dl.flushed) == (2, 3, 2)
    assert dl.saved_bytes == r1.size_bytes + r2.size_bytes
    assert dl.unsaved_bytes == f1.size_bytes + f2.size_bytes

    # peers' checkpoints have advanced past interval 3: Rule 3.2 drops
    # both restored entries and the first fresh one
    dropped = dl.trim_page(page, creator=0, min_keep_interval=3)
    assert dropped == r1.size_bytes + r2.size_bytes + f1.size_bytes
    assert [e.t[0] for e in dl.entries_for(page)] == [5]
    assert dl.bytes_discarded == dropped
    assert dl.unsaved_bytes == f2.size_bytes
    assert dl.saved_bytes == 0
    assert dl.volatile_bytes == f2.size_bytes


# -- derived bounds vs a brute-force model -------------------------------


def assert_bounds_match_model(t, know, bar):
    """``t``'s three peer minima against plain loops over an independent
    model of what it was told (``know[j][k]``, ``bar[j]``): no ``vmin``,
    no ``meet``, no ``join``."""
    n, peers = t.n, [j for j in range(t.n) if j != t.pid]
    assert [list(c) for c in t.tckp] == know
    assert t.bar_ep == bar
    if not peers:
        assert list(t.tmin()) == know[t.pid]
        assert (t.wn_keep_from(), t.bar_keep_from()) == (1, 0)
        return
    tmin = []
    for k in range(n):
        lo = know[peers[0]][k]
        for j in peers[1:]:
            if know[j][k] < lo:
                lo = know[j][k]
        tmin.append(lo)
    assert list(t.tmin()) == tmin
    assert t.wn_keep_from() == tmin[t.pid] + 1
    lo = bar[peers[0]]
    for j in peers[1:]:
        if bar[j] < lo:
            lo = bar[j]
    assert t.bar_keep_from() == lo


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64])
def test_bounds_match_brute_force(n):
    """Randomized learn sequences on both sides of ``VClock.ARRAY_WIDTH``:
    fresh, dominated, own-row and ``bar_ep``-only learns, from tuple- and
    array-backed clocks."""
    rng = np.random.default_rng(20260808 + n)
    pid = int(rng.integers(n))
    t = TrimmingInfo(pid, n)
    know = [[0] * n for _ in range(n)]
    bar = [0] * n
    for step in range(300):
        kind = int(rng.integers(5))
        proc = pid if kind == 0 else int(rng.integers(n))
        if kind == 1:  # dominated: at or below what is known
            vec = [int(rng.integers(x + 1)) for x in know[proc]]
        elif kind == 2:  # bar_ep only
            vec = [0] * n
        else:
            vec = [int(x) for x in rng.integers(0, 60, n)]
        ep = int(rng.integers(0, 9))
        clock = VClock(vec) if step % 2 else VClock.from_array(np.array(vec))
        t.learn_tckp(proc, clock, ep)
        know[proc] = [max(a, b) for a, b in zip(know[proc], vec)]
        bar[proc] = max(bar[proc], ep)
        assert_bounds_match_model(t, know, bar)


def test_footprint_is_linear_in_width():
    """One process's trimming state holds no (N, N) structure: its only
    array is the per-row change stamp."""
    n = 256
    arrays = [v for v in vars(TrimmingInfo(0, n)).values()
              if isinstance(v, np.ndarray)]
    assert all(a.ndim <= 1 for a in arrays)
    assert sum(a.nbytes for a in arrays) <= 16 * n


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
