"""Unit tests for the volatile logs (grant pair/diff/barrier)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.logs import DiffLog, GrantLog, VolatileLogs
from repro.dsm.diff import compute_diff
from repro.dsm.pages import PageId
from repro.dsm.vclock import VClock

N = 4
P = PageId(0, 0)


def vt(*c):
    return VClock(c)


def some_diff(nbytes=16):
    twin = np.zeros(64, dtype=np.uint8)
    cur = twin.copy()
    cur[:nbytes] = 1
    return compute_diff(twin, cur)


# -- rel / acq -------------------------------------------------------------


def test_rel_log_append_and_trim_rule2():
    rl = GrantLog(N)
    rl.append(1, 0, vt(0, 3, 0, 0))
    rl.append(1, 0, vt(0, 7, 0, 0))
    rl.append(2, 5, vt(0, 0, 2, 0))
    assert rl.count() == 3
    # Rule 2: keep entries with acq_t[acquirer] > Tckp_acquirer[acquirer]
    dropped = rl.trim(1, 1, 3)
    assert dropped == 1
    assert [e.acq_t[1] for e in rl.for_peer(1)] == [7]
    assert rl.count() == 2


def test_rel_log_restore():
    rl = GrantLog(N)
    rl.append(1, 0, vt(0, 3, 0, 0))
    rl2 = rl.copy()
    assert rl2.count() == 1
    assert rl2.for_peer(1) == rl.for_peer(1)
    rl2.append(1, 0, vt(0, 4, 0, 0))  # a copy's buckets and count are its own
    assert (rl.count(), rl2.count()) == (1, 2)


def test_acq_log_trim_by_own_component():
    al = GrantLog(N)  # owned by process 0
    al.append(2, 0, vt(3, 0, 5, 0))
    al.append(2, 0, vt(8, 0, 9, 0))
    al.append(3, 1, vt(2, 0, 0, 4))
    # Rule 2, acq side: every bucket against the own checkpoint cut
    dropped = sum(al.trim(g, 0, 3) for g in range(N))
    assert dropped == 2
    assert al.count() == 1
    assert al.for_peer(2)[0].acq_t[0] == 8


# -- diff log -----------------------------------------------------------------


def test_diff_log_accounting():
    dl = DiffLog()
    e1 = dl.append(P, some_diff(8), vt(1, 0, 0, 0))
    e2 = dl.append(P, some_diff(16), vt(3, 0, 0, 0))
    assert dl.bytes_created == e1.size_bytes + e2.size_bytes
    assert dl.volatile_bytes == dl.bytes_created
    assert dl.unsaved_bytes == dl.bytes_created
    assert dl.saved_bytes == 0


def test_diff_log_save_flush():
    dl = DiffLog()
    e1 = dl.append(P, some_diff(8), vt(1, 0, 0, 0))
    written = dl.mark_all_saved()
    assert written == e1.size_bytes
    assert dl.saved_bytes == e1.size_bytes
    assert dl.unsaved_bytes == 0
    e2 = dl.append(P, some_diff(8), vt(2, 0, 0, 0))
    assert dl.mark_all_saved() == e2.size_bytes


def test_diff_log_trim_rule32():
    dl = DiffLog()
    sizes = {}
    for i in (1, 2, 5):
        e = dl.append(P, some_diff(8), vt(i, 0, 0, 0))
        sizes[i] = e.size_bytes
    dl.mark_all_saved()
    # Rule 3.2: keep entries with diff.T[creator] > p0.v[creator] = 2
    dropped = dl.trim_page(P, creator=0, min_keep_interval=2)
    assert dropped == sizes[1] + sizes[2]
    assert [e.t[0] for e in dl.entries_for(P)] == [5]
    assert dl.bytes_discarded == dropped
    assert dl.bytes_discarded_saved == dropped  # they had reached disk


def test_diff_log_trim_unknown_page_noop():
    dl = DiffLog()
    assert dl.trim_page(PageId(9, 9), 0, 100) == 0


def test_diff_log_snapshot_marks_saved_and_is_independent():
    dl = DiffLog()
    dl.append(P, some_diff(8), vt(1, 0, 0, 0))
    snap = dl.snapshot()
    assert all(e.saved for es in snap.values() for e in es)
    dl.trim_page(P, 0, 10)
    assert len(snap[P]) == 1  # snapshot unaffected by later trims


# -- barrier log & the self-grant pair -------------------------------------


def test_barrier_log_trim():
    logs = VolatileLogs(0, N)
    for ep in range(5):
        logs.log_barrier(ep, vt(ep, ep, ep, ep))
    assert logs.trim_barriers(3) == 3
    assert [b.episode for b in logs.bar] == [3, 4]


def test_self_grant_log_trim():
    """A self-grant is a grant-log pair: ``local`` entries, the acq half
    at the acquirer (p2) under its holder's bucket (p3 manages lock 7),
    the rel half at the holder — each trimmed by Rule 2 like a grant."""
    acquirer, holder = VolatileLogs(2, N), VolatileLogs(3, N)
    for i in (1, 4, 6):
        acquirer.acq.append(3, 7, vt(0, 0, i, 0), local=True)
        holder.rel.append(2, 7, vt(0, 0, i, 0), local=True)
    assert acquirer.acq.for_peer(3) == holder.rel.for_peer(2)  # both halves
    assert all(e.local for e in holder.rel.for_peer(2))
    assert acquirer.acq.trim(3, 2, 4) == 2  # acq_t[self] > Tckp_self[self]
    assert holder.rel.trim(2, 2, 4) == 2  # acq_t[g] > T̂ckp_g[g]: same cut
    assert [e.acq_t[2] for e in holder.rel.for_peer(2)] == [6]
    assert acquirer.acq.for_peer(3) == holder.rel.for_peer(2)
    # a buddy's image carries both halves, flag included
    assert holder.copy().rel.for_peer(2) == holder.rel.for_peer(2)


def test_confirm_skips_a_self_grant_mirror_with_the_same_identity():
    """A mirror can share (lock, acq_t[holder]) with a real grant: the
    AcqAck must patch the grant, never the mirror."""
    rel = GrantLog(N)  # owned by process 3
    rel.append(2, 7, vt(0, 0, 4, 5))  # real grant, predicted timestamp
    rel.append(2, 7, vt(0, 0, 6, 5), local=True)  # later self-grant of p2
    actual = vt(1, 0, 4, 5)
    assert rel.confirm(2, 7, actual, own_pid=3)
    real, mirror = rel.for_peer(2)
    assert real.acq_t == actual and not real.local
    assert mirror.acq_t == vt(0, 0, 6, 5) and mirror.local
    assert rel.count() == 2


@given(
    st.lists(st.integers(1, 30), min_size=0, max_size=25),
    st.integers(0, 35),
)
def test_rule32_invariant_nothing_needed_is_dropped(intervals, bound):
    """After LLT, every retained entry is strictly above the bound and
    every dropped entry was at or below it."""
    dl = DiffLog()
    for i in intervals:
        dl.append(P, some_diff(8), vt(i, 0, 0, 0))
    dl.trim_page(P, 0, bound)
    kept = [e.t[0] for e in dl.entries_for(P)]
    assert all(i > bound for i in kept)
    assert sorted(kept) == sorted(i for i in intervals if i > bound)
