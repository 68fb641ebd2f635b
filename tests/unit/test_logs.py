"""Unit tests for the volatile logs (grant pair/diff/barrier)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.logs import DiffLog, GrantLog, VolatileLogs
from repro.dsm.diff import compute_diff
from repro.dsm.interval import EMPTY
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


def test_a_trim_that_drops_nothing_keeps_the_bucket():
    """No bucket is edited, and none is replaced for nothing: a trim that
    keeps every entry leaves the same list in place."""
    rl = GrantLog(N)
    rl.append(1, 0, vt(0, 3, 0, 0))
    rl.append(1, 0, vt(0, 7, 0, 0))
    bucket = rl.entries[1]
    assert rl.trim(1, 1, 2) == 0
    assert rl.entries[1] is bucket and len(bucket) == 2 and rl.count() == 2
    assert rl.trim(1, 1, 3) == 1 and rl.entries[1] is not bucket


def test_rel_log_restore():
    rl = GrantLog(N)
    rl.append(1, 0, vt(0, 3, 0, 0))
    rl2 = rl.copy()
    assert rl2.count() == 1
    assert rl2.for_peer(1) == rl.for_peer(1)
    rl2.append(1, 0, vt(0, 4, 0, 0))  # a copy's buckets and count are its own
    assert (rl.count(), rl2.count()) == (1, 2)


def peer_lists(log):
    """The per-peer list objects ``log``'s attributes hold."""
    return [
        b for attr in vars(log).values() if isinstance(attr, list)
        for b in attr if isinstance(b, list)
    ]


def test_a_wide_grant_log_holds_a_list_only_per_peer_with_an_entry():
    """Per-peer state exists once used: a 128-node log is one shared
    empty bucket per peer until that peer's first append, and neither a
    copy nor a clear of an untouched log makes a list; a trim that keeps
    nothing gives the bucket back."""
    log = GrantLog(128)
    assert peer_lists(log) == [] and all(b is EMPTY for b in log.entries)
    assert peer_lists(log.copy()) == []
    log.clear()
    assert peer_lists(log) == [] and log.count() == 0
    clock = VClock.zero(128).with_component(5, 2)
    log.append(5, 0, clock)
    log.append(5, 1, clock)
    (bucket,) = peer_lists(log)
    assert bucket is log.entries[5] and len(bucket) == 2
    assert log.for_peer(9) == [] and type(log.for_peer(9)) is list
    assert log.trim(9, 9, 0) == 0 and len(peer_lists(log)) == 1
    twin = log.copy()
    assert len(peer_lists(twin)) == 1 and twin.entries[5] is not bucket
    assert log.trim(5, 5, 2) == 2
    assert peer_lists(log) == [] and log.count() == 0
    assert log.entries[5] is EMPTY
    assert twin.count() == 2  # the copy kept its own list
    log.append(5, 0, clock.bump(5))
    assert peer_lists(log) == [log.entries[5]]
    assert len(bucket) == 2  # the trimmed list was replaced, not edited


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
    written = dl.flush()
    assert written == e1.size_bytes
    assert dl.saved_bytes == e1.size_bytes
    assert dl.unsaved_bytes == 0
    e2 = dl.append(P, some_diff(8), vt(2, 0, 0, 0))
    # the disk holds a prefix of append order: one integer says which
    assert (e1.seq, e2.seq, dl.flushed, dl.next_seq) == (0, 1, 1, 2)
    assert dl.flush() == e2.size_bytes
    assert dl.flush() == 0


def test_diff_log_trim_rule32():
    dl = DiffLog()
    sizes = {}
    for i in (1, 2, 5):
        e = dl.append(P, some_diff(8), vt(i, 0, 0, 0))
        sizes[i] = e.size_bytes
    dl.flush()
    # Rule 3.2: keep entries with diff.T[creator] > p0.v[creator] = 2
    dropped = dl.trim_page(P, creator=0, min_keep_interval=2)
    assert dropped == sizes[1] + sizes[2]
    assert [e.t[0] for e in dl.entries_for(P)] == [5]
    assert dl.bytes_discarded == dropped
    assert dl.saved_bytes == sizes[5]  # they had reached disk
    assert dl.unsaved_bytes == 0


def test_diff_log_trim_unknown_page_noop():
    dl = DiffLog()
    assert dl.trim_page(PageId(9, 9), 0, 100) == 0


def test_diff_log_copy_shares_entries_and_is_independent():
    dl = DiffLog()
    e1 = dl.append(P, some_diff(8), vt(1, 0, 0, 0))
    snap = dl.copy()
    assert snap.per_page[P][0] is e1  # the record itself, not a rebuild
    assert (snap.next_seq, snap.flushed) == (1, 0)
    # lifetime accounting is the holder's own: a copy created nothing
    assert (snap.bytes_created, snap.bytes_discarded) == (0, 0)
    before = (snap.volatile_bytes, snap.unsaved_bytes, snap.saved_bytes)
    assert before == (e1.size_bytes, e1.size_bytes, 0)
    dl.flush()
    dl.append(P, some_diff(8), vt(2, 0, 0, 0))
    dl.trim_page(P, 0, 10)
    # unaffected by the original's later flushes, appends and trims
    assert snap.per_page[P] == [e1] and dl.per_page[P] == []
    assert (snap.volatile_bytes, snap.unsaved_bytes, snap.saved_bytes) == before
    assert (snap.next_seq, snap.flushed) == (1, 0)


def test_diff_log_entries_are_immutable_and_adopted_not_rebuilt():
    dl = DiffLog()
    e1 = dl.append(P, some_diff(8), vt(1, 0, 0, 0))
    with pytest.raises(AttributeError):  # dataclasses.FrozenInstanceError
        e1.seq = 7
    image = dl.copy()
    e2 = dl.append(P, some_diff(16), vt(2, 0, 0, 0))
    image.adopt(e2)
    assert image.per_page[P][1] is e2
    assert (image.next_seq, image.volatile_bytes) == (2, dl.volatile_bytes)
    assert image.bytes_created == 0  # adopting is not creating


class ModelLog:
    """Brute force: the retained entries, and an explicit set of the ones
    on disk, per holder."""

    def __init__(self):
        self.entries, self.saved, self.discarded = [], set(), 0

    def copy(self):
        out = ModelLog()
        out.entries, out.saved = list(self.entries), set(self.saved)
        return out

    def trim(self, page, bound):
        drop = [e for e in self.entries if e.page == page and e.t[0] <= bound]
        self.entries = [e for e in self.entries if e not in drop]
        self.discarded += sum(e.size_bytes for e in drop)

    def numbers(self):
        vol = sum(e.size_bytes for e in self.entries)
        saved = sum(e.size_bytes for e in self.entries if e.seq in self.saved)
        return (vol, vol - saved, saved, self.discarded)


def numbers(dl):
    return (dl.volatile_bytes, dl.unsaved_bytes, dl.saved_bytes, dl.bytes_discarded)


PAGES = (P, PageId(0, 1))
STEP = st.one_of(
    st.tuples(st.just("append"), st.integers(0, 1), st.integers(1, 32)),
    st.tuples(st.just("flush"), st.integers(0, 3)),
    st.tuples(st.just("trim"), st.integers(0, 3), st.integers(0, 1), st.integers(0, 40)),
    st.tuples(st.just("copy"), st.integers(0, 3)),
)


@given(st.lists(STEP, max_size=40))
def test_diff_log_counters_match_a_saved_set_model(steps):
    """Random append / flush / trim_page / copy / adopt sequences: the
    watermark and the running counters agree, after every step, with a
    model that marks each entry saved one by one — on the log and on
    every copy taken along the way. Copies follow the log's later
    appends the way a buddy's image does (``adopt``) and flush and trim
    on their own."""
    logs, models = [DiffLog()], [ModelLog()]
    interval = 0
    for step in steps:
        kind, k = step[0], step[1] % len(logs)
        if kind == "append":
            interval += 1
            entry = logs[0].append(PAGES[step[1]], some_diff(step[2]), vt(interval, 0, 0, 0))
            for dl, model in zip(logs, models):
                if dl is not logs[0]:
                    dl.adopt(entry)
                model.entries.append(entry)
        elif kind == "flush":
            before = logs[k].unsaved_bytes
            assert logs[k].flush() == before
            models[k].saved.update(e.seq for e in models[k].entries)
        elif kind == "trim":
            page = PAGES[step[2]]
            before = models[k].discarded
            dropped = logs[k].trim_page(page, 0, step[3])
            models[k].trim(page, step[3])
            assert dropped == models[k].discarded - before
        else:
            logs.append(logs[k].copy())
            models.append(models[k].copy())
        for dl, model in zip(logs, models):
            assert numbers(dl) == model.numbers()
            held = [e for es in dl.per_page.values() for e in es]
            assert sorted(map(id, held)) == sorted(map(id, model.entries))


# -- barrier log & the self-grant pair -------------------------------------


def test_barrier_log_trim():
    """The barrier log keeps the episodes from the bound on and reports
    how many it dropped, as LLT counts them."""
    logs = VolatileLogs(0, N)
    for ep in range(5):
        logs.bar[ep] = vt(ep, ep, ep, ep)
    assert logs.trim_barriers(3) == 3
    assert list(logs.bar) == [3, 4]
    assert logs.trim_barriers(3) == 0
    assert list(logs.bar) == [3, 4]


def test_volatile_logs_copy_and_clear_cover_all_four_logs():
    logs = VolatileLogs(0, N)
    logs.rel.append(1, 0, vt(0, 3, 0, 0))
    logs.acq.append(2, 0, vt(4, 0, 0, 0))
    entry = logs.diff.append(P, some_diff(8), vt(1, 0, 0, 0))
    logs.bar[0] = vt(1, 1, 1, 1)
    image = logs.copy()
    logs.clear()
    assert (logs.rel.count(), logs.acq.count(), logs.diff.volatile_bytes) == (0, 0, 0)
    assert logs.diff.bytes_discarded == entry.size_bytes
    assert logs.bar == {}
    # the image holds the same records in containers of its own
    assert image.diff.per_page[P][0] is entry
    assert (image.rel.count(), image.acq.count()) == (1, 1)
    assert image.bar == {0: vt(1, 1, 1, 1)}


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
    rel.append(2, 7, vt(0, 0, 4, 5), provisional=True)  # predicted timestamp
    rel.append(2, 7, vt(0, 0, 6, 5), local=True)  # later self-grant of p2
    actual = vt(1, 0, 4, 5)
    assert rel.confirm(2, 7, actual, own_pid=3)
    real, mirror = rel.for_peer(2)
    assert real.acq_t == actual and not real.local and not real.provisional
    assert mirror.acq_t == vt(0, 0, 6, 5) and mirror.local
    assert rel.count() == 2


def test_a_changing_confirm_replaces_the_bucket_and_leaves_the_old_list():
    """A bucket list is never edited: whoever holds it (a scan's
    signature, a checkpoint's copy) keeps reading what it held. A confirm
    that changes an entry installs a new list and says so; one that
    changes nothing keeps the bucket and returns False, so no ``rel_fix``
    replica op is shipped for it."""
    rel = GrantLog(N)  # owned by process 3
    predicted, actual = vt(0, 0, 4, 5), vt(1, 0, 4, 5)
    rel.append(2, 7, predicted, provisional=True)
    held = rel.entries[2]
    assert rel.confirm(2, 7, actual, own_pid=3)
    assert [e.acq_t for e in held] == [predicted]
    assert rel.entries[2] is not held
    assert [(e.acq_t, e.provisional) for e in rel.entries[2]] == [(actual, False)]
    unchanged = rel.entries[2]
    assert not rel.confirm(2, 7, actual, own_pid=3)
    assert rel.entries[2] is unchanged


def test_confirm_rewrites_only_what_it_changes():
    """An exact grant entry is left alone (False, same bucket); a
    provisional one whose prediction happens to be the actual stamp is
    rewritten all the same, to clear its flag."""
    rel = GrantLog(N)  # owned by process 3
    exact = vt(1, 0, 4, 5)
    rel.append(2, 7, exact)
    held = rel.entries[2]
    assert not rel.confirm(2, 7, exact, own_pid=3)
    assert rel.entries[2] is held
    rel.append(1, 7, exact, provisional=True)
    assert rel.confirm(1, 7, exact, own_pid=3)
    assert [(e.acq_t, e.provisional) for e in rel.entries[1]] == [(exact, False)]
    # nothing left to confirm: the entry was trimmed under Rule 2
    assert not rel.confirm(0, 7, exact, own_pid=3)


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
