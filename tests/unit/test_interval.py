"""Unit + property tests for the write-notice table."""

from hypothesis import given
from hypothesis import strategies as st

from repro.dsm.interval import NoticeTable
from repro.dsm.messages import WriteNotice
from repro.dsm.pages import PageId
from repro.dsm.vclock import VClock

N = 4


def wn(creator, interval, page=0):
    vt = VClock.zero(N).with_component(creator, interval)
    return WriteNotice(creator, interval, PageId(0, page), vt)


def test_add_and_dedupe():
    t = NoticeTable(N)
    assert t.add(wn(0, 1))
    assert not t.add(wn(0, 1))  # same creator/interval/page
    assert t.add(wn(0, 1, page=2))  # different page
    assert t.count() == 2


def test_between_window():
    t = NoticeTable(N)
    for i in (1, 2, 5, 9):
        t.add(wn(1, i, page=i))
    low = VClock((0, 2, 0, 0))
    high = VClock((0, 5, 0, 0))
    got = sorted(n.interval for n in t.between(low, high))
    assert got == [5]
    # inclusive upper, exclusive lower
    got = sorted(n.interval for n in t.between(VClock.zero(N), high))
    assert got == [1, 2, 5]


def test_between_multi_creator():
    t = NoticeTable(N)
    t.add(wn(0, 3))
    t.add(wn(2, 4, page=1))
    got = t.between(VClock.zero(N), VClock((3, 0, 4, 0)))
    assert {(n.creator, n.interval) for n in got} == {(0, 3), (2, 4)}


def test_between_empty_window():
    t = NoticeTable(N)
    t.add(wn(0, 3))
    assert t.between(VClock((3, 0, 0, 0)), VClock((3, 0, 0, 0))) == []


def test_own_after():
    t = NoticeTable(N)
    for i in (1, 3, 7):
        t.add(wn(2, i, page=i))
    got = sorted(n.interval for n in t.own_after(2, 2))
    assert got == [3, 7]
    assert t.own_after(2, 7) == []


def test_trim_creator_before():
    t = NoticeTable(N)
    for i in (1, 2, 3, 4):
        t.add(wn(0, i, page=i))
    dropped = t.trim_creator_before(0, 3)
    assert dropped == 2
    remaining = sorted(n.interval for n in t.all_notices())
    assert remaining == [3, 4]
    # idempotent
    assert t.trim_creator_before(0, 3) == 0


def test_a_wide_table_holds_a_list_only_per_creator_heard_from():
    """One notice list per creator, made at its first notice: a built
    128-node table holds none, and its queries still answer lists; a
    trim that keeps none of a creator's notices gives its list back."""
    n = 128
    t = NoticeTable(n)

    def lists():  # the per-creator list objects the table's attributes hold
        return [
            w for attr in vars(t).values() if isinstance(attr, list)
            for w in attr if isinstance(w, list)
        ]

    assert lists() == []
    assert t.own_after(7, 0) == [] and type(t.own_after(7, 0)) is list
    wide = VClock.zero(n).with_component(7, 3)
    assert t.between(VClock.zero(n), wide) == []
    assert t.trim_creator_before(7, 5) == 0 and t.count() == 0
    notice = WriteNotice(7, 3, PageId(0, 1), wide)
    assert t.add(notice) and not t.add(notice)
    assert len(lists()) == 1
    assert t.between(VClock.zero(n), wide) == [notice]
    assert type(t.own_after(7, 0)) is list and t.own_after(7, 0) == [notice]
    assert t.own_after(7, 3) == []
    assert t.trim_creator_before(7, 3) == 0 and len(lists()) == 1
    assert t.trim_creator_before(7, 4) == 1 and lists() == []
    assert t.count() == 0 and t.own_after(7, 0) == []
    assert t.add(notice) and t.own_after(7, 0) == [notice]


@given(
    st.lists(
        st.tuples(st.integers(0, N - 1), st.integers(1, 20), st.integers(0, 5)),
        max_size=40,
    ),
    st.lists(st.integers(0, 20), min_size=N, max_size=N),
    st.lists(st.integers(0, 20), min_size=N, max_size=N),
)
def test_between_matches_bruteforce(entries, lo, hi):
    t = NoticeTable(N)
    inserted = []
    for c, i, p in entries:
        n = wn(c, i, page=p)
        if t.add(n):
            inserted.append(n)
    low, high = VClock(lo), VClock(hi)
    got = {(n.creator, n.interval, n.page) for n in t.between(low, high)}
    want = {
        (n.creator, n.interval, n.page)
        for n in inserted
        if low[n.creator] < n.interval <= high[n.creator]
    }
    assert got == want


@given(
    st.lists(st.tuples(st.integers(1, 20), st.integers(0, 5)), max_size=30),
    st.integers(0, 25),
)
def test_trim_rule1_keeps_everything_at_or_after(entries, keep_from):
    """Rule 1: after trimming, exactly the notices with interval >=
    keep_from survive."""
    t = NoticeTable(N)
    for i, p in entries:
        t.add(wn(1, i, page=p))
    before = {(n.interval, n.page) for n in t.all_notices()}
    t.trim_creator_before(1, keep_from)
    after = {(n.interval, n.page) for n in t.all_notices()}
    assert after == {(i, p) for i, p in before if i >= keep_from}


@given(
    st.sampled_from([8, 32]),  # tuple clocks and array clocks
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 12), st.integers(0, 4)),
        max_size=60,
    ),
    st.lists(st.integers(0, 12), min_size=6, max_size=6),
    st.lists(st.integers(0, 12), min_size=6, max_size=6),
    st.integers(0, 5),
    st.integers(0, 13),
)
def test_query_order_and_trim_match_model(n, entries, lo, hi, who, keep_from):
    """Lock grants and barrier arrivals ship ``between``/``own_after``
    verbatim, so bit-identical runs depend on their *order*: creator-major,
    interval ascending, insertion order within an interval — whatever the
    order (and however often) the notices were inserted."""
    t = NoticeTable(n)
    model = []  # first insertion of each (creator, interval, page)
    for c, i, p in entries:
        notice = WriteNotice(
            c, i, PageId(0, p), VClock.zero(n).with_component(c, i)
        )
        new = notice not in model
        assert t.add(notice) is new
        if new:
            model.append(notice)

    def ordered(keep):
        # sorted() is stable: insertion order survives within an interval
        return sorted(filter(keep, model), key=lambda m: (m.creator, m.interval))

    pad = [0] * (n - 6)
    low, high = VClock(lo + pad), VClock(hi + pad)
    assert t.between(low, high) == ordered(
        lambda m: low[m.creator] < m.interval <= high[m.creator]
    )
    assert t.own_after(who, keep_from) == ordered(
        lambda m: m.creator == who and m.interval > keep_from
    )
    assert t.all_notices() == ordered(lambda m: True)

    dropped = t.trim_creator_before(who, keep_from)
    kept = ordered(lambda m: m.creator != who or m.interval >= keep_from)
    assert dropped == len(model) - len(kept)
    assert t.all_notices() == kept
    assert t.count() == len(kept)
    assert t.own_after(who, 0) == [m for m in kept if m.creator == who]
    # a trimmed notice is forgotten, a kept one still deduplicates
    for m in model:
        assert t.add(m) is (m not in kept)
