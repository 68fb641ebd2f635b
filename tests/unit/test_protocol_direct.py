"""Direct unit tests of the protocol engine (no cluster/app layers).

A minimal harness wires ``DsmProcess`` instances to an engine+network and
drives hand-written coroutines, pinning down handler-level behaviour that
the integration tests only exercise indirectly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.config import DsmConfig
from repro.dsm.diff import Diff
from repro.dsm.messages import (
    BarrierRelease, DiffMsg, LockForward, LockGrant, PageFetchReply,
    WriteNotice,
)
from repro.dsm.pages import PageId, PageState, RegionSet
from repro.dsm.protocol import DsmProcess, FtHooks
from repro.dsm.vclock import VClock
from repro.faultinject.mutants import MUTANTS
from repro.sim.engine import Engine, Future
from repro.sim.network import Network


class Harness:
    def __init__(self, n=2, elements=64, page_size=64):
        self.config = DsmConfig(num_procs=n, page_size=page_size)
        self.engine = Engine()
        self.network = Network(self.engine, n)
        self.regions = RegionSet(self.config)
        self.region = self.regions.allocate("r", elements)
        self.regions.seal()
        self.procs = [
            DsmProcess(
                pid=i,
                config=self.config,
                regions=self.regions,
                engine=self.engine,
                send_fn=self.network.send,
            )
            for i in range(n)
        ]
        for p in self.procs:
            self.network.register(p.pid, p.handle_message)

    def run(self, *gens):
        handles = [self.engine.spawn(g) for g in gens]
        self.engine.run()  # the handles, then in-flight deliveries
        assert all(h.done for h in handles)
        return handles


def test_write_flush_propagates_to_home():
    h = Harness(n=2, elements=64, page_size=64)  # 8 pages, homes alternate
    p0, p1 = h.procs
    # page 1 is homed at p1; p0 writes it and flushes via a release
    def writer():
        yield from p0.acquire(0)
        v = yield from p0.write_range(h.region, 8, 10)  # elements 8,9 -> page 1
        v[:] = [3.0, 4.0]
        yield from p0.release(0)

    h.run(writer())
    home_view = p1.typed_view(h.region)
    assert home_view[8] == 3.0 and home_view[9] == 4.0
    # the flush interval (acquire bump + flush bump = 2) is recorded
    assert p1.home[PageId(0, 1)].version[0] == 2


def test_fetch_waits_for_required_version():
    """A fetch demanding a version the home lacks must block until the
    diff arrives, then return fresh content."""
    h = Harness(n=2, elements=8, page_size=64)  # single page, home p0
    p0, p1 = h.procs
    page = PageId(0, 0)
    seen = []

    def reader():
        entry = p1.entries[page]
        entry.state = PageState.INVALID
        entry.needed_v = VClock((5, 0))  # p0's interval 5
        v = yield from p1.read_range(h.region, 0, 1)
        seen.append(float(v[0]))

    def late_writer():
        yield from p0.compute(1e-3)  # let the fetch arrive and block
        yield from p0.acquire(0)
        v = yield from p0.write_range(h.region, 0, 1)
        v[0] = 42.0
        yield from p0.release(0)
        # interval is far below 5; bump the version artificially to
        # release the pending fetch
        hp = p0.home[page]
        hp.advance(0, 5)
        hp.service_pending()

    h.run(reader(), late_writer())
    assert seen == [42.0]


def test_home_waits_for_an_in_flight_diff_of_its_own_page():
    """A notice that names a diff to the home's own page before the diff
    arrives: the home's access waits for it, then reads the diffed bytes.
    With equal latency on every link a diff reaches its home first, so
    only a hand-driven order gets here."""
    h = Harness(n=2, elements=8, page_size=64)  # single page, home p0
    p0, p1 = h.procs
    page = PageId(0, 0)
    seen = []

    def home_reader():
        p0.entries[page].needed_v = VClock((0, 3))  # p1's interval 3
        v = yield from p0.read_range(h.region, 0, 1)
        seen.append((float(v[0]), h.engine.now))

    def late_diff():
        yield from p1.compute(1e-3)
        d = Diff(((0, np.float64(7.0).tobytes()),))
        p0._handle_diff(1, DiffMsg(page=page, writer=1, diff=d, interval=3))

    h.run(home_reader(), late_diff())
    assert seen == [(7.0, pytest.approx(1e-3))]
    assert p0.entries[page].needed_v is None
    assert not p0._home_waiting  # the deadlock report names no stale wait


def test_a_forward_to_its_own_acquirer_completes_the_acquire_here():
    """A forward that reaches its own acquirer while the token rests
    there (a recovery placed it): the token never leaves, the waiting
    acquire completes with the forward's seq, and the self-grant is
    announced to the node keeping its twin, as a fast-path one is."""

    class Recording(FtHooks):
        def __init__(self):
            self.grants, self.own, self.mirrored = [], [], []

        def on_grant(self, lock_id, acquirer, acq_t, provisional):
            self.grants.append(lock_id)

        def on_self_grant(self, lock_id, acq_t):
            self.own.append(lock_id)

        def on_self_grant_mirror(self, grantor, lock_id, acq_t):
            self.mirrored.append((grantor, lock_id))

    h = Harness(n=2)
    p0, p1 = h.procs  # p0 manages lock 0
    p0.ft, p1.ft = Recording(), Recording()
    st = p1.locks.token(0)
    st.has_token, st.held = True, False
    fut = p1._lock_waiting[0] = Future("lock0 @1")
    p1._handle_forward(0, LockForward(lock_id=0, acquirer=1, acq_vt=p1.vt, seq=4))
    grant = fut.value
    assert (grant.grantor, grant.seq, grant.provisional) == (1, 4, False)
    assert st.has_token and st.granted == {1: 4}
    h.engine.run()
    assert p1.ft.grants == [] and p1.ft.own == [0]
    assert p0.ft.mirrored == [(1, 0)]


def test_a_queued_grant_for_the_last_replayed_acquire_is_the_token():
    """A grant for an acquire replay already completed is a duplicate,
    except the one that queued while this host was down and answers its
    last replayed acquire, the token untouched since: a dead process
    cannot grant onward, so that grant is the token (DESIGN.md §9, root
    cause 1). No crash schedule found needs it any more; this test is
    what fails under ``queued_grant_not_the_token``."""
    def accepted(seq):
        p1 = Harness(n=2).procs[1]  # lock 0 is managed at p0
        p1._completed_seq[0] = 3
        p1._handle_grant(0, LockGrant(
            lock_id=0, grantor=0, rel_vt=VClock.zero(2), seq=seq,
        ))
        return p1.locks.token(0).has_token

    assert accepted(3) and not accepted(2)
    with MUTANTS["queued_grant_not_the_token"]():
        assert not accepted(3)


def test_a_release_that_lands_before_the_barrier_call_completes_it():
    """A release that answers a pre-crash arrival can land before the
    re-executed barrier call: it is kept, and that call completes with it
    and sends no second arrival (DESIGN.md §9, the stash). No crash
    schedule found needs it any more; this test is what fails under
    ``release_not_stashed``."""
    def episode_after_barrier():
        h = Harness(n=2)
        p1 = h.procs[1]
        p1._handle_barrier_release(
            0, BarrierRelease(episode=0, global_vt=VClock.zero(2))
        )
        h.engine.spawn(p1.barrier())
        h.engine.run()
        return p1.barrier_episode

    assert episode_after_barrier() == 1
    with MUTANTS["release_not_stashed"]():
        assert episode_after_barrier() == 0  # its arrival waits for p0's


def test_home_dedupes_replayed_diffs():
    h = Harness(n=2, elements=8, page_size=64)
    p0, _p1 = h.procs
    page = PageId(0, 0)
    d = Diff(((0, np.float64(7.0).tobytes()),))
    msg = DiffMsg(page=page, writer=1, diff=d, interval=3)
    p0._handle_diff(1, msg)
    assert p0.typed_view(h.region)[0] == 7.0
    assert p0.home[page].version[1] == 3
    # overwrite locally, then replay the same-interval diff: ignored
    p0.typed_view(h.region)[0] = 9.0
    p0._handle_diff(1, msg)
    assert p0.typed_view(h.region)[0] == 9.0


def test_home_logged_diff_holds_only_the_homes_own_writes():
    """A home that is mid-interval on its own page patches the open twin
    with an incoming diff: the diff it logs at the flush must not claim
    the remote writer's bytes, or a replay re-applies them over newer
    data (docs/PROTOCOL.md, home-side diff rule)."""

    class LoggingHooks(FtHooks):
        def __init__(self):
            self.logged = []

        def home_wants_diffs(self):
            return True

        def on_interval_flush(self, page, diff, vt, is_home):
            self.logged.append(diff)
            return iter(())

    h = Harness(n=2, elements=8, page_size=64)  # single page, home p0
    p0, _p1 = h.procs
    p0.ft = hooks = LoggingHooks()
    page = PageId(0, 0)
    remote = Diff(((24, np.float64(7.0).tobytes()),))  # element 3

    def home_writer():
        yield from p0.acquire(0)
        v = yield from p0.write_range(h.region, 0, 1)
        v[0] = 1.0
        p0._handle_diff(
            1, DiffMsg(page=page, writer=1, diff=remote, interval=3)
        )
        yield from p0.release(0)

    h.run(home_writer())
    assert list(p0.typed_view(h.region)[[0, 3]]) == [1.0, 7.0]
    [logged] = hooks.logged
    assert logged.runs and all(
        off + len(data) <= 8 for off, data in logged.runs
    ), f"home logged bytes outside its own element 0: {logged.runs}"


def test_stale_fetch_reply_dropped():
    h = Harness(n=2)
    p1 = h.procs[1]
    reply = PageFetchReply(
        page=PageId(0, 0), data=b"\x00" * 64, version=VClock((0, 0))
    )
    # no pending fetch: must not crash nor corrupt anything
    p1.handle_message(0, reply)


def test_grant_carries_only_window_notices():
    """The grantor sends exactly the notices in (acq_vt, rel_vt]."""
    h = Harness(n=2, elements=64, page_size=64)
    p0, p1 = h.procs
    grants = []

    orig = p1._complete_acquire

    def spy(lock_id, grant, local):
        grants.append(grant)
        orig(lock_id, grant, local)

    p1._complete_acquire = spy

    def writer():
        for k in range(3):
            yield from p0.acquire(0)
            v = yield from p0.write_range(h.region, k, k + 1)
            v[0] = k + 1.0
            yield from p0.release(0)

    def acquirer():
        yield from p1.compute(5e-3)  # after all three writer intervals
        yield from p1.acquire(0)
        yield from p1.release(0)
        yield from p1.compute(1e-3)
        yield from p1.acquire(0)  # nothing new happened: no new notices
        yield from p1.release(0)

    h.run(writer(), acquirer())
    first, second = grants[0], grants[1]
    assert len(first.notices) >= 1  # all of p0's notices, unseen so far
    assert len(second.notices) == 0  # window is empty the second time


def test_self_grant_logged_at_manager():
    """Every local re-acquire is announced, with the very timestamp the
    acquirer logs, to the node that keeps its twin: the lock's manager —
    or, for the manager's own lock, its ring successor. The base protocol
    itself stores nothing."""
    h = Harness(n=2)
    p0, p1 = h.procs  # p0 manages lock 0, p1 lock 1

    class Recording(FtHooks):
        def __init__(self):
            self.own, self.mirrored = [], []

        def on_self_grant(self, lock_id, acq_t):
            self.own.append((lock_id, acq_t))

        def on_self_grant_mirror(self, grantor, lock_id, acq_t):
            self.mirrored.append((grantor, lock_id, acq_t))

    p0.ft, p1.ft = Recording(), Recording()

    def body():
        yield from p0.acquire(0)
        v = yield from p0.write_range(h.region, 0, 1)
        v[0] = 1.0
        yield from p0.release(0)
        yield from p0.acquire(0)  # fast path: self grant
        yield from p0.release(0)
        yield from p0.acquire(1)  # remote: p1 grants its resting token
        yield from p0.release(1)
        yield from p0.acquire(1)  # the token rests here now: self grant
        yield from p0.release(1)

    h.run(body())
    assert [lock for lock, _ in p0.ft.own] == [0, 0, 1]  # the local acquires
    assert p1.ft.mirrored == [(0, lock, t) for lock, t in p0.ft.own]
    assert p0.ft.mirrored == [] and p1.ft.own == []
    assert p0.locks.managed_locks() == []  # no manager state on the side
    assert not hasattr(p1.locks.manager(1), "self_grants")


def test_acquire_bumps_own_component():
    h = Harness(n=2)
    p1 = h.procs[1]
    before = []

    def body():
        before.append(p1.vt[1])
        yield from p1.acquire(0)
        before.append(p1.vt[1])
        yield from p1.release(0)

    h.run(body())
    assert before[1] == before[0] + 1


def test_notice_skipped_when_copy_fresh():
    h = Harness(n=2, elements=8, page_size=64)
    p1 = h.procs[1]
    page = PageId(0, 0)
    p1.entries[page].state = PageState.RO
    p1.have_v[page] = VClock((4, 0))
    wn = WriteNotice(0, 3, page, VClock((3, 0)))
    p1._apply_notices([wn])
    # the local copy already includes interval 3: stays valid
    assert p1.entries[page].state is PageState.RO
    wn2 = WriteNotice(0, 5, page, VClock((5, 0)))
    p1._apply_notices([wn2])
    assert p1.entries[page].state is PageState.INVALID
    assert p1.entries[page].needed_v[0] == 5


def _apply_one_by_one(proc, notices):
    """The per-notice path ``_apply_notices`` replaced, kept as its oracle:
    one table insert, one clock copy and one vector compare per notice."""
    applied = 0
    for wn in notices:
        if wn.creator == proc.pid or not proc.notices.add(wn):
            continue
        applied += 1
        entry = proc.entries[wn.page]
        base = entry.needed_v or VClock.zero(proc.n)
        if wn.interval <= base[wn.creator]:
            continue
        needed = base.with_component(wn.creator, wn.interval)
        if needed.leq(proc.have_v[wn.page]):
            continue
        entry.needed_v = needed
        if not proc.is_home(wn.page):
            entry.state = PageState.INVALID
    return applied


FOLD_PAGES = 4
#: few creators (1 is the process under test) so that duplicates, own
#: notices and several notices per (page, creator) are common
FOLD_CREATORS = (0, 1, 2, 3)


def _fold_harness(n, have, needed):
    h = Harness(n=n, elements=8 * FOLD_PAGES, page_size=64)
    proc = h.procs[1]
    pad = (0,) * (n - len(FOLD_CREATORS))
    for k in range(FOLD_PAGES):
        page = PageId(0, k)
        proc.entries[page].state = PageState.RO
        proc.have_v[page] = VClock(tuple(have[k]) + pad)
        if needed[k] is not None:
            proc.entries[page].needed_v = VClock(tuple(needed[k]) + pad)
    return proc


def _notice(n, creator, interval, page):
    stamp = VClock.zero(n).with_component(creator, interval)
    return WriteNotice(creator, interval, page, stamp)


def _fold_state(proc):
    return (
        {p: (e.needed_v, e.state) for p, e in proc.entries.items()},
        proc.notices.all_notices(),
    )


_clock = st.lists(st.integers(0, 6), min_size=4, max_size=4)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([4, 32]),  # tuple clocks and array clocks
    st.lists(_clock, min_size=FOLD_PAGES, max_size=FOLD_PAGES),
    st.lists(st.none() | _clock, min_size=FOLD_PAGES, max_size=FOLD_PAGES),
    st.lists(
        st.tuples(
            st.sampled_from(FOLD_CREATORS),
            st.integers(1, 8),
            st.integers(0, FOLD_PAGES - 1),
        ),
        max_size=30,
    ),
    st.integers(0, 30),
)
def test_batched_fold_matches_per_notice_reference(n, have, needed, raw, split):
    """Stale notices (interval <= have_v[c]) before and after a fresh one on
    the same page are the order-dependent case; page 1 is a home page."""
    batch = [_notice(n, c, i, PageId(0, k)) for c, i, k in raw]
    got, want = _fold_harness(n, have, needed), _fold_harness(n, have, needed)
    assert got.is_home(PageId(0, 1)) and not got.is_home(PageId(0, 0))
    for part in (batch[:split], batch[split:]):
        assert got._apply_notices(part) == _apply_one_by_one(want, part)
        assert _fold_state(got) == _fold_state(want)


@pytest.mark.parametrize("n", [4, 32])
def test_fold_outcome_depends_on_arrival_order(n):
    """A stale notice is skipped while the page is still covered by the
    local copy, and absorbed once a fresh one has uncovered it."""
    page = PageId(0, 0)
    stale, fresh = _notice(n, 0, 3, page), _notice(n, 2, 9, page)
    have = [(4, 0, 0, 0)] * FOLD_PAGES
    seen = []
    for batch in ([stale, fresh], [fresh, stale]):
        proc = _fold_harness(n, have, [None] * FOLD_PAGES)
        assert proc._apply_notices(batch) == 2
        seen.append(proc.entries[page].needed_v)
        assert proc.entries[page].state is PageState.INVALID
    assert seen[0] == VClock.zero(n).with_component(2, 9)
    assert seen[1] == seen[0].with_component(0, 3)


def test_dirty_page_invalidation_is_protocol_error():
    h = Harness(n=2, elements=8, page_size=64)
    p1 = h.procs[1]
    page = PageId(0, 0)
    entry = p1.entries[page]
    entry.state = PageState.RW
    entry.dirty = True
    # a stale notice first, so the guard is reached mid-fold
    p1.have_v[page] = VClock((4, 0))
    batch = [
        WriteNotice(0, 3, page, VClock((3, 0))),
        WriteNotice(0, 8, page, VClock((8, 0))),
        WriteNotice(0, 9, page, VClock((9, 0))),
    ]
    with pytest.raises(RuntimeError, match="dirty"):
        p1._apply_notices(batch)


def _step(gen, value, effects):
    """Resume ``gen`` with ``value``; record what it yields, or its return."""
    try:
        effects.append(gen.send(value))
    except StopIteration as stop:
        return stop.value
    return None


def test_one_read_pass_drains_debt_at_each_page():
    """p0 reads pages 0-3: a home page whose notice is already applied, an
    INVALID page homed at p1, a home page whose diff is still in flight,
    and a valid page. Debt owed on arrival at a page is drained there,
    before that page's fetch or wait, and not at the end of the range."""
    h = Harness(n=2, elements=32, page_size=64)  # 4 pages, homes alternate
    p0 = h.procs[0]
    pages = [PageId(0, i) for i in range(4)]
    p0.entries[pages[0]].needed_v = VClock((0, 0))
    p0.entries[pages[2]].needed_v = VClock((0, 3))
    p0.entries[pages[3]].state = PageState.RO
    cpu, effects = p0.cpu, []
    cpu.accrue_handler(1e-6)
    gen = p0.read_range(h.region, 0, 32)
    _step(gen, None, effects)
    _step(gen, None, effects)  # past the drain: the fetch of page 1 waits
    fetch = effects[-1]
    assert fetch is p0._fetch_waiting[pages[1]]
    assert p0.entries[pages[0]].needed_v is None  # satisfied, cleared inline
    cpu.accrue_handler(2e-6)
    data = np.full(64, 9, dtype=np.uint8).tobytes()
    reply = PageFetchReply(page=pages[1], data=data, version=VClock((0, 0)))
    _step(gen, reply, effects)  # the copy-in charge
    _step(gen, None, effects)
    _step(gen, None, effects)  # past the drain: the home waits for the diff
    home_wait = effects[-1]
    assert home_wait is p0._home_waiting[pages[2]]
    cpu.accrue_handler(4e-6)
    _step(gen, None, effects)
    view = _step(gen, None, effects)
    copy_in = 64 * cpu.costs.twin_create_per_byte
    assert effects == [1e-6, fetch, copy_in, 2e-6, home_wait, 4e-6]
    assert len(view) == 32 and view[8] == np.frombuffer(data, np.float64)[0]
    assert p0.entries[pages[2]].needed_v is None
    assert cpu.handler_debt == 0.0


def test_one_write_pass_twins_only_clean_pages_and_drains_at_dirty_ones():
    """A dirty page in a write range still drains the debt owed on arrival
    there; only the clean page is twinned. Skipping dirty pages would
    carry page 1's debt over to page 2."""
    h = Harness(n=3, elements=24, page_size=64)  # pages 1, 2 homed at p1, p2
    p0 = h.procs[0]
    one, two = PageId(0, 1), PageId(0, 2)
    for page in (one, two):
        p0.entries[page].state = PageState.RO
    h.run(p0.write_range(h.region, 8, 16))  # page 1 dirty from here on
    twin_one = p0.entries[one].twin
    assert twin_one is not None and p0.entries[two].twin is None
    cpu, effects = p0.cpu, []
    cpu.accrue_handler(1e-6)
    gen = p0.write_range(h.region, 8, 24)
    _step(gen, None, effects)  # page 1's drain
    cpu.accrue_handler(2e-6)
    _step(gen, None, effects)  # page 2's drain
    _step(gen, None, effects)  # page 2's twin
    twin_cost = cpu.costs.page_fault_handler + 64 * cpu.costs.twin_create_per_byte
    assert effects == [1e-6, 2e-6, twin_cost]
    assert _step(gen, None, effects) is not None
    assert p0.entries[one].twin is twin_one
    assert p0.entries[two].twin is not None
    assert p0._dirty == [one, two]
