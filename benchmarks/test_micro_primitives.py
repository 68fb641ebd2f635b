"""Microbenchmarks for the hot primitives (pytest-benchmark proper)."""

import numpy as np

from repro.dsm.diff import apply_diff, compute_diff
from repro.dsm.interval import NoticeTable
from repro.dsm.messages import WriteNotice
from repro.dsm.pages import PageId
from repro.dsm.vclock import VClock
from repro.sim.engine import Engine, Future

PAGE = 4096


def _page_pair(change_fraction=0.1, seed=0):
    rng = np.random.default_rng(seed)
    twin = rng.integers(0, 256, PAGE, dtype=np.uint8)
    cur = twin.copy()
    n = int(PAGE * change_fraction)
    idx = rng.choice(PAGE, n, replace=False)
    cur[idx] = cur[idx] + 1  # uint8 wraps around naturally
    return twin, cur


def test_bench_compute_diff_sparse(benchmark):
    twin, cur = _page_pair(0.02)
    d = benchmark(compute_diff, twin, cur)
    assert not d.empty


def test_bench_compute_diff_dense(benchmark):
    twin, cur = _page_pair(0.5)
    d = benchmark(compute_diff, twin, cur)
    assert d.payload_bytes > 1000


def test_bench_compute_diff_many_runs(benchmark):
    """What Barnes' tree pages look like: the low bytes of every other
    float64 rewritten, 200 three-byte runs on one page."""
    twin, _ = _page_pair()
    cur = twin.copy()
    cur.reshape(-1, 8)[0:400:2, :3] += 1
    d = benchmark(compute_diff, twin, cur)
    assert len(d.offsets) == 200 and d.payload_bytes == 600


def test_bench_compute_diff_identical(benchmark):
    twin, _ = _page_pair()
    d = benchmark(compute_diff, twin, twin.copy())
    assert d.empty


def test_bench_apply_diff(benchmark):
    twin, cur = _page_pair(0.1)
    d = compute_diff(twin, cur)
    target = twin.copy()

    def run():
        apply_diff(target, d)

    benchmark(run)


def test_bench_engine_timers(benchmark):
    """Heap-path dispatch: eight coroutines sleeping on distinct delays."""

    def ticker(k, dt):
        for _ in range(k):
            yield dt

    def run():
        eng = Engine()
        for i in range(8):
            eng.spawn(ticker(2_500, 1e-6 * (i + 1)), name=f"t{i}")
        eng.run()
        return eng.steps

    assert benchmark(run) >= 20_000


def test_bench_engine_ready_queue(benchmark):
    """Immediate-continuation churn: resolved futures never advance
    virtual time, so no event here needs the time heap — the path the
    ready queue accelerates."""

    def churner(k):
        for _ in range(k):
            fut = Future()
            fut.resolve(1)
            yield fut

    def run():
        eng = Engine()
        for i in range(4):
            eng.spawn(churner(5_000), name=f"c{i}")
        eng.run()
        return eng.steps

    assert benchmark(run) >= 20_000


def test_bench_vclock_join(benchmark):
    a = VClock(range(8))
    b = VClock(range(8, 0, -1))
    out = benchmark(lambda: a.join(b).leq(a))
    assert out is False


#: the width of the ledger's ``scale128`` clocks (array-backed)
WIDE = 128


def test_bench_wide_vclock_join(benchmark):
    """Two overlapping wide clocks: neither dominates, so the join is a
    new clock."""
    a = VClock(range(WIDE))
    b = VClock(range(WIDE, 0, -1))
    out = benchmark(a.join, b)
    assert out is not a and out is not b and out.v == tuple(map(max, a, b))


def test_bench_wide_vclock_leq(benchmark):
    a = VClock(range(WIDE))
    b = a.bump(WIDE - 1)
    assert benchmark(a.leq, b) is True


def test_bench_wide_vclock_with_components(benchmark):
    a = VClock(range(WIDE))
    updates = {c: 1000 + c for c in range(0, 120, 6)}
    out = benchmark(a.with_components, updates)
    assert len(updates) == 20 and out[0] == 1000 and out[1] == 1


def test_bench_wide_barrier_release_notices(benchmark):
    """One barrier release at N = 128 applied by process 1: two notices
    from each of the 127 other creators (intervals 1 and 2) over 64 pages,
    so each page folds about four creators into one new ``needed_v``."""
    from repro.dsm.config import DsmConfig
    from repro.dsm.pages import RegionSet
    from repro.dsm.protocol import DsmProcess

    config = DsmConfig(num_procs=WIDE, page_size=64)
    regions = RegionSet(config)
    regions.allocate("r", 64 * 8)
    regions.seal()
    zero = VClock.zero(WIDE)
    notices = [
        WriteNotice(c, i, PageId(0, (c + 32 * (i - 1)) % 64), zero.with_component(c, i))
        for c in range(WIDE)
        if c != 1
        for i in (1, 2)
    ]

    def setup():
        proc = DsmProcess(1, config, regions, Engine(), lambda *a: None)
        return (proc,), {}

    applied = benchmark.pedantic(
        lambda proc: proc._apply_notices(notices), setup=setup, rounds=50
    )
    assert applied == len(notices) == 254


def test_bench_notice_table_add(benchmark):
    """A barrier release's worth of notices: 8 creators x 100 intervals in
    arrival order (appends), then the same list again (all duplicates)."""
    notices = [
        WriteNotice(c, i, PageId(0, i % 16), VClock.zero(8).with_component(c, i))
        for c in range(8)
        for i in range(1, 101)
    ]

    def run():
        t = NoticeTable(8)
        return sum(map(t.add, notices)), sum(map(t.add, notices))

    assert benchmark(run) == (800, 0)


def test_bench_notice_table_between(benchmark):
    t = NoticeTable(8)
    for c in range(8):
        for i in range(1, 101):
            vt = VClock.zero(8).with_component(c, i)
            t.add(WriteNotice(c, i, PageId(0, i % 16), vt))
    low = VClock((20,) * 8)
    high = VClock((80,) * 8)
    out = benchmark(t.between, low, high)
    assert len(out) == 8 * 60


def test_bench_monitor_quiescent_scan(benchmark):
    """One periodic structural scan of the invariant monitor on a settled
    8-node barnes cluster: nothing changed since the last scan, so it
    costs one signature test per home and per rel/acq pair (a full scan
    of the same cluster walks every page chain against every peer)."""
    from repro import DsmCluster, DsmConfig
    from repro.apps.barnes import BarnesApp, BarnesConfig
    from repro.core import LogOverflowPolicy
    from repro.observe import InvariantMonitor

    cluster = DsmCluster(
        DsmConfig(num_procs=8), ft=True,
        policy_factory=lambda pid, fp: LogOverflowPolicy(0.2, fp),
    )
    monitor = InvariantMonitor(cluster)
    cluster.run(BarnesApp(BarnesConfig(n_bodies=128, steps=2)))
    scan = monitor.checkers["recoverability"].scan
    scan(full=True, final=False)
    before = monitor.checks["recoverability"]
    benchmark(scan, full=False, final=False)
    assert monitor.checks["recoverability"] > before
    assert not monitor.finish()


def _observed_cluster():
    """An 8-node replicated FT cluster after a small run, its observer
    attached with both cadences off: the benchmarks take the samples."""
    from repro import DsmCluster, DsmConfig
    from repro.apps.counter import CounterApp, CounterConfig
    from repro.core import FtConfig, LogOverflowPolicy
    from repro.observe import ClusterObserver

    cluster = DsmCluster(
        DsmConfig(num_procs=8), ft=True, ft_config=FtConfig(replicate=True),
        policy_factory=lambda pid, fp: LogOverflowPolicy(0.1, fp),
    )
    observer = ClusterObserver(
        cluster, interval=None, sample_on_barrier=False, window_s=1e-3
    )
    cluster.run(CounterApp(CounterConfig(steps=3, n_elements=512)))
    return observer


def test_bench_registry_sample(benchmark):
    """1,000 samples of 8 hosts' gauges (15 each), the cluster's 6 and the
    trim counters: what the ticker costs a serving run."""
    registry = _observed_cluster().registry

    def run():
        start = registry.samples_taken
        for i in range(start, start + 1000):
            registry.sample(i * 1e-3)

    benchmark.pedantic(run, rounds=5, iterations=1)
    # five rounds when timed, one under --benchmark-disable
    taken = registry.samples_taken
    assert taken in (1000, 5000)
    assert len(registry.get_series("ft.ckpts_retained", 7)) == taken


def test_bench_windowed_observe(benchmark):
    """20 k seeded latencies filed over 600 one-millisecond windows of the
    registry's table."""
    import random

    from repro.observe import MetricsRegistry

    rng = random.Random(42)
    values = [rng.expovariate(1.0 / 3e-4) for _ in range(20_000)]
    now = [0.0]

    def run():
        registry = MetricsRegistry(lambda: now[0], 1e-3)
        lat = registry.latency("lat.request", 0)
        for i, v in enumerate(values):
            now[0] = i * 3e-5
            lat.observe(v)
        return registry

    registry = benchmark.pedantic(run, rounds=5, iterations=1)
    table = registry.windows("lat.request")
    assert registry.latency("lat.request", 0).count == 20_000
    assert len(table) == 600 and sum(h.count for h in table.values()) == 20_000


def test_bench_build_report_twice(benchmark):
    """The CLI's two ``build_report`` calls over 1,000 samples of that
    registry; a fresh registry per round, so each round pays for the
    first build and shows what the second one reuses."""
    from repro.observe import build_report

    def setup():
        observer = _observed_cluster()
        for i in range(1000):
            observer.registry.sample(i * 1e-3)
        return (observer.registry,), {}

    def run(registry):
        first = build_report(registry, {"app": "counter"})
        return first, build_report(registry, {"app": "counter"})

    first, second = benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    assert second == first
    assert len(first["series"]) > 8 * 15 and first["wlats"]
    assert all(len(rec["points"]) == 1000 for rec in first["series"]
               if rec["metric"] == "ft.ckpts_retained")
