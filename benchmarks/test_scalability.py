"""Scalability sweep: the paper's headline claim.

"the fault tolerance support itself must be both light-weight and
scalable" (§1) — independent checkpointing needs no global coordination,
so its overhead should stay roughly flat as the cluster grows. We sweep
cluster sizes and compare the FT execution-time overhead and the
piggyback traffic share.

The same claim about the simulator itself: events per host second must
not collapse as the cluster widens (:func:`test_event_rate_stays_flat`).
"""

import gc
import time
import tracemalloc

from conftest import emit

from repro import DsmCluster, DsmConfig
from repro.apps.counter import CounterApp, CounterConfig
from repro.apps.kvstore import KvStoreApp, KvStoreConfig
from repro.apps.water_spatial import WaterSpatialApp, WaterSpatialConfig
from repro.core import LogOverflowPolicy
from repro.harness.experiment import HARNESS_DISK
from repro.render import Table, format_pct

SIZES = [2, 4, 8, 16]


def app():
    return WaterSpatialApp(
        WaterSpatialConfig(
            n_molecules=343, steps=5, cell_capacity=96, pair_cost=40e-6
        )
    )


def run(n, ft):
    cluster = DsmCluster(
        DsmConfig(num_procs=n),
        disk_config=HARNESS_DISK,
        ft=ft,
        policy_factory=lambda pid, fp: LogOverflowPolicy(0.1, fp),
    )
    return cluster, cluster.run(app())


def test_ft_overhead_scales_flat(results_dir, benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    t = Table(
        "Scalability: FT overhead vs cluster size (water-spatial)",
        [
            "Nodes",
            "Base time (s)",
            "FT time (s)",
            "FT overhead",
            "Ckpts/node",
            "Piggyback share",
            "Wmax",
        ],
        note="No global coordination: the overhead does not blow up with "
        "the node count (the piggyback share grows mildly because vector "
        "timestamps are O(n)).",
    )
    overheads = {}
    for n, base_t, ft_t, cks, pb, wmax in rows:
        ov = 100 * (ft_t - base_t) / base_t
        overheads[n] = ov
        t.add(n, f"{base_t:.3f}", f"{ft_t:.3f}", format_pct(max(ov, 0)),
              cks, format_pct(pb), wmax)
    emit(results_dir, "scalability", t.render())
    # flat-ish: overhead at 16 nodes stays within a small factor of the
    # overhead at 4 (and absolutely small)
    assert overheads[16] < max(4 * max(overheads[4], 1.0), 15.0), overheads
    assert overheads[16] < 20.0


def _sweep():
    rows = []
    for n in SIZES:
        _, r_base = run(n, ft=False)
        c_ft, r_ft = run(n, ft=True)
        cks = [s.checkpoints_taken for s in r_ft.ft_stats]
        wmax = max(h.ckpt_mgr.max_window for h in c_ft.hosts)
        rows.append(
            (
                n,
                r_base.wall_time,
                r_ft.wall_time,
                f"{min(cks)}-{max(cks)}",
                r_ft.traffic.ft_overhead_percent(),
                wmax,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# simulator event rate vs node count
# ---------------------------------------------------------------------------
NODE_COUNTS = [8, 64, 128, 256]

#: weak scaling: per-process work stays constant as N grows
SCALE_APPS = {
    "counter": lambda n: CounterApp(CounterConfig(steps=3, n_elements=16 * n)),
    "kvstore": lambda n: KvStoreApp(
        KvStoreConfig(
            steps=2, n_keys=8 * n, n_stripes=min(n, 64), puts_per_step=4
        )
    ),
}


def _timed_run(app, n, ft, l_fraction=0.2, reps=3):
    """(events per host second, best host seconds, run result) of ``reps``
    runs: the N = 8 runs last under 20 ms, so a single one is mostly noise."""
    best = float("inf")
    for _ in range(reps):
        cluster = DsmCluster(
            DsmConfig(num_procs=n),
            ft=ft,
            policy_factory=lambda pid, fp: LogOverflowPolicy(l_fraction, fp),
        )
        application = SCALE_APPS[app](n)
        # whatever earlier code left to the collector is collected now,
        # not billed to whichever run crosses the threshold
        gc.collect()
        t0 = time.perf_counter()
        result = cluster.run(application)
        best = min(best, time.perf_counter() - t0)
    return cluster.engine.steps / best, best, result


def _event_rate_curve():
    return {
        (app, n): (_timed_run(app, n, ft=False), _timed_run(app, n, ft=True))
        for app in SCALE_APPS
        for n in NODE_COUNTS
    }


def test_event_rate_stays_flat(results_dir, benchmark):
    curve = benchmark.pedantic(_event_rate_curve, rounds=1, iterations=1)
    t = Table(
        "Simulator event rate vs cluster size (weak-scaled, best of 3)",
        ["App", "Nodes", "Base ev/s", "FT ev/s", "FT vs N=8",
         "Base vt (ms)", "FT vt (ms)", "FT overhead"],
        note="A same-run ratio, so no baseline file: counter FT at N=256 "
        "must keep 0.75 of its N=8 rate (0.87-0.98 with the flat "
        "NoticeTable, 0.46 with PR 11's O(N^2) notice path). kvstore FT is "
        "reported, not gated: all-to-all notice volume holds it near 0.6 "
        "(0.19 at PR 11; ROADMAP 4d's open target).",
    )
    flat = {}
    for (app, n), ((base_rate, _, base), (ft_rate, _, ft)) in curve.items():
        base_vt, ft_vt = base.wall_time, ft.wall_time
        flat[app, n] = ft_rate / curve[app, NODE_COUNTS[0]][1][0]
        t.add(app, n, f"{base_rate:,.0f}", f"{ft_rate:,.0f}",
              f"{flat[app, n]:.2f}", f"{base_vt * 1e3:.3f}",
              f"{ft_vt * 1e3:.3f}", f"{ft_vt / base_vt:.2f}x")
    emit(results_dir, "scale_curve", t.render())
    assert flat["counter", 256] >= 0.75, flat


# ---------------------------------------------------------------------------
# the same curve with the FT layer doing its work, and what a node weighs
# ---------------------------------------------------------------------------
#: small enough that every node of the counter curve checkpoints (3-6
#: times; at the curve's own L = 0.2 none does from N = 64 up)
CKPT_L = 0.002


def _checkpointing_curve():
    return {
        n: _timed_run("counter", n, ft=True, l_fraction=CKPT_L,
                      reps=3 if n < 256 else 1)
        for n in NODE_COUNTS
    }


def test_checkpointing_event_rate_holds(results_dir, benchmark):
    curve = benchmark.pedantic(_checkpointing_curve, rounds=1, iterations=1)
    t = Table(
        f"Simulator event rate with checkpoints firing (counter, L = {CKPT_L})",
        ["Nodes", "Events", "Host (s)", "FT ev/s", "FT vs N=8", "FT vt (ms)",
         "Ckpts/node"],
        note="A same-run ratio, so no baseline file: FT events/s at N=128 "
        "must keep 0.45 of the N=8 rate, midway between 0.58 with trim "
        "bounds derived per LLT/CGC pass and 0.31 with PR 6's per-node "
        "(N, N) mirror, whose column recompute in learn_tckp took 78 % of "
        "the N=256 run. N=256 (one run of 8 s; 0.28-0.42 against 0.07) "
        "is reported, not gated: piggyback_for's per-destination row delta "
        "is the next width cost.",
    )
    rate8 = curve[NODE_COUNTS[0]][0]
    keeps = {n: rate / rate8 for n, (rate, _, _) in curve.items()}
    for n, (rate, host_s, result) in curve.items():
        cks = [s.checkpoints_taken for s in result.ft_stats]
        assert min(cks) > 0, (n, cks)  # or this is the L = 0.2 curve again
        t.add(n, f"{rate * host_s:,.0f}", f"{host_s:.3f}", f"{rate:,.0f}",
              f"{keeps[n]:.2f}", f"{result.wall_time * 1e3:.3f}",
              f"{min(cks)}-{max(cks)}")
    emit(results_dir, "scale_curve_ckpt", t.render())
    assert keeps[128] >= 0.45, keeps


def _built_ft_bytes(n):
    """``tracemalloc`` bytes held by an FT cluster built and set up for the
    curve's counter app, before its first event."""
    gc.collect()
    tracemalloc.start()
    try:
        cluster = DsmCluster(DsmConfig(num_procs=n), ft=True)
        cluster.setup(SCALE_APPS["counter"](n))
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def _finished_ft_bytes(n):
    """``tracemalloc`` bytes a finished counter FT run of the event-rate
    curve still holds: the cluster after its run, with every log,
    checkpoint and notice table it kept."""
    gc.collect()
    tracemalloc.start()
    try:
        cluster = DsmCluster(
            DsmConfig(num_procs=n), ft=True,
            policy_factory=lambda pid, fp: LogOverflowPolicy(0.2, fp),
        )
        cluster.run(SCALE_APPS["counter"](n))
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


#: what a finished 256-node counter FT run may hold (33.5 MB measured;
#: 52.1 MB while every process kept an empty list per peer)
HELD_256_MB = 40


def test_per_node_footprint_stays_linear(results_dir, benchmark):
    built, held = benchmark.pedantic(
        lambda: (
            {n: _built_ft_bytes(n) for n in NODE_COUNTS[1:]},
            {n: _finished_ft_bytes(n) for n in NODE_COUNTS[1:]},
        ),
        rounds=1, iterations=1,
    )
    t = Table(
        "Built FT cluster, traced heap vs cluster size (counter, weak-scaled)",
        ["Nodes", "Cluster MB", "KB per node", "Per node vs N=64",
         "Run MB held"],
        note="A same-run ratio, so no baseline file: a node of a 256-node "
        "cluster may weigh 3.0x a node of a 64-node one (2.5x measured; "
        "4x is linear, every node holding O(N) clocks; 3.0-3.2x while "
        "every grant log and notice table held an empty list per peer; "
        "8.7-9.1x when each TrimmingInfo mirrored T̂ckp in an (N, N) "
        "matrix). Run MB held: what the finished counter FT run of the "
        f"event-rate curve still holds, at most {HELD_256_MB} MB at N=256.",
    )
    per_node = {n: b / n for n, b in built.items()}
    for n, b in built.items():
        t.add(n, f"{b / 2**20:.1f}", f"{per_node[n] / 1024:.1f}",
              f"{per_node[n] / per_node[64]:.1f}x", f"{held[n] / 2**20:.1f}")
    emit(results_dir, "ft_footprint", t.render())
    assert per_node[256] <= 3.0 * per_node[64], per_node
    assert held[256] <= HELD_256_MB * 2**20, held
