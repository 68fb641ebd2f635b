"""Scalability sweep: the paper's headline claim.

"the fault tolerance support itself must be both light-weight and
scalable" (§1) — independent checkpointing needs no global coordination,
so its overhead should stay roughly flat as the cluster grows. We sweep
cluster sizes and compare the FT execution-time overhead and the
piggyback traffic share.
"""

from conftest import emit

from repro import DsmCluster, DsmConfig
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
