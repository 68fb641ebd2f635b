"""Meta-cluster benchmark: the paper's §1 motivation, quantified.

"For very large clusters and meta-clusters, coordinated checkpointing is
much less practical because of the increasing cost of global
coordination." We sweep the WAN latency of a 2×4 meta-cluster and
measure (a) the commit latency of a coordinated checkpoint round and
(b) the execution-time overhead of both schemes, plus the recovery cost
asymmetry (single-victim replay vs global rollback).
"""

from conftest import emit

from repro import DsmCluster, DsmConfig
from repro.apps.water_spatial import WaterSpatialApp, WaterSpatialConfig
from repro.baselines import CoordinatedCluster
from repro.core import LogOverflowPolicy
from repro.harness.experiment import HARNESS_DISK
from repro.render import Table
from repro.sim.network import MetaClusterConfig, NetworkConfig


def app():
    return WaterSpatialApp(
        WaterSpatialConfig(n_molecules=216, steps=5, pair_cost=20e-6)
    )


def _net(wan):
    if wan == 0:
        return NetworkConfig()
    return MetaClusterConfig(cluster_size=4, wan_latency=wan, wan_bandwidth=50e6)


def _independent(wan):
    return DsmCluster(
        DsmConfig(num_procs=8),
        net_config=_net(wan),
        disk_config=HARNESS_DISK,
        ft=True,
        policy_factory=lambda pid, fp: LogOverflowPolicy(0.08, fp),
    )


def _coordinated(wan):
    return CoordinatedCluster(
        DsmConfig(num_procs=8),
        l_fraction=0.08,
        net_config=_net(wan),
        disk_config=HARNESS_DISK,
    )


WANS = [0, 1e-3, 5e-3, 20e-3]


def test_coordination_cost_vs_wan_latency(results_dir, benchmark):
    rows = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    t = Table(
        "Meta-cluster sweep: independent vs coordinated checkpointing "
        "(water-spatial, 2 clusters x 4 nodes)",
        [
            "WAN latency",
            "indep ckpts",
            "indep time (s)",
            "coord rounds",
            "coord round latency (s)",
            "coord time (s)",
        ],
        note="The coordinated round latency tracks the WAN latency (the "
        "paper's argument against global coordination on meta-clusters); "
        "the independent scheme has no coordination round at all.",
    )
    for r in rows:
        t.add(*r)
    emit(results_dir, "metacluster_sweep", t.render())
    # the motivating claim, asserted
    lat_by_wan = {r[0]: r[4] for r in rows}
    assert lat_by_wan["20.0 ms"] > lat_by_wan["LAN"]


def _run_sweep():
    rows = []
    for wan in WANS:
        ind = _independent(wan)
        r_ind = ind.run(app())
        ind_ck = sum(s.checkpoints_taken for s in r_ind.ft_stats)
        co = _coordinated(wan)
        r_co = co.run(app())
        ft0 = co.hosts[0].ft
        lat = min(ft0.coord.round_latencies) if ft0.coord.round_latencies else 0.0
        rows.append(
            (
                "LAN" if wan == 0 else f"{wan * 1e3:.1f} ms",
                ind_ck,
                f"{r_ind.wall_time:.3f}",
                ft0.coord.rounds_committed,
                f"{lat:.4f}",
                f"{r_co.wall_time:.3f}",
            )
        )
    return rows


def test_recovery_asymmetry(results_dir, benchmark):
    """Independent: one victim replays. Coordinated: everyone rolls back."""

    def run():
        ind = _independent(0)
        T = ind.run(app()).wall_time
        ind2 = _independent(0)
        ind2.schedule_crash(3, at_time=T * 0.6)
        t_ind = ind2.run(app()).wall_time

        co = _coordinated(0)
        Tc = co.run(app()).wall_time
        co2 = _coordinated(0)
        co2.schedule_crash(3, at_time=Tc * 0.6)
        t_co = co2.run(app()).wall_time
        return T, t_ind, Tc, t_co, co2

    T, t_ind, Tc, t_co, co2 = benchmark.pedantic(run, rounds=1, iterations=1)
    t = Table(
        "Recovery asymmetry (water-spatial, crash at 60%)",
        ["Scheme", "Failure-free (s)", "With crash (s)", "Stretch (s)",
         "Nodes restarted"],
    )
    t.add("independent (paper)", f"{T:.3f}", f"{t_ind:.3f}", f"{t_ind - T:.3f}", 1)
    t.add(
        "coordinated rollback",
        f"{Tc:.3f}",
        f"{t_co:.3f}",
        f"{t_co - Tc:.3f}",
        sum(h.recovered_count for h in co2.hosts),
    )
    emit(results_dir, "recovery_asymmetry", t.render())
    assert sum(h.recovered_count for h in co2.hosts) == 8
