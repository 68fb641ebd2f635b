"""Standard experiment setups mirroring §5 of the paper.

The paper runs three SPLASH-2 applications on an 8-node Myrinet cluster
with the log-overflow (OF) checkpointing policy — L = 1.0 for Barnes
(largest log volume per byte of footprint) and L = 0.1 for the Water
apps. We keep the same cluster size and L values and scale the problem
sizes so that each experiment runs in seconds of host time; the paper's
reported values are bundled for side-by-side comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro import DsmCluster, DsmConfig
from repro.apps.barnes import BarnesApp, BarnesConfig
from repro.apps.water_nsq import WaterNsqApp, WaterNsqConfig
from repro.apps.water_spatial import WaterSpatialApp, WaterSpatialConfig
from repro.cluster import RunResult
from repro.core import FtConfig, LogOverflowPolicy
from repro.sim.storage import DiskConfig

__all__ = [
    "PAPER",
    "AppSetup",
    "ExperimentResult",
    "paper_setups",
    "run_base",
    "run_ft",
]

NUM_PROCS = 8  # the paper's cluster size

#: Disk model for the harness. The scaled problems run for virtual
#: seconds rather than the paper's thousands of seconds, so fixed seek
#: costs are scaled down proportionally to keep the checkpoint-cost to
#: runtime ratio in the paper's regime (see EXPERIMENTS.md, calibration).
HARNESS_DISK = DiskConfig(seek_time=2e-3, write_bandwidth=30e6, read_bandwidth=40e6)


@dataclass(frozen=True)
class PaperValues:
    """The values reported in the paper, for comparison columns."""

    problem_size: str
    footprint_mb: float
    base_time_s: float
    ckpts_taken: str
    exe_increase_pct: float
    log_disk_overhead_pct: float
    cgc_traffic_overhead_pct: float
    wmax: int
    pct_logs_discarded: float


#: Table 1-4 values from the paper, keyed by app name.
PAPER: Dict[str, PaperValues] = {
    "barnes": PaperValues(
        problem_size="256 k bodies, 60 steps",
        footprint_mb=43.0,
        base_time_s=1663.0,
        ckpts_taken="6-10",
        exe_increase_pct=61.0,
        log_disk_overhead_pct=6.8,
        cgc_traffic_overhead_pct=0.15,
        wmax=3,
        pct_logs_discarded=76.0,
    ),
    "water-nsq": PaperValues(
        problem_size="19,683 molecules",
        footprint_mb=12.6,
        base_time_s=1634.0,
        ckpts_taken="9",
        exe_increase_pct=0.6,
        log_disk_overhead_pct=0.4,
        cgc_traffic_overhead_pct=0.2,
        wmax=3,
        pct_logs_discarded=80.0,
    ),
    "water-spatial": PaperValues(
        problem_size="256 k molecules",
        footprint_mb=257.3,
        base_time_s=2569.0,
        ckpts_taken="5",
        exe_increase_pct=7.0,
        log_disk_overhead_pct=3.6,
        cgc_traffic_overhead_pct=0.25,
        wmax=3,
        pct_logs_discarded=58.0,
    ),
}


@dataclass
class AppSetup:
    """One benchmarkable application configuration."""

    name: str
    make_app: Callable[[], Any]
    l_fraction: float
    problem_size: str


def paper_setups(scale: str = "default") -> List[AppSetup]:
    """The three paper workloads at the given scale.

    ``scale`` is ``"smoke"`` (fast; CI) or ``"default"`` (the benchmark
    harness scale).
    """
    if scale == "smoke":
        barnes = BarnesConfig(
            n_bodies=96, steps=3, force_cost=30e-6, insert_cost=10e-6, com_cost=2e-6
        )
        nsq = WaterNsqConfig(
            n_molecules=48, steps=3, pair_cost=40e-6, static_elements=1024
        )
        spatial = WaterSpatialConfig(
            n_molecules=125, steps=3, pair_cost=40e-6, static_elements=1024
        )
    elif scale == "default":
        barnes = BarnesConfig(
            n_bodies=160,
            steps=16,
            force_cost=30e-6,
            insert_cost=10e-6,
            com_cost=2e-6,
        )
        nsq = WaterNsqConfig(
            n_molecules=96, steps=8, pair_cost=120e-6, static_elements=8192
        )
        spatial = WaterSpatialConfig(
            n_molecules=343,
            steps=8,
            cell_capacity=96,
            pair_cost=40e-6,
            static_elements=1024,
        )
    else:
        raise ValueError(f"unknown scale {scale!r}")
    return [
        AppSetup(
            "barnes",
            lambda c=barnes: BarnesApp(c),
            # the paper uses L = 1.0 for Barnes because its full-scale
            # run logs ~10x its footprint per node; the scaled run logs
            # ~2-3x, so the equivalent policy pressure (6-10 checkpoints
            # per node) needs a proportionally smaller L (EXPERIMENTS.md)
            l_fraction=0.25,
            problem_size=f"{barnes.n_bodies} bodies, {barnes.steps} steps",
        ),
        AppSetup(
            "water-nsq",
            lambda c=nsq: WaterNsqApp(c),
            l_fraction=0.1,
            problem_size=f"{nsq.n_molecules} molecules, {nsq.steps} steps",
        ),
        AppSetup(
            "water-spatial",
            lambda c=spatial: WaterSpatialApp(c),
            l_fraction=0.1,
            problem_size=f"{spatial.n_molecules} molecules, {spatial.steps} steps",
        ),
    ]


@dataclass
class ExperimentResult:
    """A finished run plus the cluster it ran on (for deep inspection)."""

    setup: AppSetup
    cluster: DsmCluster
    result: RunResult

    @property
    def hosts(self):
        return self.cluster.hosts


def run_base(setup: AppSetup, num_procs: int = NUM_PROCS) -> ExperimentResult:
    """Run with the base protocol (no fault tolerance)."""
    cluster = DsmCluster(DsmConfig(num_procs=num_procs), disk_config=HARNESS_DISK)
    result = cluster.run(setup.make_app())
    return ExperimentResult(setup, cluster, result)


def run_ft(
    setup: AppSetup,
    num_procs: int = NUM_PROCS,
    ft_config: Optional[FtConfig] = None,
    policy_factory: Optional[Callable[[int, int], Any]] = None,
) -> ExperimentResult:
    """Run with fault tolerance (OF policy at the setup's L)."""
    factory = policy_factory or (
        lambda pid, fp: LogOverflowPolicy(setup.l_fraction, fp)
    )
    cluster = DsmCluster(
        DsmConfig(num_procs=num_procs),
        disk_config=HARNESS_DISK,
        ft=True,
        ft_config=ft_config,
        policy_factory=factory,
    )
    result = cluster.run(setup.make_app())
    return ExperimentResult(setup, cluster, result)
