"""Regeneration of the paper's Figures 3 and 4 (§5.2, §5.3)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.harness.experiment import ExperimentResult
from repro.render import Table, ascii_series
from repro.sim.node import TimeBucket

__all__ = ["figure3", "figure3_table", "figure4", "figure4_render"]

#: Figure 3 bar components, in the paper's stacking order
BREAKDOWN = [
    ("Computation", TimeBucket.COMPUTE),
    ("Page wait", TimeBucket.PAGE_WAIT),
    ("Lock wait", TimeBucket.LOCK_WAIT),
    ("Barrier wait", TimeBucket.BARRIER_WAIT),
    ("Overhead", TimeBucket.OVERHEAD),
    ("Log & Ckp", TimeBucket.LOG_CKPT),
]


def figure3(
    experiments: Optional[Dict[str, Tuple[ExperimentResult, ExperimentResult]]] = None,
    scale: str = "default",
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figure 3 data: normalized execution-time breakdown per app.

    Returns ``{app: {"base"|"ft": {component: percent-of-base-time}}}``:
    the left/right bars of the paper's figure, both normalized to the
    base run's mean execution time (the left bar sums to 100).
    """
    from repro.harness.tables import run_all_experiments

    experiments = experiments or run_all_experiments(scale)
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name, (base, ft) in experiments.items():
        base_mean = base.result.mean_time_stats
        ft_mean = ft.result.mean_time_stats
        norm = base_mean.total or 1.0
        out[name] = {
            "base": {
                label: 100.0 * base_mean.seconds[bucket] / norm
                for label, bucket in BREAKDOWN
            },
            "ft": {
                label: 100.0 * ft_mean.seconds[bucket] / norm
                for label, bucket in BREAKDOWN
            },
        }
    return out


def figure3_table(
    experiments: Optional[Dict[str, Tuple[ExperimentResult, ExperimentResult]]] = None,
    scale: str = "default",
) -> Table:
    """Figure 3 rendered as a table (base | FT columns per component)."""
    data = figure3(experiments, scale)
    t = Table(
        "Figure 3: Normalized execution time breakdown (% of base run)",
        ["Component"]
        + [f"{name} {kind}" for name in data for kind in ("base", "FT")],
        note="Left/right column pairs correspond to the paper's "
        "left (base) / right (fault-tolerant) bars.",
    )
    for label, _bucket in BREAKDOWN:
        row: List[str] = [label]
        for name in data:
            row.append(f"{data[name]['base'][label]:6.1f}")
            row.append(f"{data[name]['ft'][label]:6.1f}")
        t.add(*row)
    totals: List[str] = ["TOTAL"]
    for name in data:
        totals.append(f"{sum(data[name]['base'].values()):6.1f}")
        totals.append(f"{sum(data[name]['ft'].values()):6.1f}")
    t.add(*totals)
    return t


def figure4(
    experiments: Optional[Dict[str, Tuple[ExperimentResult, ExperimentResult]]] = None,
    scale: str = "default",
) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
    """Figure 4 data: stable-storage log size vs checkpoint number.

    Returns ``{app: {"measured": [(ckpt#, bytes)], "unbounded":
    [(ckpt#, bytes)]}}`` where "unbounded" is the paper's dotted
    growth line without LLT, L bytes per checkpoint at the run's own L
    (``AppSetup.l_fraction``). The measured curve is the FT layer's own
    record, each node's ``FtStats.log_points`` (one point per
    checkpoint).
    """
    from repro.harness.tables import run_all_experiments

    experiments = experiments or run_all_experiments(scale)
    out: Dict[str, Dict[str, List[Tuple[int, float]]]] = {}
    for name, (_base, ft) in experiments.items():
        # per checkpoint number, the max stable log size across nodes
        per_ckpt: Dict[int, float] = {}
        for host in ft.hosts:
            for ckpt_no, size in host.ft.stats.log_points:
                per_ckpt[ckpt_no] = max(per_ckpt.get(ckpt_no, 0.0), float(size))
        measured = sorted(per_ckpt.items())
        l_bytes = ft.setup.l_fraction * ft.result.footprint_bytes
        unbounded = [(k, k * l_bytes) for k, _ in measured]
        out[name] = {"measured": measured, "unbounded": unbounded}
    return out


def figure4_render(
    experiments: Optional[Dict[str, Tuple[ExperimentResult, ExperimentResult]]] = None,
    scale: str = "default",
) -> str:
    data = figure4(experiments, scale)
    charts = []
    for name, series in data.items():
        charts.append(
            ascii_series(
                f"Figure 4 ({name}): log size in stable storage vs checkpoint",
                {"with LLT": series["measured"], "no LLT (theory)": series["unbounded"]},
                xlabel="checkpoint number",
                ylabel="bytes",
            )
        )
    return "\n\n".join(charts)
