"""Ablation benchmarks for the design choices DESIGN.md calls out.

A1 — LLT off: the stable log grows without bound (vs flattening with it).
A2 — coordinated (barrier) checkpointing vs independent OF for Barnes:
     the §5.4 suggestion; coordinated checkpoints amortize the barrier
     interference.
A3 — diff logging vs whole-page logging (related work [25]): diffs cut
     the log volume by a large factor.
"""

from conftest import SCALE, emit

from repro import DsmCluster, DsmConfig
from repro.baselines import PageLoggingCluster
from repro.core import BarrierCoordinatedPolicy, FtConfig, LogOverflowPolicy
from repro.harness.experiment import HARNESS_DISK, paper_setups, run_ft
from repro.render import Table


def _setup(name):
    return [s for s in paper_setups(SCALE) if s.name == name][0]


def test_ablation_a1_no_llt(results_dir, benchmark):
    setup = _setup("water-spatial")
    with_llt = benchmark.pedantic(lambda: run_ft(setup), rounds=1, iterations=1)
    without = run_ft(setup, ft_config=FtConfig(llt_enabled=False))

    def max_disk(res):
        return max(s.max_log_disk for s in res.result.ft_stats)

    t = Table(
        "Ablation A1: LLT on vs off (water-spatial)",
        ["Variant", "Max stable log (B)", "Discarded (B)", "Exec time (s)"],
    )
    t.add(
        "LLT on",
        max_disk(with_llt),
        sum(h.ft.logs.diff.bytes_discarded for h in with_llt.hosts),
        f"{with_llt.result.wall_time:.3f}",
    )
    t.add(
        "LLT off",
        max_disk(without),
        0,
        f"{without.result.wall_time:.3f}",
    )
    emit(results_dir, "ablation_a1_no_llt", t.render())
    assert max_disk(without) > max_disk(with_llt)
    assert all(h.ft.logs.diff.bytes_discarded == 0 for h in without.hosts)


def test_ablation_a2_coordinated_vs_independent(results_dir, benchmark):
    setup = _setup("barnes")
    independent = benchmark.pedantic(lambda: run_ft(setup), rounds=1, iterations=1)
    coordinated = run_ft(
        setup,
        policy_factory=lambda pid, fp: BarrierCoordinatedPolicy(
            every_barriers=12
        ),
    )
    t = Table(
        "Ablation A2: independent (OF) vs barrier-coordinated ckpts (barnes)",
        ["Variant", "Ckpts (min-max/node)", "Exec time (s)", "Wmax"],
        note="Coordinated checkpoints all land at the same barriers, so "
        "the window collapses and barrier interference is amortized "
        "(the paper's §5.4 suggestion).",
    )
    for label, ex in (("independent OF", independent), ("coordinated", coordinated)):
        cks = [s.checkpoints_taken for s in ex.result.ft_stats]
        t.add(
            label,
            f"{min(cks)}-{max(cks)}",
            f"{ex.result.wall_time:.3f}",
            max(h.ckpt_mgr.max_window for h in ex.hosts),
        )
    emit(results_dir, "ablation_a2_coordinated", t.render())
    cks = [s.checkpoints_taken for s in coordinated.result.ft_stats]
    assert min(cks) == max(cks), "coordinated checkpoints must align"
    # aligned checkpoints keep the window minimal
    assert max(h.ckpt_mgr.max_window for h in coordinated.hosts) <= max(
        h.ckpt_mgr.max_window for h in independent.hosts
    )


def test_ablation_a3_page_vs_diff_logging(results_dir, benchmark):
    setup = _setup("water-nsq")
    diff_ex = benchmark.pedantic(lambda: run_ft(setup), rounds=1, iterations=1)

    cluster = PageLoggingCluster(
        DsmConfig(num_procs=8),
        l_fraction=setup.l_fraction,
        disk_config=HARNESS_DISK,
    )
    cluster.run(setup.make_app())

    created_diff = sum(h.ft.logs.diff.bytes_created for h in diff_ex.hosts)
    created_page = sum(h.ft.logs.diff.bytes_created for h in cluster.hosts)
    t = Table(
        "Ablation A3: diff logging vs whole-page logging (water-nsq)",
        ["Variant", "Logs created (B)", "Ratio"],
        note="The paper (§2) criticizes whole-page logging [25] as 'very "
        "expensive'; diffs log only the changed bytes.",
    )
    t.add("diff logging", created_diff, "1.0x")
    t.add("page logging", created_page, f"{created_page / created_diff:.1f}x")
    emit(results_dir, "ablation_a3_page_logging", t.render())
    assert created_page > 2 * created_diff


def test_bench_recovery_cost(results_dir, benchmark):
    """Crash mid-run and measure the recovery's virtual-time cost; the
    paper argues replay is cheaper than original execution (§4.3)."""
    setup = _setup("water-spatial")
    golden = run_ft(setup)
    T = golden.result.wall_time

    def crashed_run():
        cluster = DsmCluster(
            DsmConfig(num_procs=8),
            disk_config=HARNESS_DISK,
            ft=True,
            policy_factory=lambda pid, fp: LogOverflowPolicy(
                setup.l_fraction, fp
            ),
        )
        cluster.schedule_crash(3, at_time=T * 0.5)
        return cluster.run(setup.make_app())

    res = benchmark.pedantic(crashed_run, rounds=1, iterations=1)
    stretch = res.wall_time - T
    detection = 50e-3
    t = Table(
        "Recovery cost (water-spatial, crash at 50%)",
        ["Metric", "Value"],
    )
    t.add("failure-free time (s)", f"{T:.3f}")
    t.add("with crash+recovery (s)", f"{res.wall_time:.3f}")
    t.add("stretch (s)", f"{stretch:.3f}")
    t.add("of which detection delay (s)", f"{detection:.3f}")
    emit(results_dir, "recovery_cost", t.render())
    # replay re-executes roughly the lost half; the total stretch stays
    # below detection + the lost segment (replay is not slower than the
    # original execution)
    assert stretch < detection + 0.9 * T
