"""Randomized protocol fuzzing.

A seeded generator builds a random-but-race-free workload (lock-guarded
integer read-modify-writes, barrier-separated whole-region validation
reads) and runs it three ways: base protocol, fault-tolerant, and
fault-tolerant with a crash. All integer arithmetic is exact in float64,
so every variant must produce the bit-identical final region and every
mid-run validation read must observe the exact expected running sum —
a far stronger check than the hand-written scenarios.
"""

import functools
from typing import Tuple

import numpy as np
import pytest

from repro import DsmCluster, DsmConfig
from repro.core import LogOverflowPolicy

from tests.fuzz_app import N_PROCS, FuzzApp


def run_fuzz(seed: int, crash: Tuple[int, float] | None, ft: bool = True):
    cluster = DsmCluster(
        DsmConfig(num_procs=N_PROCS),
        ft=ft,
        policy_factory=lambda pid, fp: LogOverflowPolicy(0.05, fp),
    )
    monitor = None
    if ft:
        # the invariant monitor rides along on every FT fuzz run: any
        # trim/vclock/FIFO/recoverability/lock violation fails the test even
        # when the final memory happens to come out right
        from repro.observe import InvariantMonitor

        monitor = InvariantMonitor(cluster)
    if crash is not None:
        cluster.schedule_crash(crash[0], at_time=crash[1])
    app = FuzzApp(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.observe.invariants.recoverability.SCAN_EVERY", 20)
        res = cluster.run(app)
    if monitor is not None:
        violations = monitor.finish()
        assert not violations, [v.render() for v in violations]
    return np.asarray(cluster.shared_snapshot(app.r)).copy(), res


SEEDS = list(range(12))


@pytest.fixture(scope="module")
def fault_free():
    """seed -> (final memory, wall time) of its monitored FT run without a
    crash, run once per seed for the whole module; the memory is frozen,
    so a test can only read it."""
    @functools.lru_cache(maxsize=None)
    def run(seed):
        mem, res = run_fuzz(seed, None)
        mem.setflags(write=False)
        return mem, res.wall_time

    return run


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_base_vs_ft_identical(seed, fault_free):
    base_mem, _ = run_fuzz(seed, None, ft=False)
    ft_mem, _ = fault_free(seed)
    assert np.array_equal(base_mem, ft_mem)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("frac", [0.15, 0.45])
def test_fuzz_crash_recovery_exact(seed, frac, fault_free):
    golden_mem, T = fault_free(seed)
    victim = seed % N_PROCS
    crashed_mem, res = run_fuzz(seed, (victim, T * frac))
    # check_result already validated every node's per-round sums and the
    # final total; additionally the final memory must be bit-identical
    assert np.array_equal(golden_mem, crashed_mem)
    assert res.crashes == res.recoveries
