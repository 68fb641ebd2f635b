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
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np
import pytest

from repro import DsmCluster, DsmConfig
from repro.apps.base import DsmApp, phase_loop
from repro.core import LogOverflowPolicy

N_PROCS = 8
N_LOCKS = 8
CELLS_PER_LOCK = 24  # cells [lock*24, (lock+1)*24) are guarded by `lock`


def make_script(seed: int) -> Tuple[int, List[List[List[Tuple[int, int, int]]]]]:
    """rounds, script[pid][round] = [(lock, cell_off, add), ...]."""
    rng = np.random.default_rng(seed)
    rounds = int(rng.integers(2, 5))
    script = [
        [
            [
                (
                    int(rng.integers(0, N_LOCKS)),
                    int(rng.integers(0, CELLS_PER_LOCK)),
                    int(rng.integers(1, 9)),
                )
                for _ in range(int(rng.integers(0, 7)))
            ]
            for _ in range(rounds)
        ]
        for _ in range(N_PROCS)
    ]
    return rounds, script


class FuzzApp(DsmApp):
    name = "fuzz"

    def __init__(self, seed: int):
        self.seed = seed
        self.rounds, self.script = make_script(seed)
        self.n_cells = N_LOCKS * CELLS_PER_LOCK

    def configure(self, cluster):
        self.r = cluster.allocate("cells", self.n_cells)

    def init_state(self, pid):
        return {"step": 0, "phase": 0, "sums": []}

    def expected_sum_after(self, rnd: int) -> int:
        return sum(
            add
            for pid in range(N_PROCS)
            for r in range(rnd + 1)
            for (_l, _c, add) in self.script[pid][r]
        )

    def run(self, proc, state):
        app = self

        def phase_rmw(proc, state, rnd):
            for lock, cell_off, add in app.script[proc.pid][rnd]:
                cell = lock * CELLS_PER_LOCK + cell_off
                yield from proc.acquire(lock)
                v = yield from proc.write_range(app.r, cell, cell + 1)
                v[0] = v[0] + add
                yield from proc.compute(2e-6)
                yield from proc.release(lock)
            yield from proc.barrier()

        def phase_validate(proc, state, rnd):
            v = yield from proc.read_range(app.r, 0, app.n_cells)
            state["sums"].append(float(np.asarray(v).sum()))
            yield from proc.barrier()

        yield from phase_loop(proc, state, app.rounds, [phase_rmw, phase_validate])

    def check_result(self, cluster):
        final = np.asarray(cluster.shared_snapshot(self.r))
        assert final.sum() == self.expected_sum_after(self.rounds - 1)
        for host in cluster.hosts:
            sums = host.state["sums"]
            assert len(sums) == self.rounds, (
                f"p{host.pid} validated {len(sums)}/{self.rounds} rounds"
            )
            for rnd, got in enumerate(sums):
                want = self.expected_sum_after(rnd)
                assert got == want, (
                    f"p{host.pid} round {rnd}: saw sum {got}, expected {want}"
                )


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
