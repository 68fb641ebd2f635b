"""A seeded random-but-race-free workload: lock-guarded integer
read-modify-writes and barrier-separated whole-region validation reads,
each checked against the exact expected running sum."""

from typing import List, Tuple

import numpy as np

from repro.apps.base import DsmApp, phase_loop

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
