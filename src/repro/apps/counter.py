"""A minimal pedagogical workload (used by the quickstart and tests).

Each step: every process increments a shared counter under a lock, fills
its slice of a shared array, and reads the whole array back — exercising
locks, barriers, page fetches and multi-writer diffs in a few lines.
Because all written values are integers (exact in float64), results are
bitwise-deterministic across lock orderings, which the crash-equivalence
tests exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator

from repro.apps.base import AppConfig, DsmApp, block_partition, phase_loop
from repro.dsm.protocol import DsmProcess

__all__ = ["CounterConfig", "CounterApp"]


@dataclass
class CounterConfig(AppConfig):
    steps: int = 3
    n_elements: int = 512
    compute_per_step: float = 1e-4


class CounterApp(DsmApp):
    name = "counter"
    Config = CounterConfig

    def configure(self, cluster: Any) -> None:
        self.r_counter = cluster.allocate("counter", 8)
        self.r_data = cluster.allocate("data", self.cfg.n_elements)

    def init_state(self, pid: int) -> Dict[str, Any]:
        return {"step": 0, "phase": 0, "sum_seen": 0.0}

    def run(self, proc: DsmProcess, state: Dict[str, Any]) -> Iterator[Any]:
        cfg = self.cfg
        n = cfg.n_elements
        part = block_partition(n, proc.n, proc.pid)

        def phase_incr(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            yield from proc.acquire(0)
            view = yield from proc.write_range(self.r_counter, 0, 1)
            view[0] = view[0] + 1.0
            yield from proc.compute(cfg.compute_per_step)
            yield from proc.release(0)

        def phase_fill(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            view = yield from proc.write_range(self.r_data, part.start, part.stop)
            view[:] = proc.pid * 1000.0 + step
            yield from proc.barrier()

        def phase_read(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            view = yield from proc.read_range(self.r_data, 0, n)
            state["sum_seen"] = float(view.sum())
            yield from proc.barrier()

        yield from phase_loop(
            proc, state, cfg.steps, [phase_incr, phase_fill, phase_read]
        )

    def expected_counter(self, num_procs: int) -> float:
        return float(num_procs * self.cfg.steps)

    def expected_sum(self, num_procs: int) -> float:
        n, last = self.cfg.n_elements, self.cfg.steps - 1
        return float(
            sum(
                (pid * 1000.0 + last) * len(block_partition(n, num_procs, pid))
                for pid in range(num_procs)
            )
        )

    def check_result(self, cluster: Any) -> None:
        counter = cluster.shared_snapshot(self.r_counter)
        n_procs = cluster.config.num_procs
        assert counter[0] == self.expected_counter(n_procs), (
            f"counter {counter[0]} != {self.expected_counter(n_procs)}"
        )
        want = self.expected_sum(n_procs)
        for host in cluster.hosts:
            got = host.state.get("sum_seen")
            assert got == want, f"p{host.pid}: sum {got} != {want}"
