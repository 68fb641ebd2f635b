"""Lock-striped key-value store (scale-out workload).

The scaling counterpart to :mod:`repro.apps.counter`: a shared array of
``n_keys`` float64 cells treated as a key-value table, guarded by
``n_stripes`` stripe locks (contiguous key ranges, lock managers spread
round-robin over processes). Each step every process performs a batch of
additive *puts* to pseudo-random keys under the owning stripe lock, then
after a barrier scans the whole table. This drives exactly the paths
that dominate past 8 nodes — lock grant forwarding, write-notice
distribution at barriers, multi-writer diffs to remote homes — with a
contention profile tunable independently of the process count.

Puts are **additive with integer-valued deltas**, so the final table is
exact in float64 and independent of lock-acquisition order; keys are
drawn from per-``(seed, pid, step)`` RNG streams created on the fly
(no RNG state to checkpoint), keeping every phase resumable by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator

import numpy as np

from repro.apps.base import AppConfig, DsmApp, phase_loop
from repro.dsm.protocol import DsmProcess

__all__ = ["KvStoreConfig", "KvStoreApp"]


@dataclass
class KvStoreConfig(AppConfig):
    steps: int = 2
    n_keys: int = 256
    n_stripes: int = 8
    puts_per_step: int = 4
    compute_per_op: float = 2e-5

    def __post_init__(self) -> None:
        if self.n_stripes < 1 or self.n_stripes > self.n_keys:
            raise ValueError(
                f"n_stripes must be in [1, n_keys]: {self.n_stripes}"
            )


def _op_keys(cfg: KvStoreConfig, pid: int, step: int) -> np.ndarray:
    """The keys process ``pid`` puts to in ``step`` (deterministic)."""
    rng = np.random.default_rng((cfg.seed, pid, step))
    return rng.integers(0, cfg.n_keys, size=cfg.puts_per_step)


def _op_delta(pid: int, step: int, op: int) -> float:
    """Integer-valued put delta (exact in float64, order-independent)."""
    return float((pid + step + op) % 7 + 1)


class KvStoreApp(DsmApp):
    name = "kvstore"
    Config = KvStoreConfig

    def configure(self, cluster: Any) -> None:
        self.r_kv = cluster.allocate("kv", self.cfg.n_keys)

    def init_state(self, pid: int) -> Dict[str, Any]:
        return {"step": 0, "phase": 0, "sum_seen": 0.0}

    def _stripe(self, key: int) -> int:
        return key * self.cfg.n_stripes // self.cfg.n_keys

    def run(self, proc: DsmProcess, state: Dict[str, Any]) -> Iterator[Any]:
        cfg = self.cfg

        def phase_put(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            keys = _op_keys(cfg, proc.pid, step)
            for op, key in enumerate(keys.tolist()):
                stripe = self._stripe(key)
                yield from proc.acquire(stripe)
                view = yield from proc.write_range(self.r_kv, key, key + 1)
                view[0] = view[0] + _op_delta(proc.pid, step, op)
                yield from proc.compute(cfg.compute_per_op)
                yield from proc.release(stripe)
            yield from proc.barrier()

        def phase_scan(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            view = yield from proc.read_range(self.r_kv, 0, cfg.n_keys)
            state["sum_seen"] = float(view.sum())
            yield from proc.barrier()

        yield from phase_loop(proc, state, cfg.steps, [phase_put, phase_scan])

    def expected_total(self, num_procs: int) -> float:
        cfg = self.cfg
        return float(
            sum(
                _op_delta(pid, step, op)
                for pid in range(num_procs)
                for step in range(cfg.steps)
                for op in range(cfg.puts_per_step)
            )
        )

    def check_result(self, cluster: Any) -> None:
        want = self.expected_total(cluster.config.num_procs)
        snap = cluster.shared_snapshot(self.r_kv)
        got = float(snap.sum())
        assert got == want, f"kv total {got} != {want}"
        for host in cluster.hosts:
            seen = host.state.get("sum_seen")
            assert seen == want, f"p{host.pid}: scan sum {seen} != {want}"
