"""Water-Nsquared analog: O(n²) cutoff molecular dynamics with locks.

Mirrors the SPLASH-2 Water-Nsquared sharing pattern (§5.1 of the paper):
a small shared footprint (positions / velocities / forces), pairwise
force interactions with a cutoff radius computed by each process for its
block of molecules against all later molecules, and **lock-protected
accumulation** into the shared force array — the app is lock-intensive
with only a few barriers per step, which is why its FT overhead in the
paper is tiny (0.6 % with L = 0.1).

The system itself (molecules, regions, pair term, golden integrator) is
:mod:`repro.apps.water`, shared with Water-Spatial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator

import numpy as np

from repro.apps.base import block_partition, phase_loop
from repro.apps.water import WaterApp, WaterConfig, integrate, pair_term
from repro.dsm.protocol import DsmProcess

__all__ = ["WaterNsqConfig", "WaterNsqApp"]


@dataclass
class WaterNsqConfig(WaterConfig):
    """Scaled-down Water-Nsquared problem (paper: 19,683 molecules)."""

    n_locks: int = 16  # force-array lock granularity
    integrate_cost: float = 0.5e-6  # per molecule


def _pair_forces(
    pos: np.ndarray, lo: int, hi: int, cutoff: float
) -> tuple[np.ndarray, int]:
    """Forces from pairs (i, j) with lo <= i < hi, j > i; returns (f, npairs)."""
    f = np.zeros(pos.shape, pos.dtype)
    npairs = 0
    cutoff2 = cutoff * cutoff
    for i in range(lo, hi):
        idx, contrib = pair_term(pos[i + 1 :] - pos[i], cutoff2)
        npairs += len(idx)
        if len(idx):
            f[i] -= np.add.reduce(contrib, axis=0)
            f[i + 1 + idx] += contrib
    return f, npairs


def reference_water_nsq(cfg: WaterNsqConfig) -> np.ndarray:
    """Sequential golden model: final positions after cfg.steps."""
    return integrate(
        cfg, lambda pos: _pair_forces(pos, 0, cfg.n_molecules, cfg.cutoff)[0]
    )


class WaterNsqApp(WaterApp):
    name = "water-nsq"
    Config = WaterNsqConfig
    reference = staticmethod(reference_water_nsq)
    rtol, atol = 1e-8, 1e-10

    def run(self, proc: DsmProcess, state: Dict[str, Any]) -> Iterator[Any]:
        cfg = self.cfg
        n = cfg.n_molecules
        part = block_partition(n, proc.n, proc.pid)
        yield from self.read_params(proc)
        lock_blocks = [
            block_partition(n, cfg.n_locks, b) for b in range(cfg.n_locks)
        ]

        def phase_clear(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            view = yield from proc.write_range(
                self.r_force, part.start * 3, part.stop * 3
            )
            view[:] = 0.0
            yield from proc.barrier()

        def phase_forces(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            flat = yield from proc.read_range(self.r_pos, 0, n * 3)
            pos = flat.reshape(n, 3).copy()
            f, npairs = _pair_forces(pos, part.start, part.stop, cfg.cutoff)
            yield from proc.compute(cfg.pair_cost * max(npairs, 1))
            touched = (np.add.reduce(np.abs(f), axis=1) > 0).nonzero()[0]
            for b, block in enumerate(lock_blocks):
                sel = touched[(touched >= block.start) & (touched < block.stop)]
                if len(sel) == 0:
                    continue
                yield from proc.acquire(b)
                view = yield from proc.write_range(
                    self.r_force, block.start * 3, block.stop * 3
                )
                fv = view.reshape(-1, 3)
                fv[sel - block.start] += f[sel]
                yield from proc.release(b)
            yield from proc.barrier()

        def phase_integrate(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            fview = yield from proc.read_range(
                self.r_force, part.start * 3, part.stop * 3
            )
            vview = yield from proc.write_range(
                self.r_vel, part.start * 3, part.stop * 3
            )
            pview = yield from proc.write_range(
                self.r_pos, part.start * 3, part.stop * 3
            )
            f = fview.reshape(-1, 3)
            v = vview.reshape(-1, 3)
            p = pview.reshape(-1, 3)
            v += cfg.dt * f
            p += cfg.dt * v
            p %= 1.0
            yield from proc.compute(cfg.integrate_cost * len(part))
            yield from proc.barrier()

        yield from phase_loop(
            proc, state, cfg.steps, [phase_clear, phase_forces, phase_integrate]
        )
