"""Water-Nsquared analog: O(n²) cutoff molecular dynamics with locks.

Mirrors the SPLASH-2 Water-Nsquared sharing pattern (§5.1 of the paper):
a small shared footprint (positions / velocities / forces), pairwise
force interactions with a cutoff radius computed by each process for its
block of molecules against all later molecules, and **lock-protected
accumulation** into the shared force array — the app is lock-intensive
with only a few barriers per step, which is why its FT overhead in the
paper is tiny (0.6 % with L = 0.1).

The physics is a soft Lennard-Jones-like pair force in a unit box with
minimum-image wrapping — enough to make the data flow (and therefore the
diffs) real without simulating actual water chemistry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List

import numpy as np

from repro.apps.base import AppConfig, DsmApp, block_partition, golden, phase_loop
from repro.dsm.protocol import DsmProcess

__all__ = ["WaterNsqConfig", "WaterNsqApp"]


@dataclass
class WaterNsqConfig(AppConfig):
    """Scaled-down Water-Nsquared problem (paper: 19,683 molecules)."""

    n_molecules: int = 64
    steps: int = 3
    cutoff: float = 0.45  # in box units
    n_locks: int = 16  # force-array lock granularity
    dt: float = 1e-3
    pair_cost: float = 3e-6  # virtual seconds per pair interaction
    integrate_cost: float = 0.5e-6  # per molecule
    #: static shared parameter table (SPLASH water keeps large constant
    #: arrays in shared memory); sized in elements, written once
    static_elements: int = 0


def _pair_forces(
    pos: np.ndarray, lo: int, hi: int, cutoff: float
) -> tuple[np.ndarray, int]:
    """Forces from pairs (i, j) with lo <= i < hi, j > i; returns (f, npairs)."""
    n = len(pos)
    f = np.zeros_like(pos)
    npairs = 0
    cutoff2 = cutoff * cutoff
    for i in range(lo, hi):
        d = pos[i + 1 :] - pos[i]
        d -= np.rint(d)  # minimum image in the unit box
        r2 = np.einsum("ij,ij->i", d, d)
        mask = (r2 < cutoff2) & (r2 > 1e-12)
        idx = np.flatnonzero(mask)
        npairs += len(idx)
        if len(idx) == 0:
            continue
        r2m = r2[idx]
        # soft LJ-like magnitude, bounded to keep the integrator stable
        mag = np.clip(1e-4 / (r2m * r2m) - 1e-4 / r2m, -10.0, 10.0)
        contrib = (mag / np.sqrt(r2m))[:, None] * d[idx]
        f[i] -= contrib.sum(axis=0)
        f[i + 1 + idx] += contrib
    return f, npairs


def reference_water_nsq(cfg: WaterNsqConfig) -> np.ndarray:
    """Sequential golden model: final positions after cfg.steps."""
    pos, vel = _initial_conditions(cfg)
    for _ in range(cfg.steps):
        f, _ = _pair_forces(pos, 0, cfg.n_molecules, cfg.cutoff)
        vel += cfg.dt * f
        pos += cfg.dt * vel
        pos %= 1.0
    return pos


def _initial_conditions(cfg: WaterNsqConfig) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(cfg.seed)
    side = int(np.ceil(cfg.n_molecules ** (1 / 3)))
    grid = np.stack(
        np.meshgrid(*([np.arange(side)] * 3), indexing="ij"), axis=-1
    ).reshape(-1, 3)[: cfg.n_molecules]
    pos = (grid + 0.5) / side + rng.normal(0, 0.01, (cfg.n_molecules, 3))
    pos %= 1.0
    vel = rng.normal(0, 0.05, (cfg.n_molecules, 3))
    return pos, vel


class WaterNsqApp(DsmApp):
    name = "water-nsq"

    def __init__(self, cfg: WaterNsqConfig | None = None) -> None:
        self.cfg = cfg or WaterNsqConfig()

    # ------------------------------------------------------------------
    def configure(self, cluster: Any) -> None:
        n = self.cfg.n_molecules
        self.r_pos = cluster.allocate("pos", n * 3)
        self.r_vel = cluster.allocate("vel", n * 3)
        self.r_force = cluster.allocate("force", n * 3)
        if self.cfg.static_elements:
            self.r_params = cluster.allocate("params", self.cfg.static_elements)

    def init_shared(self, cluster: Any) -> None:
        pos, vel = _initial_conditions(self.cfg)
        cluster.write_initial(self.r_pos, pos.ravel())
        cluster.write_initial(self.r_vel, vel.ravel())
        if self.cfg.static_elements:
            rng = np.random.default_rng(self.cfg.seed + 1)
            cluster.write_initial(
                self.r_params, rng.uniform(0, 1, self.cfg.static_elements)
            )

    def init_state(self, pid: int) -> Dict[str, Any]:
        return {"step": 0, "phase": 0}

    # ------------------------------------------------------------------
    def run(self, proc: DsmProcess, state: Dict[str, Any]) -> Iterator[Any]:
        cfg = self.cfg
        n = cfg.n_molecules
        part = block_partition(n, proc.n, proc.pid)
        if cfg.static_elements:
            # one-time read of the static parameter table (fetch, then
            # the pages stay valid for the whole run)
            yield from proc.read_range(self.r_params, 0, cfg.static_elements)
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
            touched = np.flatnonzero(np.abs(f).sum(axis=1) > 0)
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

    # ------------------------------------------------------------------
    def check_result(self, cluster: Any) -> None:
        got = cluster.shared_snapshot(self.r_pos)[: self.cfg.n_molecules * 3]
        want = golden(reference_water_nsq, self.cfg).ravel()
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-10)
