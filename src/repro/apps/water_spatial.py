"""Water-Spatial analog: 3-D cell-decomposed molecular dynamics.

Mirrors the SPLASH-2 Water-Spatial sharing pattern: the box is divided
into cells, each process owns a contiguous slab of cells and *owner
computes* the forces on molecules in its cells by scanning the 27-cell
neighborhood (reading boundary cells owned by neighbors). The access
pattern is regular and iteration-structured — which is what produces the
paper's "self-synchronizing" checkpoint behaviour (§5.3): with the
log-overflow policy each iteration generates a near-constant diff volume,
forcing a checkpoint every iteration, and LLT flattens the stable log
after the trimming information has propagated.

The shared footprint is dominated by the cell-membership table, giving
this app the largest footprint of the three (paper: 257 MB).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.apps.base import AppConfig, DsmApp, block_partition, golden, phase_loop
from repro.dsm.protocol import DsmProcess

__all__ = ["WaterSpatialConfig", "WaterSpatialApp"]


@dataclass
class WaterSpatialConfig(AppConfig):
    """Scaled-down Water-Spatial problem (paper: 262,144 molecules)."""

    n_molecules: int = 216
    steps: int = 3
    cells_per_side: int = 4
    cell_capacity: int = 64  # membership slots per cell
    dt: float = 1e-3
    cutoff: float = 0.3
    pair_cost: float = 2e-6
    bin_cost: float = 0.3e-6
    #: static shared parameter table, written once (see water_nsq)
    static_elements: int = 0


def _initial_conditions(cfg: WaterSpatialConfig) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(cfg.seed)
    side = int(np.ceil(cfg.n_molecules ** (1 / 3)))
    grid = np.stack(
        np.meshgrid(*([np.arange(side)] * 3), indexing="ij"), axis=-1
    ).reshape(-1, 3)[: cfg.n_molecules]
    pos = (grid + 0.5) / side + rng.normal(0, 0.01, (cfg.n_molecules, 3))
    pos %= 1.0
    vel = rng.normal(0, 0.05, (cfg.n_molecules, 3))
    return pos, vel


def _cell_of(pos: np.ndarray, c: int) -> np.ndarray:
    """Cell index (flattened x-major) per molecule."""
    coords = np.clip((pos * c).astype(np.int64), 0, c - 1)
    return coords[:, 0] * c * c + coords[:, 1] * c + coords[:, 2]


def _neighbors(cell: int, c: int) -> List[int]:
    x, rem = divmod(cell, c * c)
    y, z = divmod(rem, c)
    out = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                out.append(
                    ((x + dx) % c) * c * c + ((y + dy) % c) * c + ((z + dz) % c)
                )
    return sorted(set(out))


def _forces_for_cell(
    members: np.ndarray,
    neighbor_members: np.ndarray,
    pos: np.ndarray,
    cfg: WaterSpatialConfig,
) -> Tuple[np.ndarray, int]:
    """Owner-computes forces on ``members`` from all neighbor molecules."""
    f = np.zeros((len(members), 3))
    count = 0
    cut2 = cfg.cutoff * cfg.cutoff
    # the neighbor gather is invariant across members; hoisting it out of
    # the loop changes no values (same fancy-index, same subtraction)
    nb_pos = pos[neighbor_members]
    for k, i in enumerate(members):
        d = nb_pos - pos[i]
        d -= np.rint(d)
        r2 = np.einsum("ij,ij->i", d, d)
        mask = (r2 < cut2) & (r2 > 1e-12)
        idx = np.flatnonzero(mask)
        count += len(idx)
        if len(idx) == 0:
            continue
        r2m = r2[idx]
        mag = np.clip(1e-4 / (r2m * r2m) - 1e-4 / r2m, -10.0, 10.0)
        f[k] -= ((mag / np.sqrt(r2m))[:, None] * d[idx]).sum(axis=0)
    return f, count


def reference_water_spatial(cfg: WaterSpatialConfig) -> np.ndarray:
    """Sequential golden model using the identical cell/order scheme."""
    pos, vel = _initial_conditions(cfg)
    c = cfg.cells_per_side
    n_cells = c * c * c
    for _ in range(cfg.steps):
        cell_idx = _cell_of(pos, c)
        members_by_cell = [
            np.flatnonzero(cell_idx == cell) for cell in range(n_cells)
        ]
        force = np.zeros_like(pos)
        for cell in range(n_cells):
            members = members_by_cell[cell]
            if len(members) == 0:
                continue
            nb = np.concatenate(
                [members_by_cell[c2] for c2 in _neighbors(cell, c)]
            )
            nb.sort()
            f, _ = _forces_for_cell(members, nb, pos, cfg)
            force[members] = f
        vel += cfg.dt * force
        pos += cfg.dt * vel
        pos %= 1.0
    return pos


class WaterSpatialApp(DsmApp):
    name = "water-spatial"

    def __init__(self, cfg: WaterSpatialConfig | None = None) -> None:
        self.cfg = cfg or WaterSpatialConfig()

    # ------------------------------------------------------------------
    def configure(self, cluster: Any) -> None:
        cfg = self.cfg
        n = cfg.n_molecules
        n_cells = cfg.cells_per_side ** 3
        self.r_pos = cluster.allocate("pos", n * 3)
        self.r_vel = cluster.allocate("vel", n * 3)
        self.r_force = cluster.allocate("force", n * 3)
        # membership table: [count, slot0, slot1, ...] per cell
        self.r_cells = cluster.allocate(
            "cells", n_cells * (cfg.cell_capacity + 1)
        )
        if cfg.static_elements:
            self.r_params = cluster.allocate("params", cfg.static_elements)

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
    def _cell_slice(self, cell: int) -> Tuple[int, int]:
        w = self.cfg.cell_capacity + 1
        return cell * w, (cell + 1) * w

    def run(self, proc: DsmProcess, state: Dict[str, Any]) -> Iterator[Any]:
        cfg = self.cfg
        n = cfg.n_molecules
        c = cfg.cells_per_side
        n_cells = c * c * c
        my_cells = block_partition(n_cells, proc.n, proc.pid)
        if cfg.static_elements:
            yield from proc.read_range(self.r_params, 0, cfg.static_elements)

        def read_cell_members(cell: int) -> Iterator[Any]:
            lo, hi = self._cell_slice(cell)
            view = yield from proc.read_range(self.r_cells, lo, hi)
            count = int(view[0])
            return view[1 : 1 + count].astype(np.int64)

        def phase_bin(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            flat = yield from proc.read_range(self.r_pos, 0, n * 3)
            pos = flat.reshape(n, 3)
            cell_idx = _cell_of(pos, c)
            yield from proc.compute(cfg.bin_cost * n)
            lo, _ = self._cell_slice(my_cells.start)
            _, hi = self._cell_slice(my_cells.stop - 1)
            view = yield from proc.write_range(self.r_cells, lo, hi)
            for cell in my_cells:
                members = np.flatnonzero(cell_idx == cell)
                if len(members) > cfg.cell_capacity:
                    raise RuntimeError(f"cell {cell} overflow: {len(members)}")
                base = self._cell_slice(cell)[0] - lo
                view[base] = len(members)
                view[base + 1 : base + 1 + len(members)] = members
            yield from proc.barrier()

        def phase_forces(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            flat = yield from proc.read_range(self.r_pos, 0, n * 3)
            pos = flat.reshape(n, 3).copy()
            owned: List[Tuple[np.ndarray, np.ndarray]] = []
            total_pairs = 0
            for cell in my_cells:
                members = yield from read_cell_members(cell)
                if len(members) == 0:
                    continue
                nb_lists = []
                for c2 in _neighbors(cell, c):
                    nb_lists.append((yield from read_cell_members(c2)))
                nb = np.concatenate(nb_lists) if nb_lists else np.array([], dtype=np.int64)
                nb.sort()
                f, pairs = _forces_for_cell(members, nb, pos, cfg)
                total_pairs += pairs
                owned.append((members, f))
            yield from proc.compute(cfg.pair_cost * max(total_pairs, 1))
            for members, f in owned:
                for k, i in enumerate(members):
                    view = yield from proc.write_range(
                        self.r_force, int(i) * 3, int(i) * 3 + 3
                    )
                    view[:] = f[k]
            yield from proc.barrier()

        def phase_integrate(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            for cell in my_cells:
                members = yield from read_cell_members(cell)
                for i in members:
                    i = int(i)
                    fv = yield from proc.read_range(self.r_force, i * 3, i * 3 + 3)
                    vv = yield from proc.write_range(self.r_vel, i * 3, i * 3 + 3)
                    pv = yield from proc.write_range(self.r_pos, i * 3, i * 3 + 3)
                    vv += cfg.dt * fv
                    pv += cfg.dt * vv
                    pv %= 1.0
            yield from proc.barrier()

        yield from phase_loop(
            proc, state, cfg.steps, [phase_bin, phase_forces, phase_integrate]
        )

    # ------------------------------------------------------------------
    def check_result(self, cluster: Any) -> None:
        got = cluster.shared_snapshot(self.r_pos)[: self.cfg.n_molecules * 3]
        want = golden(reference_water_spatial, self.cfg).ravel()
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
