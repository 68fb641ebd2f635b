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

from repro.apps.base import block_partition, phase_loop
from repro.apps.water import WaterApp, WaterConfig, integrate, pair_term
from repro.dsm.protocol import DsmProcess

__all__ = ["WaterSpatialConfig", "WaterSpatialApp"]


@dataclass
class WaterSpatialConfig(WaterConfig):
    """Scaled-down Water-Spatial problem (paper: 262,144 molecules)."""

    n_molecules: int = 216
    cutoff: float = 0.3
    pair_cost: float = 2e-6
    cells_per_side: int = 4
    cell_capacity: int = 64  # membership slots per cell
    bin_cost: float = 0.3e-6


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
        idx, contrib = pair_term(nb_pos - pos[i], cut2)
        count += len(idx)
        if len(idx):
            f[k] -= np.add.reduce(contrib, axis=0)
    return f, count


def _cell_forces(cfg: WaterSpatialConfig, pos: np.ndarray) -> np.ndarray:
    """The force on every molecule, cell by cell in the apps' order."""
    c = cfg.cells_per_side
    n_cells = c * c * c
    cell_idx = _cell_of(pos, c)
    members_by_cell = [np.flatnonzero(cell_idx == cell) for cell in range(n_cells)]
    force = np.zeros_like(pos)
    for cell in range(n_cells):
        members = members_by_cell[cell]
        if len(members) == 0:
            continue
        nb = np.concatenate([members_by_cell[c2] for c2 in _neighbors(cell, c)])
        nb.sort()
        f, _ = _forces_for_cell(members, nb, pos, cfg)
        force[members] = f
    return force


def reference_water_spatial(cfg: WaterSpatialConfig) -> np.ndarray:
    """Sequential golden model using the identical cell/order scheme."""
    return integrate(cfg, lambda pos: _cell_forces(cfg, pos))


class WaterSpatialApp(WaterApp):
    name = "water-spatial"
    Config = WaterSpatialConfig
    reference = staticmethod(reference_water_spatial)
    rtol, atol = 1e-9, 1e-12

    def configure_own(self, cluster: Any) -> None:
        # membership table: [count, slot0, slot1, ...] per cell
        self.r_cells = cluster.allocate(
            "cells", self.cfg.cells_per_side ** 3 * (self.cfg.cell_capacity + 1)
        )

    def _cell_slice(self, cell: int) -> Tuple[int, int]:
        w = self.cfg.cell_capacity + 1
        return cell * w, (cell + 1) * w

    def run(self, proc: DsmProcess, state: Dict[str, Any]) -> Iterator[Any]:
        cfg = self.cfg
        n = cfg.n_molecules
        c = cfg.cells_per_side
        n_cells = c * c * c
        my_cells = block_partition(n_cells, proc.n, proc.pid)
        yield from self.read_params(proc)

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
