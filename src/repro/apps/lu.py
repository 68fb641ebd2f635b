"""Blocked dense LU decomposition (extra SPLASH-2-style workload).

Not part of the paper's evaluation triple; included as a fourth workload
with yet another sharing pattern: a 2-D block-cyclic owner-computes
factorization where each iteration reads one pivot block row/column and
updates the trailing submatrix. Data flows strictly through barriers —
no locks at all — making LU a useful contrast case for the benchmark
ablations (lock-log-free runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.apps.base import AppConfig, DsmApp, assert_close, golden, phase_loop
from repro.dsm.protocol import DsmProcess

__all__ = ["LuConfig", "LuApp"]


@dataclass
class LuConfig(AppConfig):
    matrix_size: int = 64  # elements per side
    block_size: int = 8
    flop_cost: float = 5e-9  # virtual seconds per scalar fused op

    def __post_init__(self) -> None:
        if self.matrix_size % self.block_size:
            raise ValueError(
                f"matrix_size must be a multiple of block_size "
                f"{self.block_size}: {self.matrix_size}"
            )

    @property
    def n_blocks(self) -> int:
        return self.matrix_size // self.block_size


def _owner(bi: int, bj: int, n_procs: int) -> int:
    return (bi + bj) % n_procs


def reference_lu(cfg: LuConfig) -> np.ndarray:
    """Sequential golden model: in-place blocked LU without pivoting."""
    a = _initial_matrix(cfg)
    nb, bs = cfg.n_blocks, cfg.block_size
    for k in range(nb):
        kk = slice(k * bs, (k + 1) * bs)
        _factor_diag(a[kk, kk])
        for j in range(k + 1, nb):
            jj = slice(j * bs, (j + 1) * bs)
            _solve_lower(a[kk, kk], a[kk, jj])
        for i in range(k + 1, nb):
            ii = slice(i * bs, (i + 1) * bs)
            _solve_upper(a[kk, kk], a[ii, kk])
        for i in range(k + 1, nb):
            for j in range(k + 1, nb):
                ii = slice(i * bs, (i + 1) * bs)
                jj = slice(j * bs, (j + 1) * bs)
                a[ii, jj] -= a[ii, k * bs : (k + 1) * bs] @ a[kk, jj]
    return a


def _initial_matrix(cfg: LuConfig) -> np.ndarray:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.matrix_size
    a = rng.uniform(-1, 1, (n, n))
    a += n * np.eye(n)  # diagonally dominant: stable without pivoting
    return a


def _factor_diag(d: np.ndarray) -> None:
    n = len(d)
    for r in range(n):
        d[r + 1 :, r] /= d[r, r]
        d[r + 1 :, r + 1 :] -= np.outer(d[r + 1 :, r], d[r, r + 1 :])


def _solve_lower(diag: np.ndarray, b: np.ndarray) -> None:
    """b := L(diag)^-1 b (unit lower triangular solve, forward)."""
    n = len(diag)
    for r in range(1, n):
        b[r] -= diag[r, :r] @ b[:r]


def _solve_upper(diag: np.ndarray, b: np.ndarray) -> None:
    """b := b U(diag)^-1 (upper triangular solve from the right)."""
    n = len(diag)
    for c in range(n):
        b[:, c] = (b[:, c] - b[:, :c] @ diag[:c, c]) / diag[c, c]


class LuApp(DsmApp):
    name = "lu"
    Config = LuConfig

    # ------------------------------------------------------------------
    def configure(self, cluster: Any) -> None:
        n = self.cfg.matrix_size
        self.r_a = cluster.allocate("matrix", n * n)

    def init_shared(self, cluster: Any) -> None:
        cluster.write_initial(self.r_a, _initial_matrix(self.cfg).ravel())

    # ------------------------------------------------------------------
    def _block_ranges(self, bi: int, bj: int) -> List[Tuple[int, int]]:
        """Element ranges (one per row of the block) in the flat region."""
        cfg = self.cfg
        n, bs = cfg.matrix_size, cfg.block_size
        out = []
        for r in range(bi * bs, (bi + 1) * bs):
            lo = r * n + bj * bs
            out.append((lo, lo + bs))
        return out

    def _read_block(self, proc: DsmProcess, bi: int, bj: int) -> Iterator[Any]:
        bs = self.cfg.block_size
        out = np.empty((bs, bs))
        for r, (lo, hi) in enumerate(self._block_ranges(bi, bj)):
            row = yield from proc.read_range(self.r_a, lo, hi)
            out[r] = row
        return out

    def _write_block(
        self, proc: DsmProcess, bi: int, bj: int, values: np.ndarray
    ) -> Iterator[Any]:
        for r, (lo, hi) in enumerate(self._block_ranges(bi, bj)):
            row = yield from proc.write_range(self.r_a, lo, hi)
            row[:] = values[r]

    def run(self, proc: DsmProcess, state: Dict[str, Any]) -> Iterator[Any]:
        cfg = self.cfg
        nb, bs = cfg.n_blocks, cfg.block_size
        app = self
        flop = cfg.flop_cost

        def phase_factor(proc: DsmProcess, state: Dict, k: int) -> Iterator[Any]:
            if _owner(k, k, proc.n) == proc.pid:
                d = yield from app._read_block(proc, k, k)
                _factor_diag(d)
                yield from proc.compute(flop * bs**3 / 3)
                yield from app._write_block(proc, k, k, d)
            yield from proc.barrier()

        def phase_panel(proc: DsmProcess, state: Dict, k: int) -> Iterator[Any]:
            d = yield from app._read_block(proc, k, k)
            work = 0
            for j in range(k + 1, nb):
                if _owner(k, j, proc.n) == proc.pid:
                    b = yield from app._read_block(proc, k, j)
                    _solve_lower(d, b)
                    yield from app._write_block(proc, k, j, b)
                    work += 1
            for i in range(k + 1, nb):
                if _owner(i, k, proc.n) == proc.pid:
                    b = yield from app._read_block(proc, i, k)
                    _solve_upper(d, b)
                    yield from app._write_block(proc, i, k, b)
                    work += 1
            if work:
                yield from proc.compute(flop * work * bs**3 / 2)
            yield from proc.barrier()

        def phase_update(proc: DsmProcess, state: Dict, k: int) -> Iterator[Any]:
            work = 0
            row_cache: Dict[int, np.ndarray] = {}
            col_cache: Dict[int, np.ndarray] = {}
            for i in range(k + 1, nb):
                for j in range(k + 1, nb):
                    if _owner(i, j, proc.n) != proc.pid:
                        continue
                    if i not in col_cache:
                        col_cache[i] = yield from app._read_block(proc, i, k)
                    if j not in row_cache:
                        row_cache[j] = yield from app._read_block(proc, k, j)
                    b = yield from app._read_block(proc, i, j)
                    b -= col_cache[i] @ row_cache[j]
                    yield from app._write_block(proc, i, j, b)
                    work += 1
            if work:
                yield from proc.compute(flop * work * 2 * bs**3)
            yield from proc.barrier()

        yield from phase_loop(
            proc, state, nb, [phase_factor, phase_panel, phase_update]
        )

    # ------------------------------------------------------------------
    def check_result(self, cluster: Any) -> None:
        got = cluster.shared_snapshot(self.r_a)
        want = golden(reference_lu, self.cfg).ravel()
        assert_close(got, want, rtol=1e-9, atol=1e-10)
