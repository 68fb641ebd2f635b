"""The water system both SPLASH-2 water codes simulate.

Water-Nsquared (:mod:`repro.apps.water_nsq`) and Water-Spatial
(:mod:`repro.apps.water_spatial`) integrate one molecular system under
two force decompositions. This module holds everything they share: the
config fields, the initial lattice, the shared regions, the static
parameter table, the soft Lennard-Jones-like pair term, and the golden
integrator that each app's ``check_result`` holds its run to.

The physics is a soft LJ-like pair force in a unit box with
minimum-image wrapping: enough to make the data flow (and therefore the
diffs) real without simulating actual water chemistry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Tuple

import numpy as np

from repro.apps.base import AppConfig, DsmApp, assert_close, golden
from repro.dsm.protocol import DsmProcess

__all__ = ["WaterConfig", "WaterApp", "pair_term", "integrate"]


@dataclass
class WaterConfig(AppConfig):
    """The fields both water apps have, at Water-Nsquared's defaults."""

    n_molecules: int = 64
    steps: int = 3
    cutoff: float = 0.45  # in box units
    dt: float = 1e-3
    pair_cost: float = 3e-6  # virtual seconds per pair interaction
    #: static shared parameter table (SPLASH water keeps large constant
    #: arrays in shared memory); sized in elements, written once
    static_elements: int = 0


def _initial_conditions(cfg: WaterConfig) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(cfg.seed)
    side = int(np.ceil(cfg.n_molecules ** (1 / 3)))
    grid = np.stack(
        np.meshgrid(*([np.arange(side)] * 3), indexing="ij"), axis=-1
    ).reshape(-1, 3)[: cfg.n_molecules]
    pos = (grid + 0.5) / side + rng.normal(0, 0.01, (cfg.n_molecules, 3))
    pos %= 1.0
    vel = rng.normal(0, 0.05, (cfg.n_molecules, 3))
    return pos, vel


def pair_term(
    d: np.ndarray, cutoff2: float
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The pull on one molecule from candidates at displacements ``d``
    (one row each, wrapped in place to the minimum image): the indices
    of the candidates within the cutoff, and the force term of each
    (``None`` when there is none)."""
    d -= np.rint(d)  # minimum image in the unit box
    r2 = np.einsum("ij,ij->i", d, d)
    mask = (r2 < cutoff2) & (r2 > 1e-12)
    idx = mask.nonzero()[0]
    if len(idx) == 0:
        return idx, None
    r2m = r2[idx]
    # soft LJ-like magnitude, bounded to keep the integrator stable (what
    # np.clip computes, without its Python wrappers)
    mag = 1e-4 / (r2m * r2m) - 1e-4 / r2m
    np.minimum(np.maximum(mag, -10.0, out=mag), 10.0, out=mag)
    return idx, (mag / np.sqrt(r2m))[:, None] * d[idx]


def integrate(
    cfg: WaterConfig, forces: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Sequential golden model: final positions after ``cfg.steps``, the
    force on every molecule coming from ``forces(pos)``."""
    pos, vel = _initial_conditions(cfg)
    for _ in range(cfg.steps):
        vel += cfg.dt * forces(pos)
        pos += cfg.dt * vel
        pos %= 1.0
    return pos


class WaterApp(DsmApp):
    """The shared part of a water app: regions ``pos``, ``vel`` and
    ``force`` (then the app's own, then ``params``), their initial
    contents, and the check against the golden model."""

    #: the app's sequential golden model (a module function, so that
    #: :func:`golden` caches it once for every instance) and
    #: ``check_result``'s tolerances against it
    reference: Callable[[Any], np.ndarray]
    rtol: float
    atol: float

    def configure_own(self, cluster: Any) -> None:
        """Allocate the regions only this decomposition has."""

    def configure(self, cluster: Any) -> None:
        n = self.cfg.n_molecules
        self.r_pos = cluster.allocate("pos", n * 3)
        self.r_vel = cluster.allocate("vel", n * 3)
        self.r_force = cluster.allocate("force", n * 3)
        self.configure_own(cluster)
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

    def read_params(self, proc: DsmProcess) -> Iterator[Any]:
        """One-time read of the static parameter table (fetch, then the
        pages stay valid for the whole run)."""
        if self.cfg.static_elements:
            yield from proc.read_range(self.r_params, 0, self.cfg.static_elements)

    def check_result(self, cluster: Any) -> None:
        got = cluster.shared_snapshot(self.r_pos)[: self.cfg.n_molecules * 3]
        want = golden(self.reference, self.cfg).ravel()
        assert_close(got, want, rtol=self.rtol, atol=self.atol)
