"""SPLASH-2-analog applications driving the DSM (§5).

Scaled-down but algorithmically faithful reimplementations of the three
paper workloads, preserving the sharing patterns that drive the results:

* :mod:`repro.apps.barnes` — Barnes-Hut N-body: irregular access,
  barrier-intensive, imbalanced update volume across nodes.
* :mod:`repro.apps.water_nsq` — Water-Nsquared: O(n²) cutoff molecular
  dynamics with per-molecule locks, small footprint.
* :mod:`repro.apps.water_spatial` — Water-Spatial: 3-D cell-decomposed
  MD, regular iteration structure.
* :mod:`repro.apps.water` — the water system both water apps
  decompose: molecules, regions, pair term and golden integrator.
* :mod:`repro.apps.lu` — blocked LU decomposition (extra workload).

:data:`APPS` is the one table of runnable workloads; the command line's
``app`` choices and :func:`make_app` are both read off it.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional, Type

from repro.apps.barnes import BarnesApp
from repro.apps.base import DsmApp
from repro.apps.counter import CounterApp
from repro.apps.kvstore import KvStoreApp
from repro.apps.lu import LuApp
from repro.apps.session import SessionApp
from repro.apps.water_nsq import WaterNsqApp
from repro.apps.water_spatial import WaterSpatialApp, WaterSpatialConfig

__all__ = ["APPS", "make_app", "WaterSpatialApp", "WaterSpatialConfig"]


class AppSpec(NamedTuple):
    """How the command line's generic knobs map onto one workload (its
    config class is ``app.Config``)."""

    app: Type[DsmApp]
    size_field: str  # the config field ``--size`` sets
    has_steps: bool = True  # ``--steps`` applies (LU's length is its size)
    has_rate: bool = False  # ``--rate`` applies (open-loop apps only)

    def fields(
        self,
        steps: Optional[int] = None,
        size: Optional[int] = None,
        rate: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> Dict[str, Any]:
        """The config fields the knobs set; unset knobs keep the config's
        defaults, knobs the workload does not have are ignored."""
        knobs = {
            "seed": seed, self.size_field: size,
            "steps": steps if self.has_steps else None,
            "rate": rate if self.has_rate else None,
        }
        return {name: v for name, v in knobs.items() if v is not None}


APPS: Dict[str, AppSpec] = {
    "counter": AppSpec(CounterApp, "n_elements"),
    "kvstore": AppSpec(KvStoreApp, "n_keys"),
    "session": AppSpec(SessionApp, "n_keys", has_rate=True),
    "barnes": AppSpec(BarnesApp, "n_bodies"),
    "water-nsq": AppSpec(WaterNsqApp, "n_molecules"),
    "water-spatial": AppSpec(WaterSpatialApp, "n_molecules"),
    "lu": AppSpec(LuApp, "matrix_size", has_steps=False),
}


def make_app(name: str, **fields: Any) -> DsmApp:
    """A fresh instance of workload ``name`` whose config sets ``fields``
    (the command line's knobs give them through :meth:`AppSpec.fields`);
    the config's ``__post_init__`` rejects a bad one (``ValueError``)."""
    app = APPS[name].app
    return app(app.Config(**fields))
