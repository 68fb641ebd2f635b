"""Deterministic discrete-event cluster simulator.

This package is the hardware substrate substituted for the paper's real
8-node Myrinet cluster (see DESIGN.md §1): a virtual-time event engine
(:mod:`repro.sim.engine`), a reliable FIFO network with a latency+bandwidth
cost model (:mod:`repro.sim.network`), per-node CPU time accounting
(:mod:`repro.sim.node`), a stable-storage model (:mod:`repro.sim.storage`),
fail-stop failure injection (:mod:`repro.sim.failure`) and the cluster
wiring that runs application processes as coroutines
(:mod:`repro.sim.cluster`).
"""

from repro.sim.engine import Engine, Future, SimProcessKilled
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import TimeBucket, TimeStats
from repro.sim.storage import CheckpointStore, Disk, DiskConfig

__all__ = [
    "Engine",
    "Future",
    "SimProcessKilled",
    "Network",
    "NetworkConfig",
    "TimeBucket",
    "TimeStats",
    "Disk",
    "DiskConfig",
    "CheckpointStore",
]
