"""Deterministic discrete-event cluster simulator.

This package is the hardware substrate substituted for the paper's real
8-node Myrinet cluster (see DESIGN.md §1): a virtual-time event engine
(:mod:`repro.sim.engine`), a reliable FIFO network with a latency+bandwidth
cost model (:mod:`repro.sim.network`), per-node CPU time accounting
(:mod:`repro.sim.node`), a stable-storage model (:mod:`repro.sim.storage`)
and the run's event bus and flat timeline (:mod:`repro.sim.trace`).
Fail-stop failure injection and the cluster wiring that runs application
processes as coroutines live in :mod:`repro.cluster`.
"""
