"""A finished cluster frees itself.

The cluster is the root of what a run builds, and nothing it owns holds a
strong reference back to it (DESIGN.md §5, "Ownership"). So dropping the
last outside reference frees the cluster and everything it owns by
reference counting alone, with no help from the cyclic collector: right
after ``del``, weak references to the cluster, its engine and every
host's protocol and FT manager are dead, and a collection finds no
``repro`` object left to collect.
"""

from __future__ import annotations

import gc
import weakref
from typing import Any, Callable, List, Tuple

import pytest

from repro import DsmConfig
from repro.apps.base import DsmApp
from repro.baselines import CoordinatedCluster
from repro.core import FtConfig
from repro.faultinject import Schedule
from repro.faultinject.campaign import CrashPoint
from repro.faultinject.mutants import MUTANTS
from repro.observe import INVARIANTS, ClusterObserver, InvariantMonitor
from repro.sim.engine import Future
from repro.sim.trace import FAILURE, RECOVERY_BEGIN
from tests.conftest import make_app, make_cluster

FAST_DETECT = {"failure_detection_delay": 2e-3}


def _base() -> Tuple[Any, List[Any]]:
    cluster = make_cluster(num_procs=4)
    cluster.run(make_app("counter"))
    return cluster, []


def _ft() -> Tuple[Any, List[Any]]:
    cluster = make_cluster(num_procs=4, ft=True)
    cluster.run(make_app("counter"))
    return cluster, []


def _replicated_crash() -> Tuple[Any, List[Any]]:
    cluster = make_cluster(
        num_procs=4, ft=True, ft_config=FtConfig(replicate=True), **FAST_DETECT
    )
    cluster.schedule_crash(1, 0.002)
    result = cluster.run(make_app("counter"))
    assert (result.crashes, result.recoveries) == (1, 1)
    return cluster, []


def _sweep_point() -> Tuple[Any, List[Any]]:
    schedule = Schedule(
        "counter", 4, 0.2, config={"steps": 2, "n_elements": 256}
    )
    sweep = schedule.sweep()
    sweep.run_reference()
    cluster = schedule.cluster()
    point = CrashPoint("every", sweep.reference_steps // 2, 1, None)
    assert sweep.run_point(point, cluster).outcome == "recovered"
    return cluster, [sweep]


def _observed() -> Tuple[Any, List[Any]]:
    cluster = make_cluster(
        num_procs=4, ft=True, ft_config=FtConfig(replicate=True), **FAST_DETECT
    )
    observer = ClusterObserver(
        cluster, interval=1e-3, sample_on_barrier=True, window_s=1e-3
    )
    cluster.schedule_crash(1, 0.002)
    cluster.run(make_app("session"))
    observer.sample()
    return cluster, [observer]


def _coordinated() -> Tuple[Any, List[Any]]:
    cluster = CoordinatedCluster(DsmConfig(num_procs=4), l_fraction=0.1)
    cluster.run(make_app("counter"))
    return cluster, []


def _sabotaged(name: str, mutant: str):
    """A monitored run built and run under a mutant of the table, which
    patches classes, not the objects of this run."""

    def scenario() -> Tuple[Any, List[Any]]:
        with MUTANTS[mutant]():
            cluster = make_cluster(num_procs=4, ft=True)
            monitor = InvariantMonitor(cluster)
            try:
                cluster.run(make_app("counter"))
            except Exception:  # the sabotage may kill the run after detection
                pass
            assert monitor.finish()
        return cluster, [monitor]

    scenario.__name__ = f"_{name}"
    return scenario


SCENARIOS: List[Callable[[], Tuple[Any, List[Any]]]] = [
    _base, _ft, _replicated_crash, _sweep_point, _observed, _coordinated,
    *(_sabotaged(f"seeded_{kind}", kind) for kind in INVARIANTS),
    _sabotaged("drop_first_forward", "drop_first_forward"),
]


def _repro_garbage() -> List[str]:
    """Type names of the ``repro`` objects a full collection finds."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
    finally:
        gc.set_debug(0)
    found = sorted({
        f"{type(o).__module__}.{type(o).__qualname__}"
        for o in gc.garbage
        if type(o).__module__.startswith("repro")
    })
    gc.garbage.clear()
    return found


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda f: f.__name__[1:])
def test_a_dropped_cluster_is_freed_by_reference_counting(scenario):
    gc.collect()  # what earlier tests left is not this run's
    cluster, attached = scenario()
    refs = {"cluster": weakref.ref(cluster), "engine": weakref.ref(cluster.engine)}
    for host in cluster.hosts:
        refs[f"p{host.pid}.proto"] = weakref.ref(host.proto)
        if host.ft is not None:
            refs[f"p{host.pid}.ft"] = weakref.ref(host.ft)
    del cluster, host, attached[:]
    alive = [name for name, ref in refs.items() if ref() is not None]
    assert alive == []
    assert _repro_garbage() == []


def test_a_crashed_incarnation_is_freed_once_recovery_starts():
    """The victim's protocol and FT manager die with the crash: nothing
    that outlives the incarnation reaches them."""
    cluster = make_cluster(
        num_procs=4, ft=True, ft_config=FtConfig(replicate=True), **FAST_DETECT
    )
    hosts = cluster.hosts
    dead: List[Tuple[weakref.ref, weakref.ref]] = []
    freed: List[List[bool]] = []

    def on_failure(pid: int) -> None:
        dead.append((weakref.ref(hosts[pid].proto), weakref.ref(hosts[pid].ft)))

    def on_begin(pid: int, _incarnation: int) -> None:
        freed.append([ref() is None for ref in dead[-1]])

    cluster.engine.bus.subscribe(FAILURE, on_failure)
    cluster.engine.bus.subscribe(RECOVERY_BEGIN, on_begin)
    cluster.schedule_crash(1, 0.002)
    cluster.run(make_app("counter"))
    assert freed == [[True, True]]


class _Stuck(DsmApp):
    """Every process waits on a future nobody resolves."""

    def configure(self, cluster):
        cluster.allocate("x", 64)

    def run(self, proc, state):
        yield Future(("never",))


def test_a_deadlocked_run_is_freed_too():
    """A coroutine blocked on a future is a cycle with it; the dropped
    cluster kills its live coroutines."""
    cluster = make_cluster(num_procs=2)
    with pytest.raises(RuntimeError, match="deadlock"):
        cluster.run(_Stuck())
    refs = [weakref.ref(cluster)] + [weakref.ref(h.proto) for h in cluster.hosts]
    del cluster
    assert [ref() for ref in refs] == [None] * 3
