"""The instrumentation seam (``repro.sim.trace.EventBus``): detached is
free, nothing is monkey-patched, the catalogue is closed and live, and
subscribers compose in any number and order."""

from __future__ import annotations

import functools
import inspect

import pytest

from repro.core import FtConfig
from repro.observe import (
    ClusterObserver,
    FlightRecorder,
    InvariantMonitor,
    SpanTracer,
)
from repro.sim.engine import Engine
from repro.sim.trace import CATALOGUE, ENGINE_EVENT, EventBus, Tracer

from tests.conftest import make_app, make_cluster


def session_cluster():
    return make_cluster(
        num_procs=4, ft=True, l_fraction=0.1, ft_config=FtConfig(replicate=True)
    )


@functools.lru_cache(maxsize=None)
def session_runtime() -> float:
    return session_cluster().run(make_app("session")).wall_time


def attach_everything(cluster):
    return {
        "observer": ClusterObserver(cluster, interval=1e-3, window_s=1e-3),
        "spans": SpanTracer(cluster),
        "monitor": InvariantMonitor(cluster),
        "flat": Tracer(cluster),
    }


# ----------------------------------------------------------------------
# detached is free; attached patches nothing
# ----------------------------------------------------------------------
def test_no_subscriber_means_no_emit(monkeypatch):
    def emit(self, kind, *payload):
        raise AssertionError(f"{kind} emitted with nothing subscribed")

    monkeypatch.setattr(EventBus, "emit", emit)
    cluster = session_cluster()
    cluster.schedule_crash(1, at_time=0.5 * session_runtime())
    result = cluster.run(make_app("session"))
    assert result.crashes == 1 and result.recoveries == 1
    assert not cluster.engine.bus.active


def test_subscribers_patch_nothing():
    cluster = session_cluster()
    attach_everything(cluster)
    cluster.schedule_crash(1, at_time=0.5 * session_runtime())
    cluster.run(make_app("session"))

    objects = [cluster, cluster.network, cluster.engine, cluster.engine.bus]
    for host in cluster.hosts:
        objects += [host, host.proto, host.proto.cpu.stats, host.ft, host.ft.repl]
    assert all(o is not None for o in objects)
    for obj in objects:
        for name, value in vars(obj).items():
            shadowed = inspect.getattr_static(type(obj), name, None)
            assert not (callable(value) and callable(shadowed)), (
                f"{type(obj).__name__}.{name} was replaced on an instance"
            )


# ----------------------------------------------------------------------
# the catalogue is closed and live
# ----------------------------------------------------------------------
def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown event kind"):
        Engine().bus.subscribe("lock_acquird", print)


def test_every_catalogued_kind_is_emitted():
    """Two overlapping crashes of a replicated session run (the second
    victim is the first one's replica holder, so its recovery fetches
    from a buddy) exercise the whole catalogue; a kind nothing emits
    should be deleted from it."""
    def cluster():
        return make_cluster(
            num_procs=4, ft=True, l_fraction=0.05,
            ft_config=FtConfig(replicate=True),
        )

    t = cluster().run(make_app("session", steps=4)).wall_time
    observed = cluster()
    seen = {}

    def saw(kind, *payload):
        assert len(payload) == len(CATALOGUE[kind]), (kind, payload)
        seen[kind] = seen.get(kind, 0) + 1

    for kind in CATALOGUE:
        observed.engine.bus.subscribe(kind, functools.partial(saw, kind))
    observed.schedule_crash(1, at_time=0.4 * t)
    observed.schedule_crash(2, at_time=0.5 * t)
    result = observed.run(make_app("session", steps=4))
    assert result.crashes == 2 and result.recoveries == 2
    assert sorted(seen) == sorted(CATALOGUE)


# ----------------------------------------------------------------------
# any number of subscribers, in any order
# ----------------------------------------------------------------------
def test_every_engine_event_subscriber_sees_every_step():
    cluster = make_cluster(num_procs=4, ft=True, l_fraction=0.1)
    first, second, late = [], [], []
    bus = cluster.engine.bus
    bus.subscribe(ENGINE_EVENT, lambda t, step, fn: first.append(step))
    bus.subscribe(ENGINE_EVENT, lambda t, step, fn: second.append(step))
    # one that arrives while the loop is already running
    cluster.engine.schedule(
        1e-3,
        lambda: bus.subscribe(ENGINE_EVENT, lambda t, step, fn: late.append(step)),
    )
    cluster.run(make_app("counter"))
    steps = cluster.engine.steps
    assert first == second == list(range(1, steps + 1))
    assert late and late == list(range(late[0], steps + 1))


def test_two_monitors_and_a_bare_recorder_lose_nothing():
    cluster = make_cluster(num_procs=4, ft=True, l_fraction=0.1)
    one = InvariantMonitor(cluster)
    two = InvariantMonitor(cluster)
    bare = FlightRecorder(ring_size=10**6)
    bare.attach(cluster.engine)
    cluster.run(make_app("counter"))
    assert not one.finish() and not two.finish()
    assert one.checks == two.checks
    assert one.recorder.recorded == two.recorder.recorded == bare.recorded
    assert one.recorder.dump() == two.recorder.dump() == bare.dump()[-256:]
    engine_steps = [e["step"] for e in bare.dump() if e["rec"] == "engine"]
    assert engine_steps == list(range(1, cluster.engine.steps + 1))
