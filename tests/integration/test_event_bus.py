"""The instrumentation seam (``repro.sim.trace.EventBus``): detached is
free, nothing is monkey-patched, the catalogue is closed and live, and
subscribers compose in any number and order."""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect

import pytest

from repro.core import FtConfig
from repro.dsm.vclock import VClock
from repro.observe import ClusterObserver, InvariantMonitor
from repro.observe.invariants.recorder import FlightRecorder
from repro.observe.tracing.spans import SpanTracer
from repro.sim.engine import Engine
from repro.sim.trace import CATALOGUE, ENGINE_EVENT, TEXT, EventBus, timeline

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
        "flat": timeline(cluster.engine, {c for c, _ in TEXT.values()}),
    }


# ----------------------------------------------------------------------
# detached is free; attached patches nothing
# ----------------------------------------------------------------------
def spy_on_emit(monkeypatch):
    """Every ``EventBus.emit`` call's kind, in order."""
    kinds = []
    emit = EventBus.emit

    def spy(self, kind, *payload):
        kinds.append(kind)
        emit(self, kind, *payload)

    monkeypatch.setattr(EventBus, "emit", spy)
    return kinds


def test_no_subscriber_means_no_emit(monkeypatch):
    emitted = spy_on_emit(monkeypatch)
    cluster = session_cluster()
    cluster.schedule_crash(1, at_time=0.5 * session_runtime())
    result = cluster.run(make_app("session"))
    assert result.crashes == 1 and result.recoveries == 1
    assert emitted == []
    assert not any(cluster.engine.bus.on.values())


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


def plain(x):
    """A payload as values comparable across runs: clocks as tuples,
    messages field by field, any other object by its type."""
    if x is None or isinstance(x, (bool, int, float, str, bytes, enum.Enum)):
        return x
    if isinstance(x, VClock):
        return tuple(x)
    if isinstance(x, (tuple, list)):
        return tuple(plain(y) for y in x)
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            plain(getattr(x, f.name)) for f in dataclasses.fields(x)
        )
    return type(x).__name__


def catalogue_cluster():
    return make_cluster(
        num_procs=4, ft=True, l_fraction=0.05, ft_config=FtConfig(replicate=True)
    )


@functools.lru_cache(maxsize=None)
def catalogue_runtime() -> float:
    return catalogue_cluster().run(make_app("session", steps=4)).wall_time


def catalogue_run(kinds):
    """Two overlapping crashes of a replicated session run (the second
    victim is the first one's replica holder, so its recovery fetches
    from a buddy), which exercise the whole catalogue: kind -> the plain
    payloads a subscriber to each of ``kinds`` saw."""
    cluster = catalogue_cluster()
    seen = {kind: [] for kind in kinds}
    for kind in kinds:
        cluster.engine.bus.subscribe(
            kind, lambda *payload, out=seen[kind]: out.append(plain(payload))
        )
    t = catalogue_runtime()
    cluster.schedule_crash(1, at_time=0.4 * t)
    cluster.schedule_crash(2, at_time=0.5 * t)
    result = cluster.run(make_app("session", steps=4))
    assert result.crashes == 2 and result.recoveries == 2
    return seen


@functools.lru_cache(maxsize=None)
def everything_seen():
    return catalogue_run(tuple(CATALOGUE))


def test_every_catalogued_kind_is_emitted():
    """A kind nothing emits should be deleted from the catalogue."""
    seen = everything_seen()
    for kind, payloads in seen.items():
        assert payloads, f"{kind} never emitted"
        assert {len(p) for p in payloads} == {len(CATALOGUE[kind])}, kind
    # an engine event is the engine's own (time, seq, fn) tuple
    events = [event for (event,) in seen[ENGINE_EVENT]]
    assert all(len(e) == 3 for e in events)
    times = [t for t, _, _ in events]
    assert times == sorted(times)
    assert len({seq for _, seq, _ in events}) == len(events)


@pytest.mark.parametrize("kind", list(CATALOGUE))
def test_a_lone_subscriber_sees_what_everyone_sees(kind, monkeypatch):
    """Emit sites test their own kind: subscribing to one kind alone
    loses none of its events, and emits no other kind to nobody."""
    everything = everything_seen()
    emitted = spy_on_emit(monkeypatch)
    assert catalogue_run((kind,))[kind] == everything[kind]
    assert set(emitted) <= {kind}


# ----------------------------------------------------------------------
# any number of subscribers, in any order
# ----------------------------------------------------------------------
def test_every_engine_event_subscriber_sees_every_step():
    cluster = make_cluster(num_procs=4, ft=True, l_fraction=0.1)
    engine = cluster.engine
    first, second, late = [], [], []
    bus = engine.bus
    bus.subscribe(ENGINE_EVENT, lambda event: first.append(engine.steps))
    bus.subscribe(ENGINE_EVENT, lambda event: second.append(engine.steps))
    # one that arrives while the loop is already running
    engine.schedule(
        1e-3,
        lambda: bus.subscribe(
            ENGINE_EVENT, lambda event: late.append(engine.steps)
        ),
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
