"""Unit tests for the discrete-event engine and coroutine trampoline."""

import numpy as np
import pytest

from repro.sim.engine import (
    Engine,
    Future,
    SimProcessKilled,
    SimulationError,
)


def test_schedule_runs_in_time_order():
    eng = Engine()
    out = []
    eng.schedule(2.0, lambda: out.append("b"))
    eng.schedule(1.0, lambda: out.append("a"))
    eng.schedule(3.0, lambda: out.append("c"))
    eng.run()
    assert out == ["a", "b", "c"]
    assert eng.now == 3.0


def test_equal_times_fire_in_scheduling_order():
    eng = Engine()
    out = []
    for i in range(5):
        eng.schedule(1.0, lambda i=i: out.append(i))
    eng.run()
    assert out == [0, 1, 2, 3, 4]


def test_halt_returns_before_the_next_event_and_the_next_run_resumes():
    eng = Engine()
    out = []
    eng.schedule(1.0, lambda: (out.append("a"), eng.halt()))
    eng.schedule(1.0, lambda: out.append("b"))
    eng.schedule(2.0, lambda: out.append("c"))
    assert eng.run() == 1.0
    assert out == ["a"] and eng.steps == 1
    eng.run()
    assert out == ["a", "b", "c"] and eng.steps == 3


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.schedule(-1.0, lambda: None)

    def proc():
        yield -0.5

    eng.spawn(proc())
    with pytest.raises(ValueError, match="negative delay"):
        eng.run()


@pytest.mark.parametrize("delay", [0.0, 1.5, np.float64(0.25)])
def test_a_float_effect_resumes_where_schedule_would_put_it(delay):
    """A yielded float queues its process at the same ``(time, seq)``, in
    the same queue, as ``schedule`` would: the ready FIFO at zero, the
    time heap otherwise."""
    def queued(eng):
        return ([ev[:2] for ev in eng._ready], [ev[:2] for ev in eng._queue])

    def proc():
        yield delay

    eng, ref = Engine(), Engine()
    for e in (eng, ref):
        e.schedule(0.5, lambda: None)
        e.run()  # now = 0.5, seq 0 used
        e.break_at_step(2, e.halt)
    eng.spawn(proc())
    eng.run()  # the spawn step yields the delay and takes seq 2
    ref.call_soon(lambda: None)
    ref.run()
    ref.schedule(delay, lambda: None)
    assert queued(eng) == queued(ref)
    want = [(0.5 + delay, 2)]
    assert queued(eng) == ((want, []) if delay == 0.0 else ([], want))


@pytest.mark.parametrize("effect", [1, True, "1.0", None, (1.0,)])
def test_any_other_effect_is_a_simulation_error(effect):
    eng = Engine()

    def proc():
        yield effect

    eng.spawn(proc())
    with pytest.raises(SimulationError, match="unsupported effect"):
        eng.run()


def test_coroutine_delay_advances_clock():
    eng = Engine()
    times = []

    def proc():
        times.append(eng.now)
        yield 1.5
        times.append(eng.now)
        yield 0.5
        times.append(eng.now)

    eng.spawn(proc())
    eng.run()
    assert times == [0.0, 1.5, 2.0]


def test_future_resolution_resumes_with_value():
    eng = Engine()
    fut = Future("t")
    got = []

    def waiter():
        v = yield fut
        got.append(v)

    eng.spawn(waiter())
    eng.schedule(2.0, lambda: fut.resolve(42))
    eng.run()
    assert got == [42]
    assert eng.now == 2.0


def test_future_multiple_waiters_all_resume():
    eng = Engine()
    fut = Future()
    got = []

    def waiter(i):
        v = yield fut
        got.append((i, v))

    for i in range(3):
        eng.spawn(waiter(i))
    eng.schedule(1.0, lambda: fut.resolve("x"))
    eng.run()
    assert sorted(got) == [(0, "x"), (1, "x"), (2, "x")]


def test_future_double_resolve_raises():
    fut = Future()
    fut.resolve(1)
    with pytest.raises(SimulationError):
        fut.resolve(2)


def test_future_value_before_resolution_raises():
    fut = Future()
    with pytest.raises(SimulationError):
        _ = fut.value


def test_resolved_future_yields_immediately():
    eng = Engine()
    fut = Future()
    fut.resolve(7)
    got = []

    def proc():
        v = yield fut
        got.append((eng.now, v))

    eng.spawn(proc())
    eng.run()
    assert got == [(0.0, 7)]


def test_yield_from_composition():
    eng = Engine()
    order = []

    def inner():
        yield 1.0
        order.append("inner")
        return 99

    def outer():
        v = yield from inner()
        order.append(("outer", v, eng.now))

    eng.spawn(outer())
    eng.run()
    assert order == ["inner", ("outer", 99, 1.0)]


def test_kill_stops_process():
    eng = Engine()
    progressed = []

    def proc():
        try:
            while True:
                yield 1.0
                progressed.append(eng.now)
        except SimProcessKilled:
            raise

    handle = eng.spawn(proc())
    eng.schedule(2.5, handle.kill)
    eng.run()
    assert progressed == [1.0, 2.0]
    assert not handle.alive
    assert not handle.done


def test_killed_process_never_resumes_from_pending_future():
    eng = Engine()
    fut = Future()
    resumed = []

    def proc():
        v = yield fut
        resumed.append(v)

    handle = eng.spawn(proc())
    eng.schedule(1.0, handle.kill)
    eng.schedule(2.0, lambda: fut.resolve("late"))
    eng.run()
    assert resumed == []


def test_process_result_captured():
    eng = Engine()

    def proc():
        yield 1.0
        return "done"

    handle = eng.spawn(proc())
    eng.run()
    assert handle.done
    assert handle.result == "done"


def test_unsupported_effect_raises():
    eng = Engine()

    def proc():
        yield "not-an-effect"

    eng.spawn(proc())
    with pytest.raises(SimulationError, match="unsupported effect"):
        eng.run()


def test_determinism_same_schedule_same_trace():
    def build():
        eng = Engine()
        trace = []

        def proc(name, delay):
            for _ in range(3):
                yield delay
                trace.append((name, eng.now))

        eng.spawn(proc("a", 1.0))
        eng.spawn(proc("b", 0.7))
        eng.run()
        return trace

    assert build() == build()


# ---------------------------------------------------------------------------
# ready-queue fast path (the heap/FIFO merge must reproduce the exact
# total order of a single priority queue)
# ---------------------------------------------------------------------------


def test_ready_queue_and_heap_interleave_by_seq_at_equal_time():
    """A heap event and a ready event at the same timestamp fire in
    scheduling (seq) order, not source order."""
    eng = Engine()
    order = []

    def a():
        order.append("a")
        # lands in the ready FIFO at t=1.0 with a seq AFTER b's
        eng.call_soon(lambda: order.append("c"))

    eng.schedule(1.0, a)  # heap, seq 0
    eng.schedule(1.0, lambda: order.append("b"))  # heap, seq 1
    eng.run()
    # a ready-first (or heap-first) drain would produce a,c,b / wrong
    assert order == ["a", "b", "c"]


def test_zero_delay_events_fire_before_later_heap_events():
    eng = Engine()
    order = []
    eng.schedule(0.5, lambda: order.append("later"))
    eng.schedule(0.0, lambda: order.append("now1"))
    eng.call_soon(lambda: order.append("now2"))
    eng.run()
    assert order == ["now1", "now2", "later"]
    assert eng.now == 0.5


def test_already_resolved_future_resumes_after_pending_ready_events():
    """The resolved-before-wait fast path queues the continuation rather
    than resuming inline, so earlier zero-delay work still runs first."""
    eng = Engine()
    order = []
    fut = Future("pre")
    fut.resolve(42)

    def proc():
        order.append("start")
        got = yield fut
        order.append(("resumed", got, eng.now))

    eng.spawn(proc())
    eng.call_soon(lambda: order.append("queued"))
    eng.run()
    assert order == ["start", "queued", ("resumed", 42, 0.0)]


def test_kill_process_sitting_in_ready_queue():
    """kill() of a process whose continuation is already in the ready
    FIFO must prevent it from ever running."""
    eng = Engine()
    ran = []

    def victim():
        ran.append("victim")
        yield 1.0

    proc = eng.spawn(victim())  # first step queued via call_soon
    proc.kill()
    eng.run()
    assert ran == []
    assert not proc.alive and not proc.done


def test_kill_process_with_queued_future_continuation():
    eng = Engine()
    ran = []
    fut = Future()

    def victim():
        yield fut
        ran.append("resumed")

    proc = eng.spawn(victim())
    # at t=1.0 the resolve queues victim's continuation with a seq later
    # than the kill callback's, so the kill fires first and the queued
    # continuation must be a no-op
    eng.schedule(1.0, lambda: fut.resolve("v"))
    eng.schedule(1.0, lambda: proc.kill())
    eng.run()
    assert ran == []


# ----------------------------------------------------------------------
# step-indexed breakpoints (crash-sweep injection primitive)
# ----------------------------------------------------------------------


def test_breakpoint_fires_after_named_step():
    eng = Engine()
    fired = []

    def ticker():
        for _ in range(5):
            yield 1.0

    eng.spawn(ticker())
    eng.break_at_step(3, lambda: fired.append(eng.steps))
    eng.run()
    assert fired == [3]


def test_breakpoint_in_past_rejected():
    eng = Engine()

    def ticker():
        for _ in range(5):
            yield 1.0

    eng.spawn(ticker())
    eng.run()
    with pytest.raises(ValueError, match="already executed"):
        eng.break_at_step(2, lambda: None)


def test_multiple_breakpoints_fire_in_order():
    eng = Engine()
    fired = []

    def ticker():
        for _ in range(10):
            yield 1.0

    eng.spawn(ticker())
    eng.break_at_step(5, lambda: fired.append("b"))
    eng.break_at_step(2, lambda: fired.append("a"))
    eng.run()
    assert fired == ["a", "b"]


def test_unreached_breakpoint_is_harmless():
    eng = Engine()
    fired = []

    def ticker():
        yield 1.0

    eng.spawn(ticker())
    eng.break_at_step(10**9, lambda: fired.append("x"))
    eng.run()
    assert fired == []
