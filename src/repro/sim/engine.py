"""Discrete-event simulation engine with coroutine trampolining.

The engine owns a virtual clock and a priority queue of events. Simulated
processes are plain Python generators: they ``yield`` *effects* and the
engine resumes them when the effect completes. Two effects exist:

a ``float``
    A delay: resume the coroutine after that many seconds of virtual
    time. It must not be negative (``ValueError``); a ``float`` subclass
    such as ``numpy.float64`` is a delay too.

``Future``
    Resume the coroutine when some other party calls
    :meth:`Future.resolve`; the resolved value is returned by the
    ``yield`` expression.

Composition uses ``yield from``: any blocking sub-operation is itself a
generator, so deep call stacks of DSM operations need no threads and the
whole simulation is single-threaded and deterministic — a run is a pure
function of its configuration. Determinism is what makes the paper's
piece-wise-deterministic replay (§4.3) testable.

Fast path
---------
Events are plain ``(time, seq, fn)`` tuples ordered by ``(time, seq)``;
``seq`` is a single global counter, so events at equal times fire in
scheduling order. Events scheduled *at the current instant*
(``call_soon``, zero delays, resolved-``Future`` continuations) go to a
FIFO **ready queue** instead of the time heap: appends happen at
non-decreasing ``(time, seq)``, so the deque is always sorted and the
main loop can merge it with the heap by comparing heads — one tuple
comparison instead of an O(log n) heap push + pop per immediate step.
Consecutive ready continuations therefore trampoline through the deque
without ever touching ``heapq``, while the merged execution order stays
bit-identical to a single (time, seq) priority queue.

A process is its own continuation: calling the :class:`SimProcess` runs
its next step, so a delay queues the process itself, and a resolved
``Future`` leaves its value in ``proc.inbox`` and queues it. Nothing a
process holds points back at it, so a finished one is freed by reference
counting. Steps, wakes and ``Network.send`` assign ``(time, seq)``
inline, exactly as :meth:`schedule` would.

Neither effect costs more than the simulation needs: a delay is the
number itself (the CPU model hands out one-element tuples of it, driven
with ``yield from``), and a ``Future``'s label is whatever tuple its
maker names it by, formatted only by ``repr`` and in errors.
"""

from __future__ import annotations

import heapq
import weakref
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Tuple, TypeVar

from repro.sim.trace import ENGINE_EVENT, EventBus

__all__ = [
    "back_ref",
    "Future",
    "Engine",
    "SimProcess",
    "SimProcessKilled",
    "SimulationError",
]


T = TypeVar("T")

#: engine steps after which :meth:`Engine.run` calls the run a livelock
MAX_STEPS = 500_000_000


def back_ref(owner: T) -> T:
    """A weak proxy of ``owner``, for an object that ``owner`` holds to
    reach it without closing a reference cycle (a proxy passes as is).

    A cluster owns its hosts, a host its protocol and FT manager, a
    manager its replicator: each reaches its owner through one of these,
    so a dropped cluster is freed by reference counting alone.
    """
    if isinstance(owner, weakref.ProxyTypes):
        return owner
    return weakref.proxy(owner)


class SimulationError(RuntimeError):
    """Raised for internal inconsistencies in the simulation."""


class SimProcessKilled(Exception):
    """Thrown into a coroutine when its process is fail-stopped."""


class Future:
    """A one-shot resolvable value; coroutines block on it by yielding it.

    Multiple coroutines may wait on the same future; all are resumed with
    the same value (in registration order, at the same virtual instant).
    The waiters are the waiting :class:`SimProcess` objects.
    ``label`` names it, say ``("fetch", page, pid)``; only ``repr`` and
    the errors below format it.
    """

    __slots__ = ("_resolved", "_value", "_waiters", "label")

    def __init__(self, label: Any = ()) -> None:
        self._resolved = False
        self._value: Any = None
        self._waiters: List[SimProcess] = []
        self.label = label

    @property
    def value(self) -> Any:
        if not self._resolved:
            raise SimulationError(f"future {self.label!r} read before resolution")
        return self._value

    def resolve(self, value: Any = None) -> None:
        if self._resolved:
            raise SimulationError(f"future {self.label!r} resolved twice")
        self._resolved = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            _wake(proc, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "resolved" if self._resolved else "pending"
        return f"<Future {self.label!r} {state}>"


Coroutine = Generator[Any, Any, Any]

#: an engine event: (time, seq, fn) — seq is globally unique, so tuple
#: comparison never reaches the (uncomparable) callable
_Event = Tuple[float, int, Callable[[], None]]


class SimProcess:
    """Handle for a spawned coroutine; supports fail-stop kills.

    Calling it runs the coroutine's next step: the process is the event
    callable the engine queues, so it needs no continuation object that
    would point back at it.
    """

    __slots__ = ("gen", "name", "alive", "done", "result", "engine", "inbox")

    def __init__(self, engine: "Engine", gen: Coroutine, name: str) -> None:
        self.engine = engine
        self.gen = gen
        self.name = name
        self.alive = True
        self.done = False
        self.result: Any = None
        #: the value the next step sends in (a resolved future's; None
        #: for a delay's resume and the first step)
        self.inbox: Any = None

    def __call__(self) -> None:
        if not self.alive or self.done:
            return
        value = self.inbox
        if value is not None:
            self.inbox = None
        try:
            effect = self.gen.send(value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            return
        # inline effect dispatch and scheduling (the hottest call site in
        # the simulator): the same (time, seq) ``schedule`` would assign
        if isinstance(effect, float):
            engine = self.engine
            seq = engine._seq
            engine._seq = seq + 1
            if effect > 0.0:
                heapq.heappush(engine._queue, (engine.now + effect, seq, self))
            elif effect == 0.0:
                engine._ready.append((engine.now, seq, self))
            else:
                raise ValueError(f"negative delay: {effect!r}")
        elif isinstance(effect, Future):
            if effect._resolved:
                _wake(self, effect._value)
            else:
                effect._waiters.append(self)
        else:
            raise SimulationError(
                f"process {self.name} yielded unsupported effect {effect!r}"
            )

    def kill(self) -> None:
        """Fail-stop this process: it never runs again.

        The generator is closed so that ``finally`` blocks run, but a
        fail-stopped process must not perform recovery actions there;
        application code treats :class:`SimProcessKilled` as a crash.
        """
        if not self.alive:
            return
        self.alive = False
        try:
            self.gen.throw(SimProcessKilled())
        except (SimProcessKilled, StopIteration):
            pass
        except RuntimeError:
            # generator already executing/closed; nothing more to do
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else ("alive" if self.alive else "killed")
        return f"<SimProcess {self.name} {state}>"


def _wake(proc: SimProcess, value: Any) -> None:
    """Resume ``proc`` with ``value`` at the current instant."""
    proc.inbox = value
    engine = proc.engine
    seq = engine._seq
    engine._seq = seq + 1
    engine._ready.append((engine.now, seq, proc))


class Engine:
    """Virtual-clock event loop.

    Events at equal times fire in scheduling order (a stable tiebreaker
    keeps the simulation deterministic). :meth:`run` drains the queue.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[_Event] = []  # time heap (delay > 0)
        self._ready: Deque[_Event] = deque()  # FIFO, sorted by (time, seq)
        self._seq = 0
        self.steps: int = 0
        #: step-indexed breakpoints for fault injection: sorted
        #: (step, fn) pairs; fn runs right after the event whose 1-based
        #: step count equals ``step``. Disabled (the common case) this
        #: costs one int comparison per event in the main loop.
        self._breakpoints: List[Tuple[int, Callable[[], None]]] = []
        self._next_break: int = -1
        #: set by :meth:`halt`; the main loop tests it before every event
        self._halted = False
        #: the run's one instrumentation seam (see ``sim.trace``); every
        #: layer reaches it through the engine it already holds. The main
        #: loop itself emits ``ENGINE_EVENT`` with the event's own
        #: ``(time, seq, fn)`` tuple right before it executes (so the
        #: event that raises is the last one seen, and ``steps`` is its
        #: step); with no subscriber that costs one local test per event,
        #: mirroring the breakpoint arm check.
        self.bus = EventBus()

    # ------------------------------------------------------------------
    # event scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            self._ready.append((self.now, seq, fn))
        else:
            heapq.heappush(self._queue, (self.now + delay, seq, fn))

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at the current virtual time, after pending work."""
        seq = self._seq
        self._seq = seq + 1
        self._ready.append((self.now, seq, fn))

    def pending(self) -> bool:
        """True while any event is scheduled, now or later."""
        return bool(self._ready or self._queue)

    def discard(self) -> None:
        """Drop every pending event and breakpoint.

        What a halted run leaves queued (deliveries in flight, process
        continuations, timers) reaches back to this engine; a cluster
        discards it when it is dropped, so that reference counting alone
        frees what it owned.
        """
        self._queue.clear()
        self._ready.clear()
        self._breakpoints.clear()
        self._next_break = -1

    def break_at_step(self, step: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` right after the ``step``-th event executes.

        The hook for systematic fault injection: events are the finest
        deterministic granularity of the simulation, so a (victim, step)
        pair names a reproducible crash point. ``fn`` runs outside any
        coroutine, with ``self.steps == step`` and the clock at that
        event's time; it may mutate processes and schedule new events.
        """
        if step <= self.steps:
            raise ValueError(
                f"breakpoint at step {step} but {self.steps} already executed"
            )
        self._breakpoints.append((step, fn))
        self._breakpoints.sort(key=lambda bp: bp[0])
        self._next_break = self._breakpoints[0][0]

    def _fire_breakpoints(self) -> None:
        while self._breakpoints and self._breakpoints[0][0] <= self.steps:
            _, fn = self._breakpoints.pop(0)
            fn()
        self._next_break = (
            self._breakpoints[0][0] if self._breakpoints else -1
        )

    # ------------------------------------------------------------------
    # coroutine trampoline
    # ------------------------------------------------------------------
    def spawn(self, gen: Coroutine, name: str = "proc") -> SimProcess:
        """Start driving a coroutine; returns its process handle."""
        proc = SimProcess(self, gen, name)
        self.call_soon(proc)
        return proc

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def halt(self) -> None:
        """Make the running :meth:`run` return before its next event."""
        self._halted = True

    def run(self) -> float:
        """Process events until the queue drains or :meth:`halt` is called.

        Returns the final virtual time. A run past :data:`MAX_STEPS`
        events is a :class:`SimulationError`.
        """
        self._halted = False
        heap = self._queue
        ready = self._ready
        steps = self.steps
        limit = MAX_STEPS
        now = self.now
        taps = self.bus.listeners(ENGINE_EVENT)
        try:
            while ready or heap:
                if self._halted:
                    break
                # merge the sorted ready FIFO with the time heap: both are
                # ordered by (time, seq), so comparing heads reproduces the
                # exact total order of a single priority queue
                if ready and not (heap and heap[0] < ready[0]):
                    ev = ready.popleft()
                else:
                    ev = heapq.heappop(heap)
                t = ev[0]
                if t > now:
                    self.now = now = t
                elif t < now - 1e-12:
                    raise SimulationError("time went backwards")
                steps += 1
                self.steps = steps
                if taps:
                    for tap in taps:
                        tap(ev)
                ev[2]()
                if steps == self._next_break:
                    self._fire_breakpoints()
                if steps > limit:
                    raise SimulationError(
                        f"exceeded {limit} events; suspected livelock "
                        f"at t={now}"
                    )
        finally:
            self.steps = steps
        return self.now
