"""Application contract for DSM workloads.

An application is written against the public DSM API
(:class:`repro.dsm.protocol.DsmProcess`) as a coroutine. Two rules make
it checkpointable and replayable (DESIGN.md §1, "processor state"
substitution):

1. **All private mutable state lives in the ``state`` dict** handed to
   :meth:`DsmApp.run` (NumPy arrays, scalars, seeded RNGs — anything
   pickleable). Locals are fine only if derived deterministically from
   ``state`` and shared reads.
2. **``run`` is resumable**: given a ``state`` captured at any
   ``proc.ckpt_point()`` it continues exactly where that state says.
   The :func:`phase_loop` helper structures an app as numbered phases per
   step and inserts the safe points so that rule 2 holds by construction.

Determinism: any randomness must come from RNGs stored in ``state`` (so
they are checkpointed) and seeded from the app config.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.dsm.protocol import DsmProcess

__all__ = [
    "AppConfig",
    "DsmApp",
    "assert_close",
    "golden",
    "phase_loop",
    "block_partition",
]


@dataclass
class AppConfig:
    """Base class for per-application configuration."""

    steps: int = 4
    seed: int = 42


@functools.lru_cache(maxsize=8)
def _golden(
    model: Callable[[Any], np.ndarray], cfg_type: type, fields: Tuple
) -> np.ndarray:
    want = model(cfg_type(*fields))
    want.setflags(write=False)
    return want


def golden(model: Callable[[Any], np.ndarray], cfg: AppConfig) -> np.ndarray:
    """``model(cfg)``, the sequential golden output, integrated once per
    process for each config value.

    A golden model is a pure function of its config's fields, and one
    config is checked against many times: base and FT runs of a setup,
    every point of a crash sweep. The few most recent outputs are kept,
    read-only; an input the model rejects raises on every call.
    """
    return _golden(model, type(cfg), dataclasses.astuple(cfg))


def assert_close(got: Any, want: Any, rtol: float, atol: float) -> None:
    """Pass when ``got`` and ``want`` have one shape and ``|got - want| <=
    atol + rtol * |want|`` holds elementwise, NaN matching NaN; otherwise
    raise an ``AssertionError`` naming how many elements differ and the
    largest absolute and relative error among them.

    This is what ``numpy.testing.assert_allclose`` tests. A result check
    runs in every process that runs an app, and ``numpy.testing`` would
    load ``unittest`` and some sixty more modules into each of them.
    """
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        raise AssertionError(f"shapes differ: {got.shape} != {want.shape}")
    bad = ~np.isclose(got, want, rtol=rtol, atol=atol, equal_nan=True)
    n_bad = int(np.count_nonzero(bad))
    if n_bad:
        with np.errstate(invalid="ignore", divide="ignore"):
            err = np.abs(got[bad] - want[bad])
            rel = err / np.abs(want[bad])
        raise AssertionError(
            f"not close at rtol={rtol}, atol={atol}: {n_bad} of {got.size} "
            f"elements differ; largest absolute error {err.max():.6g}, "
            f"largest relative error {rel.max():.6g}"
        )


class DsmApp:
    """One shared-memory workload.

    ``Config`` names the app's configuration class: ``App(cfg)`` runs
    ``cfg`` and ``App()`` that class's defaults. An app without a config
    defines its own ``__init__``. Each process starts from the state
    ``{"step": 0, "phase": 0}``, the position :func:`phase_loop` resumes
    from; an app that keeps more private state overrides
    :meth:`init_state`.
    """

    name: str = "app"
    Config: type = AppConfig

    def __init__(self, cfg: Optional[AppConfig] = None) -> None:
        self.cfg = cfg or self.Config()

    def configure(self, cluster: Any) -> None:
        """Allocate shared regions (and optionally assign homes)."""
        raise NotImplementedError

    def init_shared(self, cluster: Any) -> None:
        """Fill initial shared contents (before sharing starts).

        Runs once, outside the simulation, writing directly into every
        process's backing store so all copies begin identical — the
        stand-in for the sequential initialization phase of SPLASH-2
        programs.
        """

    def init_state(self, pid: int) -> Dict[str, Any]:
        """The initial private (checkpointable) state of process ``pid``."""
        return {"step": 0, "phase": 0}

    def run(self, proc: DsmProcess, state: Dict[str, Any]) -> Iterator[Any]:
        """The process body (coroutine). Must follow the resumability rules."""
        raise NotImplementedError

    def check_result(self, cluster: Any) -> None:
        """Optional invariant check on the final shared memory (tests)."""


PhaseFn = Callable[[DsmProcess, Dict[str, Any], int], Iterator[Any]]


def phase_loop(
    proc: DsmProcess,
    state: Dict[str, Any],
    steps: int,
    phases: Sequence[PhaseFn],
) -> Iterator[Any]:
    """Run ``phases`` for each step, resumable from ``state``.

    ``state['step']`` / ``state['phase']`` encode the position; a
    checkpoint-safe point precedes every phase, so a restored state
    re-enters exactly at the phase it was captured before.
    """
    state.setdefault("step", 0)
    state.setdefault("phase", 0)
    while state["step"] < steps:
        while state["phase"] < len(phases):
            yield from proc.ckpt_point()
            yield from phases[state["phase"]](proc, state, state["step"])
            state["phase"] += 1
        state["phase"] = 0
        state["step"] += 1
    yield from proc.ckpt_point()


def block_partition(n_items: int, n_procs: int, pid: int) -> range:
    """Contiguous block partition of ``range(n_items)`` for ``pid``."""
    base = n_items // n_procs
    extra = n_items % n_procs
    lo = pid * base + min(pid, extra)
    hi = lo + base + (1 if pid < extra else 0)
    return range(lo, hi)
