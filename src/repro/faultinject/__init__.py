"""Crash-point sweep fault-injection campaign (robustness harness).

The campaign turns the simulator's determinism into a verification tool:
a failure-free *reference run* is traced with engine step indices, every
interesting point in its event order becomes a crash point, and the
application is re-run once per point with a fail-stop injected exactly
there. Each injected run must either fully recover — final shared memory
bit-identical to the reference — or degrade *explicitly* (a clean
:class:`~repro.core.recovery.OverlappingFailureError` diagnostic for
second failures that exceed the paper's single-fault model). Silent
divergence, hangs and leaked messages are campaign failures.
"""

from repro.faultinject.campaign import (
    SWEEP_SCHEMA,
    CrashPoint,
    CrashSweep,
    OracleViolation,
    PointResult,
    Schedule,
    SweepSummary,
    accepted,
    check_oracle,
    recovery_distributions,
    render_sweep,
    validate_sweep,
)

__all__ = [
    "SWEEP_SCHEMA",
    "CrashPoint",
    "CrashSweep",
    "OracleViolation",
    "PointResult",
    "Schedule",
    "SweepSummary",
    "accepted",
    "check_oracle",
    "recovery_distributions",
    "render_sweep",
    "validate_sweep",
]
