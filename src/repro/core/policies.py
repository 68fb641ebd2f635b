"""Checkpointing policies (§5.1 and the §5.4 discussion).

The decision of *when* a node checkpoints is purely local. The paper
evaluates the **log-overflow (OF)** policy: checkpoint when the volatile
log exceeds a fraction ``L`` of the shared-memory footprint (L = 1.0 for
Barnes, 0.1 for the Water apps). Its conclusions sketch a
**barrier-coordinated** alternative (every process checkpoints at the
same barriers, amortizing the coordination the application already
performs), which ablation A2 measures.

Policies are consulted at synchronization points only — matching the
paper's restriction that all logging/trimming happens at sync points —
and may inspect the whole FT manager. A requested checkpoint is taken at
the application's next ``ckpt_point()`` safe point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ftmanager import FtManager

__all__ = [
    "CheckpointPolicy",
    "LogOverflowPolicy",
    "BarrierCoordinatedPolicy",
]


class CheckpointPolicy:
    """Decides at each sync point whether to take a checkpoint now."""

    def should_checkpoint(self, ft: "FtManager", at_barrier: bool) -> bool:
        raise NotImplementedError


class LogOverflowPolicy(CheckpointPolicy):
    """Checkpoint when the volatile diff log exceeds ``L × footprint``.

    The paper's OF policy. ``L`` trades checkpoint frequency against
    retained log volume; the sampling happens only at sync points, so the
    log can overshoot the threshold (the "imprecision" discussed with
    Figure 4).
    """

    def __init__(self, l_fraction: float, footprint_bytes: int) -> None:
        if l_fraction <= 0:
            raise ValueError("L must be positive")
        if footprint_bytes <= 0:
            raise ValueError("footprint must be positive")
        self.threshold = int(l_fraction * footprint_bytes)

    def should_checkpoint(self, ft: "FtManager", at_barrier: bool) -> bool:
        # the log accumulated since the last save: this is what grows by
        # up to L between checkpoints (the paper's Figure 4 slope)
        return ft.logs.diff.unsaved_bytes >= self.threshold


class BarrierCoordinatedPolicy(CheckpointPolicy):
    """Checkpoint at every ``k``-th barrier (all processes together).

    Because every process applies the same deterministic rule at the same
    barrier episodes, the checkpoints are effectively coordinated without
    any extra messages — the §5.4 suggestion for barrier-heavy
    applications like Barnes.
    """

    def __init__(self, every_barriers: int = 1) -> None:
        if every_barriers < 1:
            raise ValueError("barrier count must be >= 1")
        self.every = every_barriers

    def should_checkpoint(self, ft: "FtManager", at_barrier: bool) -> bool:
        if not at_barrier:
            return False
        episode = ft.proc.barrier_episode
        return episode > 0 and episode % self.every == 0
