"""Comparison baselines from the paper's related-work section (§2).

Each baseline is a :class:`~repro.cluster.DsmCluster` subclass that names
its FT manager:

* :class:`PageLoggingCluster` — whole-page logging in the style of
  Richard & Singhal [25] ("Whole pages are logged ... which, combined
  with their large size, makes the scheme very expensive"). Used by the
  ablation benchmark to quantify the diff-logging advantage.
* :class:`CoordinatedCluster` — coordinated checkpointing in the style of
  Costa et al. [9]: :class:`CoordinatedFt`'s marker rounds take globally
  consistent checkpoints, and any failure rolls every process back to
  the last committed cut. The meta-cluster benchmarks measure it.
"""

from repro.baselines.coordinated import (
    CoordinatedCluster,
    CoordinatedFt,
    global_rollback,
)
from repro.baselines.page_logging import PageLoggingCluster, PageLoggingFt

__all__ = [
    "PageLoggingFt",
    "PageLoggingCluster",
    "CoordinatedFt",
    "CoordinatedCluster",
    "global_rollback",
]
