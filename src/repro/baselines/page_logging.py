"""Whole-page logging baseline (Richard & Singhal style, paper ref [25]).

Instead of logging only the diff, every flushed page is logged in full:
each log entry is *costed* as one whole-page record (log volume, append
time, log-flush disk writes, recovery transfer sizes), which is exactly
what the ablation benchmark measures. The paper's criticism: "Whole
pages are logged, and logs are flushed to stable storage on every
outgoing page transfer which, combined with their large size, makes the
scheme very expensive."

The entry *applies* as the precise byte runs of the real diff. Replaying
a literal full-page overwrite is not equivalent: a writer's local copy
can be stale in page regions it never touched (invalidations only arrive
at its own sync points), so when two processes under different locks
write disjoint parts of one page concurrently, a full-page replay of one
clobbers the other's bytes with that stale view — recovery at an
unlucky crash point silently loses writes the live run kept. Applying
the true runs while charging whole-page sizes keeps the baseline's cost
model intact and its recovery exact.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cluster import DsmCluster
from repro.core.ftmanager import FtManager
from repro.core.policies import LogOverflowPolicy
from repro.dsm.config import DsmConfig
from repro.dsm.diff import RUN_HEADER_BYTES, Diff
from repro.dsm.pages import PageId

__all__ = ["PageLoggingFt", "PageLoggingCluster"]


class _PageCosted(Diff):
    """A diff whose sizes are set, not read off its buffers."""

    __slots__ = ("payload_bytes", "size_bytes")


def _page_costed(diff: Diff, page_bytes: int) -> Diff:
    """The same runs as ``diff``, costed as one whole-page log record."""
    out = _PageCosted.from_arrays(diff.edges, diff.payload)
    out.payload_bytes = page_bytes
    out.size_bytes = page_bytes + RUN_HEADER_BYTES
    return out


class PageLoggingFt(FtManager):
    """FT manager that logs whole pages instead of diffs."""

    def logged_diff(self, page: PageId, diff: Diff) -> Diff:
        return _page_costed(diff, len(self.proc.page_bytes(page)))


class PageLoggingCluster(DsmCluster):
    """A cluster whose FT layer uses whole-page logging, with the OF
    policy at ``l_fraction``."""

    ft_class = PageLoggingFt

    def __init__(
        self,
        config: Optional[DsmConfig] = None,
        l_fraction: float = 0.1,
        **cluster_kw: Any,
    ) -> None:
        super().__init__(
            config,
            ft=True,
            policy_factory=lambda pid, fp: LogOverflowPolicy(l_fraction, fp),
            **cluster_kw,
        )
