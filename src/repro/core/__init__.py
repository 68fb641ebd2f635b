"""Fault tolerance for HLRC — the paper's contribution.

Independent checkpointing plus sender-based logging to volatile memory
(§4), with the two garbage-collection algorithms that make independent
checkpointing practical without global coordination:

* **LLT** — Lazy Log Trimming (Rules 1, 2 and 3.2),
* **CGC** — Checkpoint Garbage Collection (Rule 3.1),

both driven by lazily propagated, stale-tolerant checkpoint timestamps
(§4.4.4), and full single-fault recovery by log-based replay (§4.3 —
going beyond the paper's own prototype, which did not implement
recovery).
"""

from repro.core.logs import DiffLog, DiffLogEntry, GrantLog, VolatileLogs
from repro.core.checkpoint import Checkpoint, CheckpointManager
from repro.core.policies import (
    BarrierCoordinatedPolicy,
    CheckpointPolicy,
    LogOverflowPolicy,
)
from repro.core.trimming import TrimmingInfo
from repro.core.ftmanager import FtManager, FtConfig

__all__ = [
    "DiffLog",
    "DiffLogEntry",
    "GrantLog",
    "VolatileLogs",
    "Checkpoint",
    "CheckpointManager",
    "CheckpointPolicy",
    "LogOverflowPolicy",
    "BarrierCoordinatedPolicy",
    "TrimmingInfo",
    "FtManager",
    "FtConfig",
]
