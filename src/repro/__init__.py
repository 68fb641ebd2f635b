"""repro — reproduction of "Scalable Fault-Tolerant Distributed Shared
Memory" (Sultan, Nguyen, Iftode; SC 2000).

A home-based lazy release consistency (HLRC) software DSM extended with
independent checkpointing, sender-based volatile logging, Lazy Log
Trimming (LLT) and Checkpoint Garbage Collection (CGC), plus full
log-based single-fault recovery — all running on a deterministic
discrete-event cluster simulator.

Public entry points::

    from repro import DsmCluster, DsmConfig
    from repro.core import LogOverflowPolicy
    from repro.apps import APPS, make_app
"""

from repro.cluster import DsmCluster
from repro.dsm.config import DsmConfig

__all__ = ["DsmCluster", "DsmConfig"]
