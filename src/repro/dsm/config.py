"""Configuration for the DSM protocol and its cost model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

__all__ = ["DsmConfig"]


@dataclass
class DsmConfig:
    """Knobs of the HLRC protocol and the simulated machine.

    Attributes
    ----------
    num_procs:
        Cluster size; one application process per node (the paper uses 8).
    page_size:
        Coherence-unit size in bytes. The real system uses the 4096-byte
        VM page; the default here is smaller so that scaled-down problem
        sizes still span many pages (sharing patterns, not footprints,
        drive the paper's results).
    failure_detection_delay:
        Failure detection latency of the recovery manager (seconds).

    Pages are homed round-robin over processes and lock managers too
    (:meth:`lock_manager`); the barrier manager is a constant. Message
    sizes are the wire format's, in :mod:`repro.dsm.messages`.
    """

    num_procs: int = 8
    page_size: int = 1024
    failure_detection_delay: float = 50e-3

    #: process 0 manages every barrier
    barrier_manager: ClassVar[int] = 0

    def __post_init__(self) -> None:
        if self.num_procs < 1:
            raise ValueError("num_procs must be >= 1")
        if self.page_size < 8 or self.page_size % 8 != 0:
            raise ValueError("page_size must be a multiple of 8 and >= 8")

    def lock_manager(self, lock_id: int) -> int:
        """Static manager assignment for a lock."""
        return lock_id % self.num_procs

    def self_grant_holder(self, lock_id: int, pid: int) -> Optional[int]:
        """Where the twin of ``pid``'s self-grant records of ``lock_id``
        lives: a distinct node (§4.2.1) — the lock's manager, or the ring
        successor when ``pid`` manages the lock itself. ``None`` on a
        single-process cluster, which has no second node."""
        manager = self.lock_manager(lock_id)
        if manager != pid:
            return manager
        if self.num_procs == 1:
            return None
        return (pid + 1) % self.num_procs
