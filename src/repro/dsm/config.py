"""Configuration for the DSM protocol and its cost model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
    msg_header:
        Modeled wire header per protocol message.
    notice_bytes:
        Wire size of one write notice (creator, interval, page id).
    vt_entry_bytes:
        Wire size of one vector-timestamp component.
    home_policy:
        ``"round_robin"`` (default), ``"blocked"`` (contiguous chunks), or
        ``"explicit"`` (application assigns homes before sharing starts,
        standing in for first-touch allocation).
    barrier_manager:
        Static placement of the barrier manager (lock managers are
        round-robin over processes, :meth:`lock_manager`).
    """

    num_procs: int = 8
    page_size: int = 1024
    msg_header: int = 32
    notice_bytes: int = 12
    vt_entry_bytes: int = 4
    home_policy: str = "round_robin"
    barrier_manager: int = 0
    # failure detection latency for the recovery manager
    failure_detection_delay: float = 50e-3
    # recovery handshake/query message base size
    recovery_msg_bytes: int = 64

    def __post_init__(self) -> None:
        if self.num_procs < 1:
            raise ValueError("num_procs must be >= 1")
        if self.page_size < 8 or self.page_size % 8 != 0:
            raise ValueError("page_size must be a multiple of 8 and >= 8")
        if self.home_policy not in ("round_robin", "blocked", "explicit"):
            raise ValueError(f"unknown home_policy {self.home_policy!r}")
        if not (0 <= self.barrier_manager < self.num_procs):
            raise ValueError("barrier_manager out of range")

    def vt_bytes(self) -> int:
        """Wire size of one full vector timestamp."""
        return self.vt_entry_bytes * self.num_procs

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
