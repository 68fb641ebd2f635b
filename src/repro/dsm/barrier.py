"""Manager-based global barriers.

At a barrier each process ends its current interval, sends its vector
time and the write notices it created since the last barrier to the
manager; the manager joins all vector times, unions the notices, and
releases everyone with the global time and the notices they are missing.
Barrier episodes are numbered so the FT layer can log "a pair of logical
times for every barrier" (§4.2.1) for replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dsm.messages import WriteNotice
from repro.dsm.vclock import VClock, vmax

__all__ = ["BarrierManagerState", "BarrierEpisode"]


@dataclass
class BarrierEpisode:
    """Manager-side state of one in-progress barrier episode."""

    episode: int
    arrived: Dict[int, VClock] = field(default_factory=dict)
    notices: List[WriteNotice] = field(default_factory=list)

    def arrive(self, proc: int, vt: VClock, notices: List[WriteNotice]) -> None:
        if proc in self.arrived:
            raise RuntimeError(
                f"process {proc} arrived twice at barrier episode {self.episode}"
            )
        self.arrived[proc] = vt
        self.notices.extend(notices)

    def complete(self, n: int) -> bool:
        return len(self.arrived) == n

    def global_vt(self) -> VClock:
        return vmax(self.arrived.values())


class BarrierManagerState:
    """Barrier manager bookkeeping across episodes.

    ``last_global`` is the global vector time of the last completed
    episode; participants send only their own notices created after it,
    which (as every older notice is ≤ last_global ≤ every vt) suffices
    for coverage.
    """

    def __init__(self, num_procs: int) -> None:
        self.n = num_procs
        self.current: Optional[BarrierEpisode] = None
        self.next_episode = 0
        self.last_global = VClock.zero(num_procs)

    def arrive(
        self, proc: int, episode: int, vt: VClock, notices: List[WriteNotice]
    ) -> Optional[BarrierEpisode]:
        """Record an arrival; returns the episode if it just completed."""
        if episode != self.next_episode:
            raise RuntimeError(
                f"barrier episode mismatch: got {episode}, expected {self.next_episode}"
            )
        if self.current is None:
            self.current = BarrierEpisode(episode)
        self.current.arrive(proc, vt, notices)
        if self.current.complete(self.n):
            done = self.current
            self.current = None
            self.next_episode += 1
            self.last_global = done.global_vt()
            return done
        return None
