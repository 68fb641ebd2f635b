"""Home-side page management.

Every shared page has a home process that maintains its most recent
version (§3). The home applies incoming diffs to its local copy, stamps
the page with a version vector ``p.v`` recording "the most recent
intervals whose writes were applied", and serves fetch requests — holding
a request until the page has reached the version the faulting process
needs (diffs may still be in flight when the corresponding lock grant has
already raced ahead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.dsm.pages import PageId
from repro.dsm.vclock import VClock

__all__ = ["HomePage", "HomeDirectory"]


@dataclass
class _PendingFetch:
    requester: int
    needed_v: VClock
    reply: Callable[[], None]


class HomePage:
    """Home-side state for one page homed at this process.

    The page *contents* live in the process's local backing array (the
    home's copy is the authoritative one); this object tracks the version
    vector and the fetches waiting for in-flight diffs.
    """

    __slots__ = ("page", "version", "pending", "applied_bytes", "snap", "snap_version")

    def __init__(self, page: PageId, n: int) -> None:
        self.page = page
        self.version = VClock.zero(n)
        self.pending: List[_PendingFetch] = []
        self.applied_bytes = 0
        #: cached immutable snapshot of the page contents, keyed by the
        #: *identity* of the version object it was taken under (the
        #: version is replaced whenever the contents legally change)
        self.snap: Optional[bytes] = None
        self.snap_version: Optional[VClock] = None

    def drop_snapshot(self) -> None:
        """Invalidate the cached snapshot (restore paths assign
        ``version`` directly, possibly re-installing an old object)."""
        self.snap = None
        self.snap_version = None

    def advance(self, writer: int, interval: int) -> None:
        """Record that ``writer``'s diff for ``interval`` was applied."""
        if interval > self.version[writer]:
            self.version = self.version.with_component(writer, interval)

    def is_duplicate(self, writer: int, interval: int) -> bool:
        """True when a diff at (writer, interval) is already reflected.

        Used to make diff application idempotent: a recovering writer may
        re-send diffs it regenerated during replay (§4.3); the version
        vector identifies and discards them.
        """
        return interval <= self.version[writer]

    def ready_for(self, needed: Optional[VClock]) -> bool:
        return needed is None or needed.leq(self.version)

    def wait_fetch(self, requester: int, needed: VClock, reply: Callable[[], None]) -> None:
        self.pending.append(_PendingFetch(requester, needed, reply))

    def service_pending(self) -> None:
        """Reply to every queued fetch the current version now satisfies."""
        still: List[_PendingFetch] = []
        for pf in self.pending:
            if self.ready_for(pf.needed_v):
                pf.reply()
            else:
                still.append(pf)
        self.pending = still


class HomeDirectory:
    """All pages homed at one process."""

    def __init__(self, num_procs: int) -> None:
        self.n = num_procs
        self._pages: Dict[PageId, HomePage] = {}
        #: the dict's own ``get``, called once per page access without a
        #: Python frame of its own
        self.get: Callable[[PageId], Optional[HomePage]] = self._pages.get

    def add_page(self, page: PageId) -> HomePage:
        hp = HomePage(page, self.n)
        self._pages[page] = hp
        return hp

    def __contains__(self, page: PageId) -> bool:
        return page in self._pages

    def __getitem__(self, page: PageId) -> HomePage:
        return self._pages[page]

    def pages(self) -> List[PageId]:
        return list(self._pages.keys())

    def values(self) -> List[HomePage]:
        return list(self._pages.values())
