"""Paged shared memory: regions, homes, per-process page tables.

A :class:`SharedRegion` is a named, typed slab of shared address space,
split into fixed-size pages. Every page has one fixed *home* process,
round-robin over the processes by page index within its region.

Each process keeps a full local backing array per region plus a
:class:`PageEntry` per page recording the coherence state a VM-based
implementation would keep in page protections: INVALID (fetch on access),
RO (readable), RW (written this interval; a twin exists while the page is
both dirty and shared).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.dsm.config import DsmConfig
from repro.dsm.vclock import VClock

__all__ = ["PageId", "PageState", "PageEntry", "SharedRegion", "RegionSet"]


class PageId(NamedTuple):
    """Globally unique page identifier."""

    region: int
    index: int


class PageState(enum.Enum):
    INVALID = "invalid"
    RO = "ro"
    RW = "rw"


@dataclass
class PageEntry:
    """Per-process coherence state for one page."""

    state: PageState = PageState.INVALID
    #: minimal version this process must fetch, accumulated from applied
    #: write notices (componentwise max of notice timestamps)
    needed_v: Optional[VClock] = None
    #: twin snapshot while the page is dirty in the current interval
    twin: Optional[np.ndarray] = None
    #: dirty in the current (open) interval
    dirty: bool = False


class SharedRegion:
    """Metadata for one shared region (identical at every process)."""

    def __init__(
        self,
        region_id: int,
        name: str,
        num_elements: int,
        dtype: str,
        config: DsmConfig,
    ) -> None:
        self.region_id = region_id
        self.name = name
        self.dtype = np.dtype(dtype)
        self.num_elements = num_elements
        self.config = config
        self.elem_size = self.dtype.itemsize
        nbytes = num_elements * self.elem_size
        self.num_pages = max(1, -(-nbytes // config.page_size))
        self.nbytes = self.num_pages * config.page_size
        self.elems_per_page = config.page_size // self.elem_size
        #: interned PageId per index — hot paths construct these constantly
        self.page_ids: List[PageId] = [
            PageId(region_id, i) for i in range(self.num_pages)
        ]

    # -- home placement ----------------------------------------------------
    def home_of(self, page_index: int) -> int:
        return page_index % self.config.num_procs

    def pages_homed_at(self, proc: int) -> List[int]:
        return list(range(proc, self.num_pages, self.config.num_procs))

    # -- address arithmetic --------------------------------------------------
    def pages_for_range(self, lo: int, hi: int) -> range:
        """Pages covering elements ``[lo, hi)``."""
        if lo >= hi:
            return range(0)
        if lo < 0 or hi > self.num_elements:
            raise IndexError(f"elements [{lo},{hi}) out of region {self.name}")
        size, page = self.elem_size, self.config.page_size
        return range(lo * size // page, (hi - 1) * size // page + 1)

    def page_slice(self, page_index: int) -> Tuple[int, int]:
        """Byte range [lo, hi) of ``page_index`` within the region."""
        lo = page_index * self.config.page_size
        return lo, lo + self.config.page_size

    def page_id(self, page_index: int) -> PageId:
        return self.page_ids[page_index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SharedRegion {self.name!r} id={self.region_id} "
            f"{self.num_elements}x{self.dtype} pages={self.num_pages}>"
        )


class RegionSet:
    """All shared regions of one application run."""

    def __init__(self, config: DsmConfig) -> None:
        self.config = config
        self._regions: List[SharedRegion] = []
        self.sealed = False

    def allocate(self, name: str, num_elements: int, dtype: str = "float64") -> SharedRegion:
        if self.sealed:
            raise RuntimeError("regions cannot be allocated after sharing starts")
        region = SharedRegion(len(self._regions), name, num_elements, dtype, self.config)
        self._regions.append(region)
        return region

    def seal(self) -> None:
        """Freeze allocation (sharing begins)."""
        self.sealed = True

    def __getitem__(self, region_id: int) -> SharedRegion:
        return self._regions[region_id]

    def __iter__(self):
        return iter(self._regions)

    def __len__(self) -> int:
        return len(self._regions)

    @property
    def total_bytes(self) -> int:
        """Shared-memory footprint (Table 1 column)."""
        return sum(r.nbytes for r in self._regions)

    def home_of(self, pid: PageId) -> int:
        return self._regions[pid.region].home_of(pid.index)

    def pages_homed_at(self, proc: int) -> List[PageId]:
        return [
            PageId(r.region_id, i)
            for r in self._regions
            for i in r.pages_homed_at(proc)
        ]
