"""Diff computation and application (the multi-writer mechanism of HLRC).

A *twin* is a copy of a page taken before its first write in an interval;
at flush time the *diff* is the set of byte runs where the current page
differs from the twin. Diffs are what writers send to homes and what the
fault-tolerance layer logs ("logs only changes made to a page", §2).

Representation
--------------
A diff is three flat pieces: an ``int64`` array of run ``offsets``, an
``int64`` array of run ``lengths``, and one contiguous ``payload`` bytes
buffer holding every run's data back to back. Compared to the previous
per-run ``(offset, bytes)`` tuples this allocates O(1) Python objects per
diff instead of O(runs), and both ends of the hot path are vectorized:
:func:`compute_diff` gathers the payload with the mask that found the
runs and :func:`apply_diff` scatters it with one fancy-indexed write, so
the many-tiny-runs case costs the same per byte as the single-run case.

Exactness
---------
Diffs are exact: a run never carries a byte the writer did not change.
Rewriting an unchanged byte at the home is not harmless — a concurrent
writer's conflicting update can differ from it in a single byte of a
float64 — and a logged diff that claims another writer's bytes reverts
newer data when recovery replays it (docs/PROTOCOL.md, home-side diff
rule).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

__all__ = ["Diff", "compute_diff", "apply_diff"]

#: modeled per-run wire/log overhead: (offset: u16, length: u16) plus
#: alignment — 8 bytes, matching compact diff encodings in real systems.
RUN_HEADER_BYTES = 8

_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_I64.setflags(write=False)


class Diff:
    """An encoded page diff: sorted, non-overlapping, non-adjacent runs.

    Immutable. ``payload_bytes``/``size_bytes`` are computed once at
    construction: size accounting runs on every send, log append and
    trim decision, so recomputing the sums there dominated profiles.
    """

    __slots__ = (
        "offsets",
        "lengths",
        "payload",
        "payload_bytes",
        "size_bytes",
        "_runs",
        "_hash",
    )

    def __init__(self, runs: Iterable[Tuple[int, bytes]] = ()) -> None:
        runs = tuple(runs)
        if runs:
            self.offsets = np.fromiter(
                (o for o, _ in runs), dtype=np.int64, count=len(runs)
            )
            self.lengths = np.fromiter(
                (len(d) for _, d in runs), dtype=np.int64, count=len(runs)
            )
            self.offsets.setflags(write=False)
            self.lengths.setflags(write=False)
            self.payload = b"".join(d for _, d in runs)
        else:
            self.offsets = _EMPTY_I64
            self.lengths = _EMPTY_I64
            self.payload = b""
        self._runs: Optional[Tuple[Tuple[int, bytes], ...]] = runs
        self._hash: Optional[int] = None
        self.payload_bytes = len(self.payload)
        #: modeled encoded size (payload + per-run headers)
        self.size_bytes = self.payload_bytes + RUN_HEADER_BYTES * len(runs)

    @classmethod
    def from_arrays(
        cls, offsets: np.ndarray, lengths: np.ndarray, payload: bytes
    ) -> "Diff":
        """Wrap already-validated run arrays without re-encoding."""
        self = object.__new__(cls)
        offsets.setflags(write=False)
        lengths.setflags(write=False)
        self.offsets = offsets
        self.lengths = lengths
        self.payload = payload
        self._runs = None
        self._hash = None
        self.payload_bytes = len(payload)
        self.size_bytes = self.payload_bytes + RUN_HEADER_BYTES * len(offsets)
        return self

    @property
    def runs(self) -> Tuple[Tuple[int, bytes], ...]:
        """Per-run ``(offset, data)`` view (materialized on demand)."""
        r = self._runs
        if r is None:
            bounds = self.lengths.cumsum().tolist()
            starts = [0] + bounds[:-1]
            payload = self.payload
            r = self._runs = tuple(
                (o, payload[s:e])
                for o, s, e in zip(self.offsets.tolist(), starts, bounds)
            )
        return r

    @property
    def empty(self) -> bool:
        return len(self.offsets) == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Diff)
            and self.payload == other.payload
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.lengths, other.lengths)
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(
                (self.offsets.tobytes(), self.lengths.tobytes(), self.payload)
            )
        return h

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Diff({len(self.offsets)} runs, {self.payload_bytes}B)"


_EMPTY_DIFF = Diff(())


def _scatter_index(offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Page positions of every payload byte, in payload order.

    Standard repeat/cumsum trick: payload byte ``k`` of run ``r`` lands at
    ``offsets[r] + (k - payload_start[r])``.
    """
    bounds = lengths.cumsum()
    return np.arange(bounds[-1]) + (offsets - (bounds - lengths)).repeat(lengths)


#: per page size, a ``False``-padded mask: ``compute_diff`` overwrites its
#: inside before reading it and never writes the pads, which close runs at
#: the page edges, so no call sees another's mask
_PADDED: Dict[int, np.ndarray] = {}


def compute_diff(twin: np.ndarray, page: np.ndarray) -> Diff:
    """Exact diff of ``page`` against its ``twin`` (both uint8, same length)."""
    if twin.shape != page.shape:
        raise ValueError(f"shape mismatch: {twin.shape} vs {page.shape}")
    if twin.dtype != np.uint8 or page.dtype != np.uint8:
        raise TypeError("pages must be uint8 arrays")
    # ufuncs and C array methods only: at page sizes the Python wrappers
    # (``np.flatnonzero``, ``ndarray.any``/``min``) cost more than a kernel
    n = len(page)
    padded = _PADDED.get(n)
    if padded is None:
        padded = _PADDED[n] = np.zeros(n + 2, dtype=bool)
    neq = padded[1:-1]
    np.not_equal(twin, page, out=neq)
    if not neq[neq.argmax()]:  # argmax: the first changed byte, if any
        return _EMPTY_DIFF
    # boundaries where the mask flips
    edges = np.not_equal(padded[1:], padded[:-1]).nonzero()[0]
    starts, ends = edges[0::2], edges[1::2]
    lengths = ends - starts
    if len(starts) == 1:
        payload = page[int(starts[0]) : int(ends[0])].tobytes()
    else:
        # the changed bytes in ascending order are the runs back to back
        payload = page[neq].tobytes()
    return Diff.from_arrays(starts, lengths, payload)


def apply_diff(page: np.ndarray, diff: Diff) -> None:
    """Apply ``diff`` in place to ``page`` (uint8)."""
    offsets, lengths = diff.offsets, diff.lengths
    k = len(offsets)
    if k == 0:
        return
    n = len(page)
    if k == 1:
        off, end = int(offsets[0]), int(offsets[0] + lengths[0])
        if off < 0 or end > n:
            raise ValueError(f"diff run [{off},{end}) outside page of {n} bytes")
        page[off:end] = np.frombuffer(diff.payload, dtype=np.uint8)
        return
    ends = offsets + lengths
    if offsets[offsets.argmin()] < 0 or ends[ends.argmax()] > n:
        bad = int(((offsets < 0) | (ends > n)).nonzero()[0][0])
        raise ValueError(
            f"diff run [{int(offsets[bad])},{int(ends[bad])}) outside page "
            f"of {n} bytes"
        )
    page[_scatter_index(offsets, lengths)] = np.frombuffer(
        diff.payload, dtype=np.uint8
    )
