"""Diff computation and application (the multi-writer mechanism of HLRC).

A *twin* is a copy of a page taken before its first write in an interval;
at flush time the *diff* is the set of byte runs where the current page
differs from the twin. Diffs are what writers send to homes and what the
fault-tolerance layer logs ("logs only changes made to a page", §2).

Representation
--------------
A diff is two flat buffers: its run edges, each run's start and end
back to back (``[s0, e0, s1, e1, ...]``, the positions where
:func:`compute_diff`'s change mask flips) as ``int32``, and its
``payload``, every run's data back to back. ``Diff.edges`` is the
read-only ``int32`` array over the first, made on access: an array's own
header is ~110 bytes, more than the average logged diff's edges, and a
diff is kept far longer than it is read. ``offsets``, ``lengths``, the
per-run ``runs`` tuples, both sizes, ``==`` and ``hash`` are derived
from the two buffers, so a retained diff costs its payload, 8 bytes a
run and a fixed 114 bytes of headers (the ``Diff`` and two ``bytes``).
Both ends of the hot path are vectorized:
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

from itertools import chain
from typing import Dict, Iterable, Tuple

import numpy as np

__all__ = ["Diff", "compute_diff", "apply_diff"]

#: modeled per-run wire/log overhead: (offset: u16, length: u16) plus
#: alignment — 8 bytes, matching compact diff encodings in real systems.
RUN_HEADER_BYTES = 8


class Diff:
    """An encoded page diff: sorted, non-overlapping, non-adjacent runs.

    Immutable. ``payload_bytes``/``size_bytes`` are two ``len`` calls:
    size accounting runs on every send, log append and trim decision, so
    it reads the two buffers' lengths and sums nothing per run.
    """

    __slots__ = ("_edges", "payload")

    def __init__(self, runs: Iterable[Tuple[int, bytes]] = ()) -> None:
        runs = tuple(runs)
        self._edges = np.fromiter(
            chain.from_iterable((o, o + len(d)) for o, d in runs),
            dtype=np.int32,
            count=2 * len(runs),
        ).tobytes()
        self.payload = b"".join(d for _, d in runs)

    @classmethod
    def from_arrays(cls, edges: np.ndarray, payload: bytes) -> "Diff":
        """A diff of already-validated run ``edges`` (an integer array)
        and their ``payload``."""
        self = object.__new__(cls)
        self._edges = np.asarray(edges, dtype=np.int32).tobytes()
        self.payload = payload
        return self

    @property
    def payload_bytes(self) -> int:
        return len(self.payload)

    @property
    def size_bytes(self) -> int:
        """Modeled encoded size: the payload and a header per run."""
        # a run's two int32 edges are 8 bytes of the buffer
        return len(self.payload) + RUN_HEADER_BYTES * (len(self._edges) // 8)

    @property
    def edges(self) -> np.ndarray:
        """Each run's start and end back to back (read-only ``int32``)."""
        return np.frombuffer(self._edges, dtype=np.int32)

    @property
    def offsets(self) -> np.ndarray:
        """Each run's first byte."""
        return self.edges[0::2]

    @property
    def lengths(self) -> np.ndarray:
        """Each run's byte count."""
        edges = self.edges
        return edges[1::2] - edges[0::2]

    @property
    def runs(self) -> Tuple[Tuple[int, bytes], ...]:
        """Per-run ``(offset, data)`` tuples (built on each call)."""
        edges = self.edges.tolist()
        starts, ends = edges[0::2], edges[1::2]
        payload, out, pos = self.payload, [], 0
        for s, e in zip(starts, ends):
            out.append((s, payload[pos : pos + e - s]))
            pos += e - s
        return tuple(out)

    @property
    def empty(self) -> bool:
        return not self._edges

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Diff)
            and self.payload == other.payload
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self._edges, self.payload))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Diff({len(self._edges) // 8} runs, {self.payload_bytes}B)"


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
    # boundaries where the mask flips: each run's start and end
    edges = np.not_equal(padded[1:], padded[:-1]).nonzero()[0]
    if len(edges) == 2:
        payload = page[int(edges[0]) : int(edges[1])].tobytes()
    else:
        # the changed bytes in ascending order are the runs back to back
        payload = page[neq].tobytes()
    return Diff.from_arrays(edges, payload)


def apply_diff(page: np.ndarray, diff: Diff) -> None:
    """Apply ``diff`` in place to ``page`` (uint8)."""
    edges = diff.edges
    k = len(edges)
    if k == 0:
        return
    n = len(page)
    if k == 2:
        off, end = int(edges[0]), int(edges[1])
        if off < 0 or end > n:
            raise ValueError(f"diff run [{off},{end}) outside page of {n} bytes")
        page[off:end] = np.frombuffer(diff.payload, dtype=np.uint8)
        return
    offsets, ends = edges[0::2], edges[1::2]
    if offsets[offsets.argmin()] < 0 or ends[ends.argmax()] > n:
        bad = int(((offsets < 0) | (ends > n)).nonzero()[0][0])
        raise ValueError(
            f"diff run [{int(offsets[bad])},{int(ends[bad])}) outside page "
            f"of {n} bytes"
        )
    page[_scatter_index(offsets, ends - offsets)] = np.frombuffer(
        diff.payload, dtype=np.uint8
    )
