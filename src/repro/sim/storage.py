"""Stable-storage model: per-node disks and crash-surviving stores.

The paper assumes "the stable storage used by a node remains available
after a failure, so that the process can be restarted on the same or on
another node". We model a node's disk as a simple seek+bandwidth device
(write time drives the Table 3 "time disk write" column) and a
:class:`CheckpointStore` as a Python object owned by the *cluster*, not
the process, so that fail-stopping a process leaves its stable state
intact and readable by the restarted incarnation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = ["DiskConfig", "Disk", "CheckpointStore", "ReplicaStore"]


@dataclass(frozen=True)
class DiskConfig:
    """Late-1990s commodity IDE disk: ~10 ms seek, ~15 MB/s sequential."""

    seek_time: float = 10e-3
    write_bandwidth: float = 15e6  # bytes/s
    read_bandwidth: float = 20e6  # bytes/s


class Disk:
    """One node's local disk: its cost model, and the write traffic and
    busy time the FT layer charges at the site of each write."""

    def __init__(self, config: Optional[DiskConfig] = None) -> None:
        self.config = config or DiskConfig()
        self.bytes_written: int = 0
        self.write_time: float = 0.0

    def write_cost(self, nbytes: int) -> float:
        if nbytes <= 0:
            return 0.0
        return self.config.seek_time + nbytes / self.config.write_bandwidth

    def read_cost(self, nbytes: int) -> float:
        if nbytes <= 0:
            return 0.0
        return self.config.seek_time + nbytes / self.config.read_bandwidth


class CheckpointStore:
    """Crash-surviving keyed store for one node's checkpoints and logs.

    Keys are arbitrary (e.g. ``("ckpt", seqno)`` or ``("log", page_id)``);
    values are stored by reference — callers must store immutable or
    defensively-copied data, which the checkpoint layer does.

    Commit markers
    --------------
    A multi-block disk write is not atomic: a fail-stop in the middle
    leaves a *torn* record on stable storage. The store models this with
    a two-phase put: :meth:`begin_put` lands the data without a commit
    marker, :meth:`commit_put` adds the marker once the simulated disk
    write has completed. Recovery must treat marker-less (pending) keys
    as garbage — :meth:`pending_keys` enumerates them for discarding.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._data: Dict[Any, Any] = {}
        self._sizes: Dict[Any, int] = {}
        self._pending: set = set()  # keys written without a commit marker

    def put(self, key: Any, value: Any, size: int) -> None:
        if size < 0:
            raise ValueError("negative object size")
        self._data[key] = value
        self._sizes[key] = size
        self._pending.discard(key)

    def begin_put(self, key: Any, value: Any, size: int) -> None:
        """Start writing ``key``: data lands, but without a commit marker.

        A crash before :meth:`commit_put` leaves the key *torn*; readers
        must check :meth:`is_pending` (recovery discards such keys).
        """
        if size < 0:
            raise ValueError("negative object size")
        self._data[key] = value
        self._sizes[key] = size
        self._pending.add(key)

    def commit_put(self, key: Any) -> None:
        """Write the commit marker for a key staged with ``begin_put``."""
        if key not in self._data:
            raise KeyError(f"commit_put of unknown key {key!r}")
        self._pending.discard(key)

    def is_pending(self, key: Any) -> bool:
        return key in self._pending

    def pending_keys(self) -> List[Any]:
        """Torn (marker-less) keys, in insertion order (deterministic)."""
        if not self._pending:  # the common case: no scan over every key
            return []
        return [k for k in self._data if k in self._pending]

    def committed_keys(self) -> List[Any]:
        """Keys whose commit marker is written, in insertion order."""
        return [k for k in self._data if k not in self._pending]

    def discard_pending(self) -> int:
        """Delete every torn key; returns how many there were."""
        torn = self.pending_keys()
        for key in torn:
            self.delete(key)
        return len(torn)

    def get(self, key: Any) -> Any:
        return self._data[key]

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def delete(self, key: Any) -> int:
        """Remove ``key``; returns the bytes reclaimed."""
        self._data.pop(key)
        self._pending.discard(key)
        return self._sizes.pop(key)

    def keys(self) -> List[Any]:
        return list(self._data.keys())

    @property
    def used_bytes(self) -> int:
        return sum(self._sizes.values())


class ReplicaStore:
    """Volatile in-memory store of *peers'* replicated FT state.

    One per node, owned by the node's memory (NOT its disk): it holds the
    buddy-replicated checkpoints and sender-log segments of the peers this
    node protects, and — being volatile — it dies with the node.
    :meth:`clear` models exactly that and is called from ``cluster.crash``.

    Each protected peer maps to a nested :class:`CheckpointStore`, reusing
    its two-phase commit-marker discipline verbatim: a replica base that
    was mid-transfer when the protected node died is a *torn* record
    (``begin`` seen, ``commit`` never arrived) and recovery must fall back
    to the previous committed base, exactly as the disk path falls back to
    the previous committed checkpoint.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._stores: Dict[int, CheckpointStore] = {}

    def store_for(self, protected: int) -> CheckpointStore:
        st = self._stores.get(protected)
        if st is None:
            st = self._stores[protected] = CheckpointStore(protected)
        return st

    def has(self, protected: int) -> bool:
        return protected in self._stores

    def drop(self, protected: int) -> int:
        """Forget everything held for ``protected``; returns bytes freed."""
        st = self._stores.pop(protected, None)
        return st.used_bytes if st is not None else 0

    def clear(self) -> None:
        """The holder crashed: every replica it held is lost."""
        self._stores.clear()

    def protected_pids(self) -> List[int]:
        return sorted(self._stores)

    @property
    def used_bytes(self) -> int:
        return sum(st.used_bytes for st in self._stores.values())
