"""LLT / CGC bounds from lazily propagated information (§4.4).

Each process maintains, for every peer ``j``, the last *known* checkpoint
timestamp ``T̂ckp_j`` (and checkpointed barrier episode), plus — for every
page it writes that is homed elsewhere — the last known version
``p0.v[self]`` of the home's maximal starting copy. All of it arrives
piggybacked on ordinary protocol messages, so it may be stale; the rules
remain *correct* with stale values and merely trim less (§4.4.4).

The rules:

* **Rule 1** (wn_log): retain own write notices created in intervals
  ``>= min_{j≠i} T̂ckp_j[i] + 1``.
* **Rule 2** (rel/acq logs): retain ``rel_log[j]`` entries with
  ``acq_t[j] > T̂ckp_j[j]``; retain ``acq_log`` entries with
  ``acq_t[i] > Tckp_i[i]`` (own last checkpoint).
* **Rule 3.1** (CGC): a home retains page copies back to the newest one
  with ``version <= Tmin = min_{j≠H} T̂ckp_j``.
* **Rule 3.2** (LLT): a writer retains ``diff_log(p)`` entries with
  ``diff.T[i] > p0.v[i]``.

Incremental bounds
------------------
The derived bounds used to rescan all N peers on every query; with every
trim decision consulting them, that put an O(N) Python loop on the
checkpoint path. The knowledge is monotone — ``learn_tckp`` only ever
raises components, ``learn_p0v`` only raises versions — so the bounds
are maintained incrementally instead: a peer-row matrix mirror carries a
per-column running (min, argmin), updated in :meth:`learn_tckp` and
recomputed for a column only when the argmin row itself advances (each
column recompute is vectorized and amortizes against the frontier
actually moving). Every Rule 1/2/3.2 bound query — and :meth:`tmin` off
the cached column mins — is then O(1). ``tests/unit/test_trimming.py``
holds the O(N) rescans these replaced and checks the two agree over
randomized learn sequences.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.dsm.pages import PageId
from repro.dsm.vclock import VClock

__all__ = ["TrimmingInfo"]


class TrimmingInfo:
    """Per-process view of the (stale-tolerant) trimming bounds."""

    def __init__(self, pid: int, num_procs: int) -> None:
        self.pid = pid
        self.n = num_procs
        #: last known checkpoint timestamp per process (own is exact)
        self.tckp: List[VClock] = [VClock.zero(num_procs) for _ in range(num_procs)]
        #: last known checkpointed barrier episode per process
        self.bar_ep: List[int] = [0] * num_procs
        #: page -> last known p0.v[self] at the page's home (Rule 3.2 input)
        self.p0v: Dict[PageId, int] = {}
        #: bumped on every actual tckp/bar_ep change; lets the gossip
        #: encoder skip its per-destination delta scan when nothing moved
        self.gen = 0
        #: gen at the last change of each (tckp, bar_ep) row — the gossip
        #: encoder ships exactly the rows newer than a destination's
        #: last-synced gen instead of rescanning all N
        self.row_gen = np.zeros(num_procs, dtype=np.int64)
        # --- incremental Rule 1 / 3.1 state (peers only) ---------------
        self._peer_rows = np.array(
            [j for j in range(num_procs) if j != pid], dtype=np.int64
        )
        #: row j mirrors tckp[j] for peer rows (own row stays zero: it
        #: never participates in the peer minima)
        self._mat = np.zeros((num_procs, num_procs), dtype=np.int64)
        #: per-column min/argmin over peer rows of ``_mat``
        self._col_min = np.zeros(num_procs, dtype=np.int64)
        self._col_arg = np.full(
            num_procs, self._peer_rows[0] if len(self._peer_rows) else 0,
            dtype=np.int64,
        )
        self._tmin_cache: Optional[VClock] = (
            VClock.zero(num_procs) if len(self._peer_rows) else None
        )
        # --- incremental barrier bound ---------------------------------
        self._bar_min = 0
        self._bar_arg = int(self._peer_rows[0]) if len(self._peer_rows) else 0

    # ------------------------------------------------------------------
    # updates from piggybacked control data
    # ------------------------------------------------------------------
    def learn_tckp(self, proc: int, tckp: VClock, bar_ep: int = 0) -> None:
        """Monotone update of a peer's checkpoint timestamp."""
        cur = self.tckp[proc]
        new = cur.join(tckp)
        if new is not cur:  # join returns the operand when dominated
            self.tckp[proc] = new
            self.gen += 1
            self.row_gen[proc] = self.gen
            if proc != self.pid and self.n > 1:
                row = new.as_array()
                grew = np.flatnonzero(row > self._mat[proc])
                self._mat[proc] = row
                # a column min can only change when its argmin row grew
                stale = grew[self._col_arg[grew] == proc]
                if len(stale):
                    sub = self._mat[self._peer_rows[:, None], stale]
                    arg = sub.argmin(axis=0)
                    self._col_min[stale] = sub[arg, np.arange(len(stale))]
                    self._col_arg[stale] = self._peer_rows[arg]
                    self._tmin_cache = None
        if bar_ep > self.bar_ep[proc]:
            self.bar_ep[proc] = bar_ep
            self.gen += 1
            self.row_gen[proc] = self.gen
            if proc != self.pid and proc == self._bar_arg:
                peers = self._peer_rows
                vals = [self.bar_ep[j] for j in peers.tolist()]
                k = min(range(len(vals)), key=vals.__getitem__)
                self._bar_min = vals[k]
                self._bar_arg = int(peers[k])

    def learn_p0v(self, page: PageId, version_component: int) -> None:
        cur = self.p0v.get(page, 0)
        if version_component > cur:
            self.p0v[page] = version_component

    # ------------------------------------------------------------------
    # derived bounds
    # ------------------------------------------------------------------
    def tmin(self) -> VClock:
        """Rule 3.1 bound: componentwise min of *other* processes' T̂ckp."""
        if not len(self._peer_rows):  # single-process cluster
            return self.tckp[self.pid]
        out = self._tmin_cache
        if out is None:
            out = self._tmin_cache = VClock.from_array(self._col_min)
        return out

    def wn_keep_from(self) -> int:
        """Rule 1 bound: first own interval that must be retained."""
        if not len(self._peer_rows):
            return 1
        return int(self._col_min[self.pid]) + 1

    def rel_bound(self, acquirer: int) -> int:
        """Rule 2 bound for rel_log[acquirer]."""
        return self.tckp[acquirer][acquirer]

    def acq_bound(self) -> int:
        """Rule 2 bound for the own acq_log (own checkpoint component)."""
        return self.tckp[self.pid][self.pid]

    def diff_bound(self, page: PageId) -> int:
        """Rule 3.2 bound for diff_log(page)."""
        return self.p0v.get(page, 0)

    def bar_keep_from(self) -> int:
        """Barrier-log analogue of Rule 2: min checkpointed episode of peers."""
        if not len(self._peer_rows):
            return 0
        return self._bar_min
