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

Bounds are derived, not stored
------------------------------
``tckp`` / ``bar_ep`` are the only copy of the knowledge. The three peer
minima (:meth:`tmin`, :meth:`wn_keep_from`, :meth:`bar_keep_from`) are
computed when an LLT/CGC pass or the invariant monitor asks: one
reduction over the N-1 peer rows per bound per pass. Updates outnumber
queries by 2-50x on every ledger workload (``paper8``: 3,541
``learn_tckp`` calls against 76 queries per bound; ``scale128`` makes no
query at all), so :meth:`learn_tckp` is a join and two stamps and nothing
else. A per-node (N, N) mirror with running column minima made a query a
field read, but cost O(N^2) ints per node -- half of ``scale128``'s heap
-- and a column recompute on the update side that took 78 % of host time
in a checkpointing N = 256 run (EXPERIMENTS.md "Host-cost history").
``tests/unit/test_trimming.py`` checks the bounds against a plain-loop
model over randomized learn sequences and pins the per-node footprint.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.dsm.pages import PageId
from repro.dsm.vclock import VClock, vmin

__all__ = ["TrimmingInfo"]


class TrimmingInfo:
    """Per-process view of the (stale-tolerant) trimming bounds."""

    def __init__(self, pid: int, num_procs: int) -> None:
        self.pid = pid
        self.n = num_procs
        #: last known checkpoint timestamp per process (own is exact);
        #: every row starts as the one interned zero clock
        self.tckp: List[VClock] = [VClock.zero(num_procs)] * num_procs
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
        if bar_ep > self.bar_ep[proc]:
            self.bar_ep[proc] = bar_ep
            self.gen += 1
            self.row_gen[proc] = self.gen

    def learn_p0v(self, page: PageId, version_component: int) -> None:
        cur = self.p0v.get(page, 0)
        if version_component > cur:
            self.p0v[page] = version_component

    # ------------------------------------------------------------------
    # derived bounds
    # ------------------------------------------------------------------
    def _peers(self, rows: list) -> list:
        """``rows`` without the own entry."""
        return rows[: self.pid] + rows[self.pid + 1 :]

    def tmin(self) -> VClock:
        """Rule 3.1 bound: componentwise min of *other* processes' T̂ckp."""
        peers = self._peers(self.tckp)
        # single-process cluster: nothing but the own checkpoint bounds it
        return vmin(peers) if peers else self.tckp[self.pid]

    def wn_keep_from(self) -> int:
        """Rule 1 bound: first own interval that must be retained."""
        pid = self.pid
        return min((t[pid] for t in self._peers(self.tckp)), default=0) + 1

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
        return min(self._peers(self.bar_ep), default=0)
