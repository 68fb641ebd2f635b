"""``cgc``: Rule 3.1, checked right after every CGC pass on a node.

At most one retained copy per page has ``version <= Tmin`` (the pass
must have dropped the older ones); the newest copy belongs to the latest
committed checkpoint; and the per-page oldest retained seqno never
falls. ("At most two checkpoints" is knowledge-relative: under a stale
``T̂ckp`` the literal count may exceed two, DESIGN.md §7.6.)
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.sim.trace import CGC

__all__ = ["CgcChecker"]


class CgcChecker:
    name = "cgc"

    def __init__(self, monitor: Any) -> None:
        self.hosts = monitor.cluster.hosts
        self._violate = monitor.sink(self.name)
        self.checks = 0
        #: per-(pid, page) oldest retained checkpoint seqno (the
        #: monotonicity floor)
        self._floor: Dict[Tuple[int, Any], int] = {}

    def subscriptions(self):
        return [(CGC, self._check)]

    def adopt(self) -> None:
        """Each retained window's oldest checkpoint is its floor."""
        for host in self.hosts:
            mgr = host.ckpt_mgr
            if mgr is not None:
                for page, copies in mgr.page_copies.items():
                    if copies:
                        self._floor[(host.pid, page)] = copies[0].ckpt_seqno

    def _check(self, pid: int, *_payload: Any) -> None:
        host = self.hosts[pid]
        ft, mgr = host.ft, host.ckpt_mgr
        if ft is None or mgr is None:
            return
        tmin = ft.trim.tmin()
        latest = mgr.latest
        # with buddy replication, a copy is collectible only when it is
        # ALSO buddy-held: CGC gates on the replica-ack seqno ceiling, so
        # copies <= Tmin above the ceiling legitimately survive the pass
        ceil = ft.cgc_seqno_ceiling()
        for page, copies in mgr.page_copies.items():
            # versions are non-decreasing, so copies <= Tmin form a
            # prefix; after a correct pass only its last element remains
            # (of those the ack ceiling lets the pass consider at all)
            n_le = sum(
                1 for c in copies
                if c.version.leq(tmin)
                and (ceil is None or c.ckpt_seqno <= ceil)
            )
            if n_le > 1:
                self._violate(
                    pid, f"page {tuple(page)}: {n_le} retained copies <= Tmin "
                    f"{tuple(tmin)} (and buddy-acked) after CGC — only "
                    "the maximal starting copy may remain at or below "
                    "Tmin (Rule 3.1)",
                )
            if latest is not None and copies and (
                copies[-1].ckpt_seqno != latest.seqno
            ):
                self._violate(
                    pid, f"page {tuple(page)}: newest retained copy is from "
                    f"checkpoint {copies[-1].ckpt_seqno} but the latest "
                    f"committed checkpoint is {latest.seqno} — the "
                    "restart checkpoint's copies must never be collected",
                )
            key = (pid, page)
            floor = copies[0].ckpt_seqno if copies else -1
            prev = self._floor.get(key, -1)
            if floor < prev:
                self._violate(
                    pid, f"page {tuple(page)}: oldest retained checkpoint "
                    f"regressed from {prev} to {floor} — the retained "
                    "window must evolve only by prefix-drop or append",
                )
            if floor > prev:
                self._floor[key] = floor
        self.checks += 1
