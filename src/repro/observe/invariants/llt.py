"""``llt``: Rules 1, 2 and 3.2, checked at every LLT pass.

No retained log entry sits at or below its derived trim bound; the byte
counters agree with the entries; and the trimming *knowledge* never runs
ahead of reality (``T̂ckp_j <=`` j's latest checkpoint stamp, a learned
``p0.v`` ≤ the home's maximal starting copy): stale bounds trim less,
bounds ahead of reality would trim entries recovery still needs.
"""

from __future__ import annotations

from typing import Any

from repro.sim.trace import LLT

__all__ = ["LltChecker"]


class LltChecker:
    name = "llt"

    def __init__(self, monitor: Any) -> None:
        self.hosts = monitor.cluster.hosts
        self.regions = monitor.cluster.regions
        self._violate = monitor.sink(self.name)
        self.checks = 0

    def subscriptions(self):
        return [(LLT, self._check)]

    def adopt(self) -> None:
        """Nothing to take: a pass is checked against the logs alone."""

    def _check(self, pid: int, *_payload: Any) -> None:
        host = self.hosts[pid]
        ft = host.ft
        if ft is None:
            return
        trim, logs = ft.trim, ft.logs
        # Rule 3.2 exactness: no retained diff entry at/below the bound
        for page, entries in logs.diff.per_page.items():
            bound = trim.diff_bound(page)
            if bound and any(e.t[pid] <= bound for e in entries):
                self._violate(
                    pid, f"diff log for page {tuple(page)} retains entries with "
                    f"T[{pid}] <= p0.v bound {bound} after LLT (Rule 3.2 "
                    "trim missed — log exceeds its trim frontier)",
                )
        # counter/entry agreement (the "log size" the bound governs)
        actual = sum(
            e.size_bytes for es in logs.diff.per_page.values() for e in es
        )
        if actual != logs.diff.volatile_bytes:
            self._violate(
                pid, f"diff-log byte accounting drifted: counter reports "
                f"{logs.diff.volatile_bytes}, entries sum to {actual}",
            )
        # Rule 2: rel entries per acquirer, acq entries vs own cut
        for j in range(ft.n):
            if j == pid:
                continue
            bound = trim.rel_bound(j)
            if bound and any(
                e.acq_t[j] <= bound for e in logs.rel.entries[j]
            ):
                self._violate(
                    pid, f"rel_log[{j}] retains entries with acq_t[{j}] <= "
                    f"T̂ckp_{j}[{j}]={bound} after LLT (Rule 2 trim missed)",
                )
        own_bound = trim.acq_bound()
        if own_bound and any(
            e.acq_t[pid] <= own_bound
            for es in logs.acq.entries for e in es
        ):
            self._violate(
                pid, f"acq_log retains entries with acq_t[{pid}] <= own "
                f"Tckp[{pid}]={own_bound} after LLT (Rule 2 trim missed)",
            )
        # barrier-log analogue
        bar_from = trim.bar_keep_from()
        if bar_from and any(ep < bar_from for ep in logs.bar):
            self._violate(
                pid, f"barrier log retains episodes below {bar_from} after LLT",
            )
        # Rule 1: own write notices
        wn_from = trim.wn_keep_from()
        proto = host.proto
        if proto is not None and wn_from > 1:
            stale = [
                wn for wn in proto.notices.own_after(pid, 0)
                if wn.interval < wn_from
            ]
            if stale:
                self._violate(
                    pid, f"{len(stale)} own write notices from intervals below "
                    f"{wn_from} retained after LLT (Rule 1 trim missed)",
                )
        # frontier validity: trimming knowledge must lag reality — a
        # frontier ahead of reality would have trimmed entries that
        # recovery still needs
        hosts = self.hosts
        for j in range(ft.n):
            if j == pid:
                continue
            peer_mgr = hosts[j].ckpt_mgr
            if peer_mgr is None:
                continue
            known = trim.tckp[j]
            if peer_mgr.latest is None:
                if any(known.v):
                    self._violate(
                        pid, f"knows checkpoint stamp {tuple(known)} for p{j}, "
                        "which has never committed a checkpoint",
                    )
            elif not known.leq(peer_mgr.latest.tckp):
                self._violate(
                    pid, f"T̂ckp_{j} knowledge {tuple(known)} exceeds p{j}'s "
                    f"actual latest checkpoint "
                    f"{tuple(peer_mgr.latest.tckp)} — trim frontier ran "
                    "ahead of reality",
                )
        home_of = self.regions.home_of
        for page, v in trim.p0v.items():
            home_mgr = hosts[home_of(page)].ckpt_mgr
            if home_mgr is None:
                continue
            copies = home_mgr.page_copies.get(page)
            if copies and v > copies[0].version[pid]:
                self._violate(
                    pid, f"learned p0.v[{pid}]={v} for page {tuple(page)} "
                    f"exceeds the home's actual maximal-starting-copy "
                    f"component {copies[0].version[pid]}",
                )
        self.checks += 1
