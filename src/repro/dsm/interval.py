"""Write-notice bookkeeping (interval records).

Every process keeps a :class:`NoticeTable` of all write notices it knows
about — its own (which double as the FT layer's ``wn_log``, §4.2.1: "logging
write notices is done as part of the base protocol") and those received in
lock grants and barrier releases. The table is flat: per creator, one list
of notices sorted by interval (insertion order within an interval) and a
parallel list of just the intervals to bisect on. The happened-before
filtering of lazy release consistency (send exactly the notices in
intervals ``(acq_vt[c], rel_vt[c]]``) is then a list slice per creator,
and a notice arriving in interval order — nearly all of them — is an
append.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List

from repro.dsm.messages import WriteNotice
from repro.dsm.vclock import VClock

__all__ = ["NoticeTable"]


class NoticeTable:
    """Per-process store of write notices, sorted by interval per creator."""

    def __init__(self, num_procs: int) -> None:
        self.n = num_procs
        # creator -> notices sorted by interval; creator -> their intervals
        self._notices: List[List[WriteNotice]] = [[] for _ in range(num_procs)]
        self._intervals: List[List[int]] = [[] for _ in range(num_procs)]

    def add(self, notice: WriteNotice) -> bool:
        """Insert a notice; returns False if already known."""
        ivs = self._intervals[notice.creator]
        wns = self._notices[notice.creator]
        interval = notice.interval
        if not ivs or interval > ivs[-1]:
            ivs.append(interval)
            wns.append(notice)
            return True
        # same interval as a known notice, or out of order: look for the
        # page among the (few) notices of that interval
        end = bisect_right(ivs, interval)
        page = notice.page
        for k in range(bisect_left(ivs, interval, 0, end), end):
            if wns[k].page == page:
                return False
        ivs.insert(end, interval)
        wns.insert(end, notice)
        return True

    def between(self, low: VClock, high: VClock) -> List[WriteNotice]:
        """Notices with ``low[c] < interval <= high[c]`` for their creator.

        This is exactly the happened-before set a lock grantor with release
        time ``high`` must send to an acquirer at time ``low``. Wide clocks
        visit only the creators whose component moved.
        """
        if self.n >= VClock.ARRAY_WIDTH:
            lo_a, hi_a = low.as_array(), high.as_array()
            moved = (hi_a > lo_a).nonzero()[0]
            rows = zip(moved.tolist(), lo_a[moved].tolist(), hi_a[moved].tolist())
        else:
            rows = zip(range(self.n), low.v, high.v)
        out: List[WriteNotice] = []
        for c, lo, hi in rows:
            if hi > lo:
                ivs = self._intervals[c]
                start, end = bisect_right(ivs, lo), bisect_right(ivs, hi)
                out += self._notices[c][start:end]
        return out

    def own_after(self, creator: int, min_interval: int) -> List[WriteNotice]:
        """Notices created by ``creator`` in intervals > ``min_interval``."""
        start = bisect_right(self._intervals[creator], min_interval)
        return self._notices[creator][start:]

    def trim_creator_before(self, creator: int, min_keep_interval: int) -> int:
        """Drop notices of ``creator`` with interval < ``min_keep_interval``.

        Implements Rule 1 (wn_log trimming) when applied to the process's
        own notices. Returns the number of notices dropped.
        """
        cut = bisect_left(self._intervals[creator], min_keep_interval)
        del self._intervals[creator][:cut]
        del self._notices[creator][:cut]
        return cut

    def count(self) -> int:
        return sum(map(len, self._notices))

    def all_notices(self) -> List[WriteNotice]:
        return [n for wns in self._notices for n in wns]
