"""Write-notice bookkeeping (interval records).

Every process keeps a :class:`NoticeTable` of all write notices it knows
about — its own (which double as the FT layer's ``wn_log``, §4.2.1: "logging
write notices is done as part of the base protocol") and those received in
lock grants and barrier releases. The table is flat: per creator, one list
of notices sorted by interval (insertion order within an interval),
bisected on each notice's ``interval``. The happened-before filtering of
lazy release consistency (send exactly the notices in intervals
``(acq_vt[c], rel_vt[c]]``) is then a list slice per creator, and a
notice arriving in interval order — nearly all of them — is an append.
A creator's list is made at its first notice, and a trim that keeps
none of it puts back :data:`EMPTY`, the one empty bucket every
``NoticeTable`` and ``GrantLog`` shares: a table holds no list for a
creator it never heard from or has none left of.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import List, Sequence, Tuple

from repro.dsm.messages import WriteNotice
from repro.dsm.vclock import VClock

__all__ = ["EMPTY", "NoticeTable"]

#: every empty per-peer bucket, here and in ``core.logs.GrantLog``
#: (immutable, so all tables and logs share it)
EMPTY: Tuple[()] = ()

_interval = attrgetter("interval")


class NoticeTable:
    """Per-process store of write notices, sorted by interval per creator."""

    def __init__(self, num_procs: int) -> None:
        self.n = num_procs
        #: creator -> its notices sorted by interval (EMPTY while none)
        self._notices: List[Sequence[WriteNotice]] = [EMPTY] * num_procs

    def add(self, notice: WriteNotice) -> bool:
        """Insert a notice; returns False if already known."""
        wns = self._notices[notice.creator]
        interval = notice.interval
        if not wns:
            self._notices[notice.creator] = [notice]
            return True
        last = wns[-1].interval
        if interval > last:
            wns.append(notice)
            return True
        # same interval as a known notice, or out of order: look for the
        # page among the (few) notices of that interval, which end the
        # list when it is the newest (most of these, and no bisect then)
        end = (
            len(wns) if interval == last
            else bisect_right(wns, interval, key=_interval)
        )
        page = notice.page
        k = end - 1
        while k >= 0 and wns[k].interval == interval:
            if wns[k].page == page:
                return False
            k -= 1
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
        notices = self._notices
        for c, lo, hi in rows:
            if hi > lo:
                wns = notices[c]
                if not wns or wns[-1].interval <= lo:
                    continue
                # a sender's clock nearly always covers its newest notice
                end = (
                    len(wns) if wns[-1].interval <= hi
                    else bisect_right(wns, hi, key=_interval)
                )
                out += wns[bisect_right(wns, lo, 0, end, key=_interval):end]
        return out

    def own_after(self, creator: int, min_interval: int) -> List[WriteNotice]:
        """Notices created by ``creator`` in intervals > ``min_interval``."""
        wns = self._notices[creator]
        if not wns:
            return []
        return wns[bisect_right(wns, min_interval, key=_interval):]

    def trim_creator_before(self, creator: int, min_keep_interval: int) -> int:
        """Drop notices of ``creator`` with interval < ``min_keep_interval``.

        Implements Rule 1 (wn_log trimming) when applied to the process's
        own notices. Returns the number of notices dropped.
        """
        wns = self._notices[creator]
        cut = bisect_left(wns, min_keep_interval, key=_interval)
        if cut == len(wns):
            self._notices[creator] = EMPTY
        elif cut:
            del wns[:cut]
        return cut

    def count(self) -> int:
        return sum(map(len, self._notices))

    def all_notices(self) -> List[WriteNotice]:
        return [n for wns in self._notices for n in wns]
