"""``fifo``: per-channel FIFO, checked at every delivery: each (src,
dst) channel delivers in send order (by payload identity, across
crashes — the network outlives process incarnations).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict

from repro.sim.trace import DELIVER, SEND

__all__ = ["FifoChecker"]


class FifoChecker:
    name = "fifo"

    def __init__(self, monitor: Any) -> None:
        self._violate = monitor.sink(self.name)
        self.checks = 0
        self._net = monitor.cluster.network
        self._n = monitor.cluster.config.num_procs
        #: channel ``src * n + dst`` -> sent-but-undelivered payloads
        self._chan: Dict[int, deque] = {}

    def subscriptions(self):
        return [(SEND, self._on_send), (DELIVER, self._on_deliver)]

    def adopt(self) -> None:
        """Queue the messages in flight, in delivery order: per channel
        that is send order, which is what the channels held."""
        for src, dst, payload, _epoch in self._net.in_flight():
            self._on_send(src, dst, payload)

    def _on_send(self, src: int, dst: int, payload: Any) -> None:
        key = src * self._n + dst
        q = self._chan.get(key)
        if q is None:
            q = self._chan[key] = deque()
        q.append(payload)

    def _on_deliver(self, src: int, dst: int, payload: Any, epoch: int) -> None:
        q = self._chan.get(src * self._n + dst)
        if q and q[0] is payload:
            q.popleft()
        elif not q:
            self._violate(
                dst, f"delivery of {type(payload).__name__} from p{src} that "
                "was never sent on this channel",
            )
        else:
            self._violate(
                dst, f"channel p{src}->p{dst} reordered: "
                f"{type(payload).__name__} delivered ahead of "
                f"{len(q)} earlier unsent-or-undelivered message(s)",
            )
            try:  # resync so one reorder doesn't cascade
                q.remove(payload)
            except ValueError:
                pass
        self.checks += 1
