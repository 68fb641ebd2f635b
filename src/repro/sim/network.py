"""Reliable FIFO point-to-point network with a latency+bandwidth cost model.

Models a Myrinet-class LAN with user-level communication as used in the
paper (~20 microseconds one-way latency, ~100 MB/s per link). Channels are
reliable and FIFO per (src, dst) pair, matching the paper's assumption of
"reliable communication channels". Delivery invokes the destination's
registered handler at the arrival time.

Traffic is accounted per category so that the Table 2 comparison (base
HLRC protocol traffic vs. piggybacked CGC/LLT control traffic) falls out
directly: every send carries a ``category`` string and an ``ft_bytes``
component counting only the fault-tolerance piggyback portion.

Fast path
---------
A message is one hop each way. :meth:`Network.send` records traffic
inline, reads the channel's ``[latency, byte_time, clear]`` record and
queues one ``partial(_deliver, ...)`` event with the ``(time, seq)``
``Engine.schedule`` would give it. The ``SEND``/``DELIVER`` subscriber
lists are hoisted once: unobserved, a message pays one list test a side.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.sim.engine import Engine
from repro.sim.trace import DELIVER, SEND

__all__ = ["NetworkConfig", "MetaClusterConfig", "Network", "TrafficStats"]


@dataclass(frozen=True)
class NetworkConfig:
    """Cost model for one message: ``latency + size * byte_time``."""

    latency: float = 20e-6  # one-way wire+software latency (s)
    bandwidth: float = 100e6  # bytes/s per channel

    @property
    def byte_time(self) -> float:
        return 1.0 / self.bandwidth

    def link(self, src: int, dst: int) -> Tuple[float, float]:
        """(latency, byte_time) for the src->dst link. Uniform here."""
        return self.latency, self.byte_time


@dataclass(frozen=True)
class MetaClusterConfig(NetworkConfig):
    """Two-level topology: LAN inside a cluster, WAN between clusters.

    The paper (§1) motivates independent checkpointing with "wide-area
    metaclusters (clusters of local-area clusters connected by the
    Internet)"; this config models them. Processes are assigned to
    clusters round-robin-blocked: pids [0, cluster_size) form cluster 0,
    the next ``cluster_size`` cluster 1, and so on.
    """

    cluster_size: int = 4
    wan_latency: float = 20e-3  # cross-country-ish one-way
    wan_bandwidth: float = 10e6

    def cluster_of(self, pid: int) -> int:
        return pid // self.cluster_size

    def link(self, src: int, dst: int) -> Tuple[float, float]:
        if self.cluster_of(src) == self.cluster_of(dst):
            return self.latency, self.byte_time
        return self.wan_latency, 1.0 / self.wan_bandwidth


class TrafficStats:
    """Byte and message counters, split by category and FT piggyback;
    :meth:`Network.send` updates them inline, totals are sums on read."""

    def __init__(self) -> None:
        self.bytes_by_category: Dict[str, int] = defaultdict(int)
        self.msgs_by_category: Dict[str, int] = defaultdict(int)
        self.ft_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_category.values())

    @property
    def total_msgs(self) -> int:
        return sum(self.msgs_by_category.values())

    @property
    def base_bytes(self) -> int:
        """Protocol traffic excluding the fault-tolerance bytes."""
        return self.total_bytes - self.ft_bytes

    def ft_overhead_percent(self) -> float:
        if self.base_bytes == 0:
            return 0.0
        return 100.0 * self.ft_bytes / self.base_bytes


Handler = Callable[[int, Any], None]


class Network:
    """Point-to-point reliable FIFO network among ``n`` endpoints."""

    def __init__(self, engine: Engine, n: int, config: Optional[NetworkConfig] = None):
        self.engine = engine
        self.n = n
        self.config = config or NetworkConfig()
        self.traffic = TrafficStats()
        self._handlers: List[Optional[Handler]] = [None] * n
        #: src * n + dst -> [latency, byte_time, clear, last], made on
        #: first use: the link's cost (config is frozen, so link() is
        #: pure), the earliest admissible arrival and the event time of
        #: the last delivery queued, which together keep it FIFO
        self._channels: Dict[int, List[float]] = {}
        bus = engine.bus
        self._send_taps = bus.listeners(SEND)
        self._deliver_taps = bus.listeners(DELIVER)
        #: epoch counter: a flush invalidates every in-flight message
        self.epoch = 0
        #: bytes/messages currently in flight (sent, not yet delivered);
        #: maintained unconditionally — two int ops per message — so the
        #: observability layer can sample channel occupancy passively
        self.inflight_bytes = 0
        self.inflight_msgs = 0

    def register(self, node_id: int, handler: Handler) -> None:
        """Install the message handler for endpoint ``node_id``."""
        if not (0 <= node_id < self.n):
            raise ValueError(f"node {node_id} out of range 0..{self.n - 1}")
        self._handlers[node_id] = handler

    def detach(self) -> None:
        """Forget every endpoint's handler (the cluster's teardown)."""
        self._handlers = [None] * self.n

    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        size: int,
        category: str,
        ft_bytes: int = 0,
    ) -> None:
        """Transmit ``payload`` from ``src`` to ``dst``.

        ``size`` is the modeled wire size in bytes (headers + payload +
        piggyback); ``ft_bytes`` is the piggybacked fault-tolerance control
        portion of ``size``, accounted separately for Table 2.
        """
        n = self.n
        # range-checked: channel src * n + dst must not alias another
        if src == dst or not (
            0 <= src < n and 0 <= dst < n and 0 <= ft_bytes <= size
        ):
            raise ValueError(f"bad send p{src}->p{dst} (loopback is not "
                             f"modeled): size={size} ft_bytes={ft_bytes}")
        for tap in self._send_taps:
            tap(src, dst, payload)
        traffic = self.traffic
        traffic.bytes_by_category[category] += size
        traffic.msgs_by_category[category] += 1
        traffic.ft_bytes += ft_bytes
        channel = self._channels.get(src * n + dst)
        if channel is None:
            channel = [*self.config.link(src, dst), 0.0, 0.0]
            self._channels[src * n + dst] = channel
        engine = self.engine
        now = engine.now
        arrival = now + channel[0] + size * channel[1]
        # FIFO per channel: a later send never overtakes an earlier one.
        if channel[2] > arrival:
            arrival = channel[2]
        channel[2] = arrival
        self.inflight_bytes += size
        self.inflight_msgs += 1
        # ``engine.schedule(delay, ...)`` inlined: the same (time, seq),
        # except that ``now + (arrival - now)`` can round one ulp below
        # the previous delivery's time on an equal or clamped arrival
        delay = arrival - now
        when = now + delay
        if when < channel[3]:
            when = channel[3]
        channel[3] = when
        seq = engine._seq
        engine._seq = seq + 1
        event = (when, seq,
                 partial(self._deliver, src, dst, payload, self.epoch, size))
        if delay == 0.0:
            engine._ready.append(event)
        else:
            heapq.heappush(engine._queue, event)

    def in_flight(self) -> Iterator[Tuple[int, int, Any, int]]:
        """``(src, dst, payload, epoch)`` of every message sent and not
        yet delivered, in delivery (``(time, seq)``) order, read off the
        engine's ready deque and heap. Read-only."""
        deliver = self._deliver  # a seeded sabotage may wrap it
        engine = self.engine
        for _t, _seq, fn in sorted(
            chain(engine._ready, engine._queue), key=itemgetter(0, 1)
        ):
            if type(fn) is partial and fn.func == deliver:
                yield fn.args[:4]

    def flush_epoch(self) -> None:
        """Invalidate every message currently in flight (global rollback)."""
        self.epoch += 1

    def _deliver(
        self, src: int, dst: int, payload: Any, epoch: int, size: int = 0
    ) -> None:
        # before the epoch test: a message a rollback voided is still
        # announced, with the epoch it was sent in
        for tap in self._deliver_taps:
            tap(src, dst, payload, epoch)
        self.inflight_bytes -= size
        self.inflight_msgs -= 1
        if epoch != self.epoch:
            return  # message belonged to a rolled-back epoch
        handler = self._handlers[dst]
        if handler is None:
            raise RuntimeError(f"no handler registered for node {dst}")
        handler(src, payload)
