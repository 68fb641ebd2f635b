"""Virtual-time sampler wiring a :class:`MetricsRegistry` into a cluster.

:class:`ClusterObserver` attaches to a :class:`~repro.cluster.DsmCluster`
before the run and produces per-node time series on two cadences:

* **barrier episodes** — the first process to complete each barrier
  episode triggers a sample, giving one point per synchronization epoch
  (the natural x-axis of the paper's log-dynamics discussion);
* **virtual time** — an optional self-rescheduling engine event samples
  every ``interval`` seconds of virtual time.

Both cadences only *read* state. The time ticker does schedule engine
events, but those events send no messages, charge no CPU time and touch
no protocol state, so virtual timestamps and traffic counters of the
observed run are bit-identical to an unobserved run (pinned by the
golden determinism test). The ticker also refuses to reschedule itself
when it is the only remaining event, so a deadlocked run still drains
its queue and reaches the cluster's deadlock diagnostics instead of
spinning on samples.

Per-node gauges close over the :class:`~repro.cluster.ProcHost` (not the
protocol object) so they survive crash/recovery incarnations; everything
else arrives as events on the run's bus (``repro.sim.trace``), whichever
incarnation emits them.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.observe.latency import LatencyHistogram
from repro.observe.registry import CLUSTER_NODE, MetricsRegistry
from repro.sim.trace import (
    APP_LATENCY,
    BARRIER_DONE,
    CGC,
    CHECKPOINT_TAKEN,
    CKPT_WRITE_END,
    FAILURE,
    LLT,
    RECOVERY_LIVE,
    REPL_ACK,
    REPL_COMMIT,
    REPL_RETARGET,
    WAIT,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster import DsmCluster, ProcHost

__all__ = ["ClusterObserver"]

#: wait ops with a distribution, ``lat.<op>`` (DESIGN.md §7.3). Home
#: waits charge PAGE_WAIT too but have no distribution of their own.
_WAIT_OPS = ("fetch", "acquire", "barrier")

#: a host's sampled row (``_install_host_gauges``): ``dsm.<stat>`` for each
#: protocol stat, then with FT on, then with buddy replication on
_PROTO_STATS = ("page_fetches", "page_fetch_bytes", "diff_bytes_sent",
                "diff_bytes_created", "lock_acquires", "barriers")
_FT_GAUGES = ("ft.log_volatile_bytes", "ft.log_saved_bytes",
              "ft.log_unsaved_bytes", "ft.rel_log_entries", "ft.wn_entries",
              "ft.checkpoints_taken", "ft.ckpts_retained")
_REPLICA_GAUGES = ("ft.replica_bytes", "ft.replica_lag")

#: samples after which neither cadence samples again
MAX_SAMPLES = 100_000


class ClusterObserver:
    """Samples a cluster's protocol/FT/simulator state into a registry."""

    def __init__(
        self,
        cluster: "DsmCluster",
        interval: Optional[float] = None,
        sample_on_barrier: bool = True,
        window_s: float = 1e-3,
    ) -> None:
        # the cluster's bus holds this observer, so it keeps the parts it
        # reads, never the cluster itself
        self.engine = engine = cluster.engine
        self.hosts = cluster.hosts
        # latency windows (DESIGN.md §7.4) of the engine's virtual time,
        # which the clock callback reads and nothing else
        self.registry = MetricsRegistry(lambda: engine.now, window_s)
        self.interval = interval
        self.sample_on_barrier = sample_on_barrier
        #: completed recoveries' phase records (tagged with pid), the
        #: run report's ``recovery`` records and the degradation
        #: timeline's crash marks
        self.recovery_records: list = []
        self._next_episode = 0
        #: (steps, now) at the previous sample, for the events/sec series
        self._last_rate_point = (0, 0.0)
        #: (pid, wait op) -> its distribution, created up front so a
        #: node that never waited still reports it, empty
        self._waits: Dict[Tuple[int, str], LatencyHistogram] = {}
        #: pid -> seqno -> virtual time its replica commit was sent to
        #: the current buddy; popped by the ack that covers it
        self._commit_sent: Dict[int, Dict[int, float]] = {}
        self._install_cluster_gauges(cluster.network)
        reg = self.registry
        for host in cluster.hosts:
            self._install_host_gauges(
                host, cluster.ft_enabled, cluster.replication
            )
            for op in _WAIT_OPS:
                self._waits[host.pid, op] = reg.latency(f"lat.{op}", host.pid)
        subscribe = engine.bus.subscribe
        subscribe(WAIT, self._on_wait)
        subscribe(BARRIER_DONE, self._on_barrier)
        subscribe(APP_LATENCY, self._on_app_latency)
        subscribe(CHECKPOINT_TAKEN, self._on_checkpoint)
        subscribe(CKPT_WRITE_END, self._on_ckpt_write)
        subscribe(LLT, self._on_llt)
        subscribe(CGC, self._on_cgc)
        subscribe(RECOVERY_LIVE, self._on_recovery_live)
        subscribe(REPL_COMMIT, self._on_repl_commit)
        subscribe(REPL_ACK, self._on_repl_ack)
        # commits sent to a buddy that is gone, or by an incarnation that
        # is gone, will never be acked
        subscribe(REPL_RETARGET, self._forget_commits)
        subscribe(FAILURE, self._forget_commits)
        if interval is not None:
            if interval <= 0:
                raise ValueError(f"sample interval must be positive: {interval}")
            engine.schedule(interval, self._tick)

    def _install_cluster_gauges(self, net: Any) -> None:
        engine = self.engine
        traffic = net.traffic
        self.registry.gauges(
            ("sim.events", "sim.channel_bytes_inflight",
             "sim.channel_msgs_inflight", "net.total_bytes",
             "net.total_msgs", "net.ft_bytes"),
            CLUSTER_NODE,
            lambda: (
                engine.steps, net.inflight_bytes, net.inflight_msgs,
                traffic.total_bytes, traffic.total_msgs, traffic.ft_bytes,
            ),
        )

    def _install_host_gauges(
        self, host: "ProcHost", ft_enabled: bool, replication: bool
    ) -> None:
        """One reader per host: each sample reads the host's row once.

        A crashed host (``proto``/``ft`` are None until recovery installs
        the next incarnation) reads 0 for the state it has lost.
        """
        proto_stats = attrgetter(*_PROTO_STATS)
        no_proto = (0.0,) * len(_PROTO_STATS)

        def read() -> Tuple[float, ...]:
            proto, ft, mgr = host.proto, host.ft, host.ckpt_mgr
            row = proto_stats(proto.stats) if proto is not None else no_proto
            if not ft_enabled:
                return row
            if ft is None:
                row += (0.0,) * (len(_FT_GAUGES) - 1)
            else:
                logs = ft.logs
                diff = logs.diff
                row += (
                    diff.volatile_bytes, diff.saved_bytes, diff.unsaved_bytes,
                    logs.rel.count() + logs.acq.count(),
                    ft.proc.notices.count(),
                    ft.stats.checkpoints_taken,
                )
            row += (len(mgr.retained_seqnos) if mgr is not None else 0.0,)
            if replication:
                # bytes of *peers'* FT state this node holds (volatile
                # replica tier) and how far its own replication trails its
                # checkpoints (0 = buddy holds everything committed)
                repl = ft.repl if ft is not None else None
                row += (
                    host.replica_store.used_bytes,
                    repl.lag if repl is not None else 0.0,
                )
            return row

        names = tuple("dsm." + stat for stat in _PROTO_STATS)
        if ft_enabled:
            names += _FT_GAUGES + (_REPLICA_GAUGES if replication else ())
        self.registry.gauges(names, host.pid, read)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self) -> None:
        """Snapshot every gauge/counter at the current virtual time."""
        engine = self.engine
        now = engine.now
        self.registry.sample(now)
        last_steps, last_now = self._last_rate_point
        dt = now - last_now
        if dt > 0:
            self.registry.record(
                "sim.events_per_vsec",
                CLUSTER_NODE,
                now,
                (engine.steps - last_steps) / dt,
            )
        self._last_rate_point = (engine.steps, now)

    def _on_barrier(self, pid: int, episode: int) -> None:
        """Barrier-episode cadence: sample once per completed episode."""
        if not self.sample_on_barrier:
            return
        if episode < self._next_episode:
            return
        self._next_episode = episode + 1
        if self.registry.samples_taken < MAX_SAMPLES:
            self.sample()

    def _tick(self) -> None:
        engine = self.engine
        self.sample()
        if self.registry.samples_taken >= MAX_SAMPLES:
            return
        # do not keep the event queue alive on our own: if nothing else
        # is pending the run is over (or deadlocked) and rescheduling
        # would turn queue-drain detection into a sampling livelock
        if engine.pending():
            engine.schedule(self.interval, self._tick)

    # ------------------------------------------------------------------
    # event handlers (record only)
    # ------------------------------------------------------------------
    def _on_wait(self, pid: int, bucket: Any, seconds: float, op: str) -> None:
        lat = self._waits.get((pid, op))
        if lat is not None:
            lat.observe(seconds)

    def _on_app_latency(self, pid: int, name: str, seconds: float) -> None:
        """A workload's own latency op class (the session serving app's
        request/queueing latencies): same registry as the protocol
        sites, windowed automatically when the run collects windows."""
        self.registry.latency(name, pid).observe(seconds)

    def _on_checkpoint(
        self, pid: int, ckpt_no: int, vt: Any, disk_log_bytes: int
    ) -> None:
        """Record the Figure 4 point: stable log size at checkpoint N."""
        self.registry.record("ft.log_disk_bytes", pid, ckpt_no, disk_log_bytes)

    def _on_ckpt_write(self, pid: int, seqno: int, duration_s: float) -> None:
        """One checkpoint's write+commit duration (stage → commit marker)."""
        self.registry.latency("lat.ckpt", pid).observe(duration_s)

    def _on_repl_commit(self, pid: int, seqno: int, dst: int) -> None:
        self._commit_sent.setdefault(pid, {})[seqno] = self.engine.now

    def _on_repl_ack(self, pid: int, seqno: int) -> None:
        """Replica transfer/ack lag: checkpoint commit send → buddy ack.

        Acks are cumulative: this one covers every commit sent at or
        before ``seqno``.
        """
        sent = self._commit_sent.get(pid)
        if not sent:
            return
        now = self.engine.now
        lag = self.registry.latency("lat.replica_ack", pid)
        for s in sorted(sent):
            if s > seqno:
                break
            lag.observe(now - sent.pop(s))

    def _forget_commits(self, pid: int, *_: Any) -> None:
        self._commit_sent.pop(pid, None)

    def _on_recovery_live(self, pid: int) -> None:
        """One completed recovery's phase anatomy (DESIGN.md §7.3): the
        record the recovery manager appended to ``host.recovery_phases``
        just before the live switch — end-to-end duration plus
        detection/restore/handshake/replay phases."""
        rec = self.hosts[pid].recovery_phases[-1]
        reg = self.registry
        reg.latency("lat.recovery", pid).observe(rec["total"])
        for phase in ("detect", "restore", "handshake", "replay"):
            reg.latency(f"lat.recovery.{phase}", pid).observe(rec[phase])
        self.recovery_records.append(dict(rec, pid=pid))

    def _on_llt(self, pid: int, trimmed: Dict[str, int]) -> None:
        """Account one LLT pass (bytes/entries trimmed per rule)."""
        reg = self.registry
        reg.counter("ft.trim_diff_bytes", pid).inc(trimmed.get("diff_bytes", 0))
        reg.counter("ft.trim_rel_entries", pid).inc(
            trimmed.get("rel", 0) + trimmed.get("acq", 0)
        )
        reg.counter("ft.trim_wn_entries", pid).inc(trimmed.get("wn", 0))
        reg.counter("ft.trim_bar_entries", pid).inc(trimmed.get("bar", 0))

    def _on_cgc(self, pid: int, freed: int, window: int) -> None:
        """Account one CGC pass (checkpoint bytes collected)."""
        self.registry.counter("ft.cgc_freed_bytes", pid).inc(freed)
