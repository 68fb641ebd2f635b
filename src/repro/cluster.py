"""Cluster runtime: wires simulator, DSM protocol, FT layer and apps.

:class:`DsmCluster` owns the event engine, the network, one
:class:`ProcHost` per node (process + disk + crash-surviving checkpoint
store) and the failure/recovery orchestration. A run is fully
deterministic given (app, configs, failure schedule).

Typical use::

    cluster = DsmCluster(DsmConfig(num_procs=8), ft=True,
                         policy_factory=lambda pid, fp: LogOverflowPolicy(0.1, fp))
    app = WaterSpatialApp(WaterSpatialConfig(n_molecules=64, steps=3))
    result = cluster.run(app)
    print(result.wall_time, result.traffic.total_bytes)

The cluster is the root of everything it builds: nothing it owns holds a
strong reference back to it, so dropping the last outside reference frees
the whole run by reference counting (DESIGN.md §5, "Ownership").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.checkpoint import CheckpointManager
from repro.core.ftmanager import FtConfig, FtManager
from repro.core.policies import CheckpointPolicy, LogOverflowPolicy
from repro.dsm.config import DsmConfig
from repro.dsm.locks import token_holders
from repro.dsm.messages import (
    LockGrant,
    Message,
    RecoveryDone,
    RecoveryQuery,
    RecoveryReply,
    ReplicaUpdate,
)
from repro.dsm.pages import RegionSet, SharedRegion
from repro.dsm.protocol import DsmProcess
from repro.sim.engine import Engine, SimProcess, back_ref
from repro.sim.network import Network, NetworkConfig, TrafficStats
from repro.sim.node import TimeStats
from repro.sim.storage import CheckpointStore, Disk, DiskConfig, ReplicaStore
from repro.sim.trace import FAILURE, OP_CLOSE, OP_OPEN, RECOVERY_BEGIN

__all__ = ["DsmCluster", "ProcHost", "RunResult", "PolicyFactory"]

PolicyFactory = Callable[[int, int], CheckpointPolicy]  # (pid, footprint) -> policy

#: delivered to the recovery machinery whether or not the host is live
_RECOVERY_MESSAGES = frozenset({RecoveryQuery, RecoveryReply, RecoveryDone})


class ProcHost:
    """Everything living on one node."""

    def __init__(self, cluster: "DsmCluster", pid: int) -> None:
        self.cluster = back_ref(cluster)
        self.pid = pid
        self.disk = Disk(cluster.disk_config)
        self.store = CheckpointStore(pid)  # stable storage: survives crashes
        #: volatile replica tier: peers' checkpoint/log mirrors held in
        #: this node's memory — wiped by a crash *of this node*
        self.replica_store = ReplicaStore(pid)
        self.ckpt_mgr: Optional[CheckpointManager] = None
        self.proto: Optional[DsmProcess] = None
        self.ft: Optional[FtManager] = None
        self.state: Dict[str, Any] = {}
        self.simproc: Optional[SimProcess] = None
        self.live = False
        self.recovering = False
        self.crashed_count = 0
        self.recovered_count = 0
        self.queued: List[Tuple[int, Message]] = []
        #: active RecoveryManager while this host is recovering
        self.recovery_mgr: Any = None
        #: app-done flag (kept across crash/recovery incarnations)
        self.finished = False
        #: virtual time of the most recent fail-stop (-1: never crashed)
        self.last_crash_time = -1.0
        #: phase anatomy of every *completed* recovery (one record per
        #: incarnation that reached the live switch, DESIGN.md §7.3);
        #: host-level so crash-sweep readers can harvest it after the
        #: run — a recovery killed by a second crash records nothing
        self.recovery_phases: List[Dict[str, float]] = []
        #: monotonic recovery-query ids; host-level (not per incarnation)
        #: so replies to a killed recovery cannot collide with a restarted
        #: one's queries
        self._qid_counter = 0

    def next_qid(self) -> int:
        self._qid_counter += 1
        return self._qid_counter

    # ------------------------------------------------------------------
    def make_protocol(self) -> DsmProcess:
        cluster = self.cluster
        return DsmProcess(
            pid=self.pid,
            config=cluster.config,
            regions=cluster.regions,
            engine=cluster.engine,
            send_fn=cluster.network.send,
        )

    def deliver(self, src: int, msg: Message) -> None:
        if type(msg) in _RECOVERY_MESSAGES:
            self.cluster._handle_recovery_msg(self.pid, src, msg)
        elif self.live:
            self.proto.handle_message(src, msg)
        else:
            self.queued.append((src, msg))

    def drain_queue(self) -> None:
        queued, self.queued = self.queued, []
        for src, msg in queued:
            self.deliver(src, msg)


@dataclass
class RunResult:
    """Outcome of one cluster run."""

    wall_time: float
    traffic: TrafficStats
    time_stats: List[TimeStats]
    proto_stats: List[Any]
    ft_stats: List[Any]
    disk_stats: List[Tuple[int, float]]  # (bytes written, write time) per node
    crashes: int
    recoveries: int
    footprint_bytes: int

    @property
    def mean_time_stats(self) -> TimeStats:
        out = TimeStats()
        for ts in self.time_stats:
            out = out.merged(ts)
        for b in out.seconds:
            out.seconds[b] /= max(1, len(self.time_stats))
        return out


class DsmCluster:
    """A simulated cluster running one DSM application.

    A baseline FT scheme is a subclass: it names its FT manager in
    :attr:`ft_class` and may override :meth:`_start_recovery`.
    """

    #: the FT manager every node runs when ``ft`` is on
    ft_class = FtManager

    def __init__(
        self,
        config: Optional[DsmConfig] = None,
        net_config: Optional[NetworkConfig] = None,
        disk_config: Optional[DiskConfig] = None,
        ft: bool = False,
        ft_config: Optional[FtConfig] = None,
        policy_factory: Optional[PolicyFactory] = None,
    ) -> None:
        self.config = config or DsmConfig()
        self.net_config = net_config or NetworkConfig()
        self.disk_config = disk_config or DiskConfig()
        self.ft_enabled = ft
        self.ft_config = ft_config or FtConfig()
        self.policy_factory = policy_factory or (
            lambda pid, fp: LogOverflowPolicy(0.1, fp)
        )
        self.engine = Engine()
        self.network = Network(self.engine, self.config.num_procs, self.net_config)
        self.regions = RegionSet(self.config)
        self.hosts: List[ProcHost] = [
            ProcHost(self, pid) for pid in range(self.config.num_procs)
        ]
        for host in self.hosts:
            self.network.register(host.pid, host.deliver)
        self.app: Any = None
        self._started = False
        self.crashes = 0
        self.recoveries = 0
        #: pending failure injections: (time, pid)
        self._crash_schedule: List[Tuple[float, int]] = []
        #: recovery queries held because the responder was down (§4.3
        #: overlapping-failure message-hold path)
        self.held_recovery_msgs = 0

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def allocate(self, name: str, num_elements: int, dtype: str = "float64") -> SharedRegion:
        return self.regions.allocate(name, num_elements, dtype)

    def send(self, src: int, dst: int, msg: Message) -> None:
        size, ft_bytes = msg.wire_size()
        self.network.send(src, dst, msg, size, msg.category, ft_bytes)

    def schedule_crash(self, pid: int, at_time: float) -> None:
        """Fail-stop process ``pid`` at virtual time ``at_time``."""
        if not self.ft_enabled:
            raise RuntimeError("cannot recover from crashes without FT enabled")
        self._crash_schedule.append((at_time, pid))

    def schedule_crash_at_step(self, pid: int, step: int) -> None:
        """Fail-stop ``pid`` right after engine event ``step`` executes.

        Event-indexed injection is the crash-sweep primitive: unlike a
        virtual-time point, a step index names one exact position in the
        deterministic event order, so a sweep can enumerate *every*
        reachable crash point of a reference run.
        """
        if not self.ft_enabled:
            raise RuntimeError("cannot recover from crashes without FT enabled")
        me = back_ref(self)
        self.engine.break_at_step(step, lambda: me.crash(pid))

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run(self, app: Any) -> RunResult:
        self.setup(app)
        self.start()
        me = back_ref(self)
        for at_time, pid in self._crash_schedule:
            self.engine.schedule(
                max(0.0, at_time - self.engine.now), lambda p=pid: me.crash(p)
            )
        # the last app main to finish halts the engine
        if not all(h.finished for h in self.hosts):
            self.engine.run()
        pending = [h.pid for h in self.hosts if not h.finished]
        if pending:
            raise RuntimeError(
                f"deadlock: event queue drained, processes not finished: "
                f"{pending}\n{self.host_diagnostics()}"
            )
        if self.app is not None:
            self.app.check_result(self)
        return self.result()

    def setup(self, app: Any) -> None:
        if self._started:
            raise RuntimeError("cluster already ran")
        self.app = app
        app.configure(self)
        self.regions.seal()
        for host in self.hosts:
            host.proto = host.make_protocol()
        app.init_shared(self)
        for host in self.hosts:
            host.state = app.init_state(host.pid)
            if self.ft_enabled:
                self._install_ft(host)

    def _install_ft(self, host: ProcHost) -> None:
        footprint = self.regions.total_bytes
        if host.ckpt_mgr is None:  # reused across recoveries (stable storage)
            host.ckpt_mgr = CheckpointManager(
                host.pid, self.config.num_procs, host.store
            )
        policy = self.policy_factory(host.pid, footprint)
        host.ft = self.ft_class(
            host.proto, policy, host.ckpt_mgr, host.disk, self.ft_config
        )
        host.ft.proc_host = back_ref(host)
        if self.replication:
            from repro.core.replica import Replicator, replica_apply

            host.ft.repl = Replicator(host.ft, host)
            # the buddy's side: a peer's update into this host's ReplicaStore
            host.proto.handlers[ReplicaUpdate] = (
                lambda p, src, m: replica_apply(p.ft.proc_host, src, m)
            )

    @property
    def replication(self) -> bool:
        """True when the buddy-replication tier is active."""
        return (
            self.ft_enabled
            and self.ft_config.replicate
            and self.config.num_procs > 1
        )

    def _recompute_buddies(self) -> None:
        """Re-evaluate every live node's replication buddy (ring order).

        Called at start, at failure-detection time (survivors re-buddy
        away from the dead node), and when a recovered node goes live
        (it re-enters the ring and re-syncs its own replica).
        """
        for host in self.hosts:
            if host.ft is not None and host.ft.repl is not None:
                host.ft.repl.recompute()

    def replica_holder(
        self, lost: int, exclude: Tuple[int, ...] = ()
    ) -> Optional[int]:
        """Live node holding a replica of ``lost``'s FT state, if any.

        Ring order starting at ``lost``'s designated buddy, so the
        freshest copy is tried first; ``exclude`` lists holders already
        tried (stale gen / torn record).
        """
        n = self.config.num_procs
        for k in range(1, n):
            pid = (lost + k) % n
            host = self.hosts[pid]
            if pid in exclude or not host.live:
                continue
            if host.replica_store.has(lost):
                return pid
        return None

    def start(self) -> None:
        self._started = True
        for host in self.hosts:
            host.live = True
            host.simproc = self.engine.spawn(
                self._app_main(host), name=f"app{host.pid}"
            )
        if self.replication:
            self._recompute_buddies()

    def _app_main(self, host: ProcHost) -> Iterator[Any]:
        """A fresh coroutine running ``host``'s application main."""
        return _app_coroutine(self.app, host, self.hosts, self.engine)

    def host_diagnostics(self) -> str:
        """Per-host liveness/wait state, for debuggable deadlock reports;
        then, per lock some host waits on, where its token rests, which
        hosts hold a ``LockGrant`` for it in their queue and, with FT on,
        its newest grant in the grant logs; then, per barrier episode
        some host waits on, who its manager has heard from."""
        lines = []
        waited = set()
        episodes = set()
        for h in self.hosts:
            parts = [
                f"p{h.pid}:",
                f"live={h.live}",
                f"recovering={h.recovering}",
                f"finished={h.finished}",
                f"crashes={h.crashed_count}",
                f"recoveries={h.recovered_count}",
                f"queued={len(h.queued)}",
            ]
            p = h.proto
            if p is not None:
                if p._lock_waiting:
                    parts.append(f"lock_waits={sorted(p._lock_waiting)}")
                    waited.update(p._lock_waiting)
                if p._fetch_waiting:
                    parts.append(
                        f"fetch_waits={sorted(tuple(k) for k in p._fetch_waiting)}"
                    )
                if p._home_waiting:
                    parts.append(
                        f"home_waits={sorted(tuple(k) for k in p._home_waiting)}"
                    )
                if p._pending_arrive is not None:
                    parts.append(
                        f"barrier_wait=ep{p._pending_arrive.episode}"
                    )
                    episodes.add(p._pending_arrive.episode)
            rm = h.recovery_mgr
            if rm is not None and rm._pending:
                parts.append(f"recovery_waits={sorted(rm._pending)}")
            lines.append("  " + " ".join(parts))
        tables = [h.proto.locks for h in self.hosts if h.proto is not None]
        for lock_id in sorted(waited):
            queued = [
                h.pid for h in self.hosts
                if any(isinstance(m, LockGrant) and m.lock_id == lock_id
                       for _src, m in h.queued)
            ]
            line = (
                f"  lock {lock_id}: token_resting_at="
                f"{token_holders(tables, lock_id)} grant_queued_at={queued}"
            )
            if self.ft_enabled:
                line += f" newest_grant={self._newest_grant(lock_id)}"
            lines.append(line)
        mgr = self.hosts[self.config.barrier_manager]
        for episode in sorted(episodes):
            head = f"  barrier ep{episode}: manager=p{mgr.pid}"
            if not mgr.live:
                lines.append(f"{head} down")
                continue
            state = mgr.proto.barrier_mgr
            arrived = sorted(state.current.arrived) if state.current else []
            lines.append(
                f"{head} arrived={arrived} next_episode={state.next_episode}"
            )
        return "\n".join(lines)

    def _newest_grant(self, lock_id: int) -> str:
        """The newest grant of ``lock_id`` in the hosts' grant logs, as
        ``pG->pA@acq_t`` (G = A for a self-grant) and the halves of its
        §4.2.1 pair that hold it, e.g. ``acq@pA+rel@pG``. A grant is
        known by its grantor's own component, as ``GrantLog.confirm``
        knows it; one lock's grants are causally ordered, so the newest
        has the largest stamp."""
        #: (grantor, acquirer, grantor's component) -> [stamp sum, the
        #: larger stamp (a grantor may log a prediction), halves]
        grants: Dict[Tuple[int, int, int], List[Any]] = {}
        for h in self.hosts:
            if h.ft is None:
                continue
            for half, log in (("acq", h.ft.logs.acq), ("rel", h.ft.logs.rel)):
                for peer, bucket in enumerate(log.entries):
                    a = peer if half == "rel" else h.pid
                    for e in bucket:
                        if e.lock_id != lock_id:
                            continue
                        g = a if e.local else (h.pid if half == "rel" else peer)
                        grant = grants.setdefault(
                            (g, a, e.acq_t[g]), [-1, None, []]
                        )
                        grant[2].append(f"{half}@p{h.pid}")
                        size = sum(e.acq_t)
                        if size > grant[0]:
                            grant[:2] = size, e.acq_t
        if not grants:
            return "none"
        (g, a, _), (_, t, halves) = max(
            grants.items(), key=lambda kv: (kv[1][0], kv[0])
        )
        return f"p{g}->p{a}@{tuple(t)} in {'+'.join(sorted(halves))}"

    # ------------------------------------------------------------------
    # failure / recovery orchestration
    # ------------------------------------------------------------------
    def crash(self, pid: int) -> None:
        """Fail-stop ``pid`` now; recovery starts after the detection delay.

        Safe at *any* execution point, including while ``pid`` is itself
        recovering: the recovery coroutine is killed like any other
        incarnation, its :class:`RecoveryManager` is detached (so replies
        addressed to the dead incarnation are dropped, not misdelivered),
        and a fresh recovery starts after the detection delay. Stable
        state (checkpoint store, peers' held ``queued`` entries) is
        untouched, so the restarted recovery sees exactly what the first
        one did.
        """
        host = self.hosts[pid]
        if host.finished or (not host.live and not host.recovering):
            return  # already done, or already down awaiting recovery
        # announce the fail-stop *before* the kill, so observers see the
        # failure while the victim's state is still intact — the span
        # tracer abandons the victim's open spans on this event
        bus = self.engine.bus
        if bus.on[FAILURE]:
            bus.emit(FAILURE, pid)
        self.crashes += 1
        host.crashed_count += 1
        host.last_crash_time = self.engine.now
        host.live = False
        host.recovering = False
        # detach the (possibly mid-recovery) manager: stale RecoveryReply
        # messages in flight must not resolve a dead incarnation's futures
        host.recovery_mgr = None
        assert host.simproc is not None
        host.simproc.kill()
        # all volatile state dies with the process
        host.proto = None
        host.ft = None
        host.state = {}
        me = back_ref(self)
        if self.replication:
            # the replicas this node held for peers die with its memory;
            # survivors re-buddy once the failure is detected
            host.replica_store.clear()
            self.engine.schedule(
                self.config.failure_detection_delay,
                lambda: me._recompute_buddies(),
            )
        self.engine.schedule(
            self.config.failure_detection_delay,
            lambda: me._start_recovery(pid),
        )

    def _start_recovery(self, pid: int) -> None:
        """Recover ``pid`` alone, by log-based replay (§4.3), once its
        failure is detected."""
        host = self.hosts[pid]
        if host.live or host.finished or host.recovering:
            return  # already back (or a restarted recovery is underway)
        host.recovering = True
        bus = self.engine.bus
        if bus.on[RECOVERY_BEGIN]:
            bus.emit(RECOVERY_BEGIN, pid, host.crashed_count)
        from repro.core.recovery import RecoveryManager

        rm = RecoveryManager(host)
        host.simproc = self.engine.spawn(rm.recover_and_resume(), name=f"rec{pid}")

    def _handle_recovery_msg(self, dst: int, src: int, msg: Message) -> None:
        host = self.hosts[dst]
        if isinstance(msg, RecoveryDone):
            # a peer finished recovering: re-issue possibly swallowed
            # requests and repair lock forwards — once this host is live
            # itself, like any other message to a down host
            if not host.live:
                host.queued.append((src, msg))
                return
            host.proto.resend_pending(msg.proc)
            host.proto.repair_forwards_for(msg.proc)
            return
        if isinstance(msg, RecoveryReply):
            if host.recovery_mgr is None:
                return  # stale reply (recovery finished); drop
            host.recovery_mgr.on_reply(src, msg)
            return
        if host.ft is None:
            if not self.ft_enabled:
                raise RuntimeError(
                    f"recovery query for node {dst} but FT is not enabled"
                )
            # query addressed to a host that is itself down: hold it
            # until that host has recovered (single-fault assumption
            # makes overlap rare; the requester simply blocks, §4.3)
            self.held_recovery_msgs += 1
            host.queued.append((src, msg))
            return
        from repro.core.recovery import answer_query

        answer_query(host, src, msg)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def __del__(self) -> None:
        # Three kinds of edge close cycles by design: a pending event or
        # a live coroutine reaches the engine that runs it, a subscriber
        # the engine it listens to, and a node the network that delivers
        # to it. They go with the cluster, so that reference counting
        # frees everything it owned; a finished run has no live coroutine.
        engine = self.__dict__.get("engine")
        if engine is None:  # __init__ did not get that far
            return
        engine.bus.clear()  # a killed coroutine's finally announces nothing
        for host in self.__dict__.get("hosts", ()):
            proc = host.simproc
            if proc is not None and proc.alive and not proc.done:
                proc.kill()
        engine.discard()
        self.network.detach()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def result(self) -> RunResult:
        return RunResult(
            wall_time=self.engine.now,
            traffic=self.network.traffic,
            time_stats=[
                h.proto.cpu.stats if h.proto else TimeStats() for h in self.hosts
            ],
            proto_stats=[h.proto.stats if h.proto else None for h in self.hosts],
            ft_stats=[h.ft.stats if h.ft else None for h in self.hosts],
            disk_stats=[(h.disk.bytes_written, h.disk.write_time) for h in self.hosts],
            crashes=self.crashes,
            recoveries=self.recoveries,
            footprint_bytes=self.regions.total_bytes,
        )

    def write_initial(self, region: SharedRegion, values: np.ndarray) -> None:
        """Install identical initial contents in every process's copy.

        Stand-in for the sequential initialization phase of SPLASH-2
        programs; must be called from ``app.init_shared`` (before any
        sharing, so all copies and the virtual checkpoint 0 agree).
        """
        values = np.asarray(values, dtype=region.dtype).ravel()
        if len(values) > region.num_elements:
            raise ValueError("initial data larger than region")
        for host in self.hosts:
            assert host.proto is not None
            view = host.proto.typed_view(region)
            view[: len(values)] = values

    # convenience for tests: final shared memory as seen by homes
    def shared_snapshot(self, region: SharedRegion) -> np.ndarray:
        """Authoritative region contents assembled from the home copies."""
        out = np.zeros(region.nbytes, dtype=np.uint8)
        for i in range(region.num_pages):
            home = region.home_of(i)
            proto = self.hosts[home].proto
            assert proto is not None
            lo, hi = region.page_slice(i)
            out[lo:hi] = proto.backing[region.region_id][lo:hi]
        return out.view(region.dtype)[: region.num_elements]


def _app_coroutine(
    app: Any, host: ProcHost, hosts: List[ProcHost], engine: Engine
) -> Iterator[Any]:
    # a module function, so that the coroutine's frame holds no cluster
    bus = engine.bus
    if bus.on[OP_OPEN]:
        bus.emit(OP_OPEN, host.pid, "app", host.crashed_count)
    try:
        yield from app.run(host.proto, host.state)
        host.finished = True
        if all(h.finished for h in hosts):
            engine.halt()
    finally:
        if bus.on[OP_CLOSE]:
            bus.emit(OP_CLOSE, host.pid, "app", None)
