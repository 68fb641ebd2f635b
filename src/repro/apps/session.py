"""DSM-backed session cache driven by a deterministic open-loop generator.

The serving workload the ROADMAP's north star asks for (open item 1):
instead of barrier-phased kernel iterations, each process is a frontend
serving a stream of user requests against a shared **session table** —
one float64 cell per session key, guarded by stripe locks exactly like
:mod:`repro.apps.kvstore`.

**Open-loop traffic.** Request arrival times are a pure function of the
configuration — exponential interarrivals at ``rate`` requests per
virtual second per process — and are *independent of service
completions*: the serving loop sleeps until the next arrival only when
it is ahead of schedule, and otherwise serves immediately, carrying the
backlog. That makes queueing delay (arrival → service start) an honest
overload/disruption signal: a crash stalls the cluster, arrivals keep
accumulating, and the post-recovery backlog shows up as a queueing-delay
spike that decays as the loop catches back up — the degradation the
windowed tail-latency series and the SLO reconvergence measure.

**Request synthesis** (all pure functions of ``(seed, pid, request)``,
so the resumable loop replays identically after recovery):

* each request belongs to a *user* drawn uniformly from the population;
* with probability ``session_affinity`` it touches the user's home key
  (session stickiness — per-user state concentrates on one cell),
  otherwise an independent key drawn from a zipfian popularity
  distribution over the whole table (hot shared keys);
* it is a read with probability ``read_fraction``, else a write.

Writes are additive with integer-valued deltas (the kvstore discipline),
so the final table is exact in float64 and independent of lock order and
crash schedules — crash-sweep's recovery-equivalence oracle holds for
every injection point. Reads return values that depend on interleaving
and are deliberately **not** stored in checkpointable state or asserted.

Latencies are announced as ``APP_LATENCY`` events on the run's bus
(``sim.trace``), which cost one attribute test when nothing subscribes:

* ``lat.request`` — arrival → completion, per request;
* ``lat.request.read`` / ``lat.request.write`` — the same, split by op;
* ``lat.queue`` — arrival → service start (queueing delay only).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Tuple

import numpy as np

from repro.apps.base import AppConfig, DsmApp, phase_loop
from repro.dsm.protocol import DsmProcess
from repro.sim.trace import APP_LATENCY

__all__ = ["SessionConfig", "SessionApp", "request_table"]

#: seed-stream tags (third element of the RNG seed tuple) so the arrival
#: process and per-request draws never collide with other apps' streams
_ARRIVAL_STREAM = 101
_REQUEST_STREAM = 202


@dataclass
class SessionConfig(AppConfig):
    steps: int = 3
    #: session table size (keys) and stripe-lock count
    n_keys: int = 256
    n_stripes: int = 8
    #: user population (per process — frontends have disjoint users)
    n_users: int = 32
    #: requests served per process per step (a barrier closes each step)
    requests_per_step: int = 8
    #: open-loop arrival rate, requests per virtual second per process
    rate: float = 4000.0
    #: fraction of requests that only read the session cell
    read_fraction: float = 0.75
    #: probability a request hits the user's sticky home key instead of
    #: an independent zipfian draw over the whole table
    session_affinity: float = 0.6
    #: zipf exponent for the non-sticky key popularity distribution
    zipf_s: float = 1.1
    #: service-time CPU charge per request
    compute_per_op: float = 2e-5

    def __post_init__(self) -> None:
        if self.n_stripes < 1 or self.n_stripes > self.n_keys:
            raise ValueError(
                f"n_stripes must be in [1, n_keys]: {self.n_stripes}"
            )
        if self.rate <= 0:
            raise ValueError(f"rate must be positive: {self.rate}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction not in [0,1]: {self.read_fraction}")
        if not 0.0 <= self.session_affinity <= 1.0:
            raise ValueError(
                f"session_affinity not in [0,1]: {self.session_affinity}"
            )


def _zipf_cdf(cfg: SessionConfig) -> np.ndarray:
    """Cumulative zipfian popularity over the key space (rank 1 hottest)."""
    weights = 1.0 / np.arange(1, cfg.n_keys + 1, dtype=np.float64) ** cfg.zipf_s
    return np.cumsum(weights / weights.sum())


#: request tables the cache holds, one per (config, pid): a sweep asks
#: for one config's ``procs`` tables at every point, recovery and check
_TABLE_CACHE = 64

#: one request: (arrival time, key, is_read)
Request = Tuple[float, int, bool]


def request_table(cfg: SessionConfig, pid: int) -> Tuple[Request, ...]:
    """Every request of process ``pid``, in order, built once per process
    for each config value.

    A pure function of ``(config, pid)``: the arrival process is one
    generator per process, and each request's draws (user, affinity,
    key, read/write) come from a generator of its own (nothing to
    checkpoint), the kvstore discipline. A crash sweep, recovery replay
    and ``check_result`` ask for the same requests over and over, and
    building a generator costs far more than the arithmetic.
    """
    return _request_table(type(cfg), tuple(vars(cfg).values()), pid)


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _request_table(
    cfg_type: type, fields: Tuple, pid: int
) -> Tuple[Request, ...]:
    cfg = cfg_type(*fields)
    n = cfg.steps * cfg.requests_per_step
    arrivals = np.random.default_rng((cfg.seed, pid, _ARRIVAL_STREAM))
    cdf = _zipf_cdf(cfg)
    homes: Dict[int, int] = {}
    table = []
    for r, arrival in enumerate(
        np.cumsum(arrivals.exponential(1.0 / cfg.rate, size=n)).tolist()
    ):
        rng = np.random.default_rng((cfg.seed, pid, _REQUEST_STREAM, r))
        u_user, u_aff, u_key, u_rw = rng.random(4).tolist()
        user = int(u_user * cfg.n_users) % cfg.n_users
        if u_aff < cfg.session_affinity:
            # sticky home key: a stable pseudo-random cell per (pid, user),
            # itself zipf-distributed so hot users share hot cells
            key = homes.get(user)
            if key is None:
                home = np.random.default_rng((cfg.seed, pid, _ARRIVAL_STREAM, user))
                key = homes[user] = int(cdf.searchsorted(home.random()))
        else:
            key = int(cdf.searchsorted(u_key))
        table.append((arrival, min(key, cfg.n_keys - 1), u_rw < cfg.read_fraction))
    return tuple(table)


def _write_delta(pid: int, r: int) -> float:
    """Integer-valued session update (exact in float64, order-free)."""
    return float((pid + r) % 7 + 1)


class SessionApp(DsmApp):
    name = "session"
    Config = SessionConfig

    def configure(self, cluster: Any) -> None:
        self.r_sessions = cluster.allocate("sessions", self.cfg.n_keys)

    def _stripe(self, key: int) -> int:
        return key * self.cfg.n_stripes // self.cfg.n_keys

    # ------------------------------------------------------------------
    def run(self, proc: DsmProcess, state: Dict[str, Any]) -> Iterator[Any]:
        cfg = self.cfg
        requests = request_table(cfg, proc.pid)

        def phase_serve(proc: DsmProcess, state: Dict, step: int) -> Iterator[Any]:
            for i in range(cfg.requests_per_step):
                r = step * cfg.requests_per_step + i
                arrival, key, is_read = requests[r]
                now = proc.engine.now
                if now < arrival:
                    # ahead of schedule: idle until the arrival. A bare
                    # delay charges no TimeBucket, so Figure-3 breakdowns
                    # and span reconciliation stay exact
                    yield arrival - now
                service_start = proc.engine.now
                stripe = self._stripe(key)
                yield from proc.acquire(stripe)
                if is_read:
                    yield from proc.read_range(self.r_sessions, key, key + 1)
                else:
                    view = yield from proc.write_range(
                        self.r_sessions, key, key + 1
                    )
                    view[0] = view[0] + _write_delta(proc.pid, r)
                yield from proc.compute(cfg.compute_per_op)
                yield from proc.release(stripe)
                bus = proc.bus
                if bus.on[APP_LATENCY]:
                    pid = proc.pid
                    total = proc.engine.now - arrival
                    bus.emit(APP_LATENCY, pid, "lat.queue", service_start - arrival)
                    bus.emit(APP_LATENCY, pid, "lat.request", total)
                    by_op = "lat.request.read" if is_read else "lat.request.write"
                    bus.emit(APP_LATENCY, pid, by_op, total)
            yield from proc.barrier()

        yield from phase_loop(proc, state, cfg.steps, [phase_serve])

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def expected_total(self, num_procs: int) -> float:
        total = 0.0
        for pid in range(num_procs):
            for r, (_arrival, _key, is_read) in enumerate(
                request_table(self.cfg, pid)
            ):
                if not is_read:
                    total += _write_delta(pid, r)
        return total

    def check_result(self, cluster: Any) -> None:
        want = self.expected_total(cluster.config.num_procs)
        got = float(cluster.shared_snapshot(self.r_sessions).sum())
        assert got == want, f"session table total {got} != {want}"
