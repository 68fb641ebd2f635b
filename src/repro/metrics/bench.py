"""Benchmark harness for the simulation core (``python -m repro bench``).

Runs a fixed suite of micro benchmarks (engine dispatch, ready-queue
churn, vector-clock lattice ops, diff compute/apply) plus a set of small
application runs, and reports **events/sec** (simulator events processed
per host second) and wall-clock per bench. The suite is the repo's
standing measure of hot-path performance: results are recorded in
``benchmarks/BENCH_core.json`` so the perf trajectory of the simulator is
tracked across PRs, and CI replays the smoke suite against the committed
baseline to catch regressions.

The app benches run fixed, deterministic configurations; their virtual
times and traffic counters are part of the report so a perf change that
accidentally alters simulation semantics is visible immediately (the
golden-determinism test also pins them).
"""

from __future__ import annotations

import cProfile
import gc
import io
import json
import platform
import pstats
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "BenchResult",
    "run_app_bench",
    "run_suite",
    "run_scale_suite",
    "render_report",
    "write_report",
    "check_report",
    "check_scale_report",
]


@dataclass
class BenchResult:
    """Outcome of one benchmark."""

    name: str
    wall_s: float
    events: int = 0  # simulator events processed (engine steps)
    ops: int = 0  # micro-bench operations (0 for app benches)
    virtual_time: float = 0.0
    total_msgs: int = 0
    total_bytes: int = 0
    profile_text: str = ""

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        # rates stay floats: integer rounding quantizes sub-1.0 rates to
        # 0 and the CI perf-budget comparison then trusts the zero
        return {
            "name": self.name,
            "wall_s": round(self.wall_s, 4),
            "events": self.events,
            "ops": self.ops,
            "events_per_sec": round(self.events_per_sec, 3),
            "ops_per_sec": round(self.ops_per_sec, 3),
            "virtual_time": self.virtual_time,
            "total_msgs": self.total_msgs,
            "total_bytes": self.total_bytes,
        }


# ---------------------------------------------------------------------------
# micro benchmarks
# ---------------------------------------------------------------------------
def bench_engine_timers(n_events: int) -> BenchResult:
    """Heap-path dispatch: coroutines sleeping on distinct delays."""
    from repro.sim.engine import Delay, Engine

    eng = Engine()

    def ticker(k: int, dt: float):
        for _ in range(k):
            yield Delay(dt)

    per = max(1, n_events // 8)
    for i in range(8):
        eng.spawn(ticker(per, 1e-6 * (i + 1)), name=f"t{i}")
    t0 = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - t0
    return BenchResult("engine.timers", wall, events=eng.steps)


def bench_engine_ready_queue(n_events: int) -> BenchResult:
    """Immediate-continuation churn: resolved futures and call_soon.

    This is the path the ready queue accelerates: no event in this bench
    ever advances virtual time, so none of them needs the time heap.
    """
    from repro.sim.engine import Engine, Future

    eng = Engine()

    def churner(k: int):
        for _ in range(k):
            fut = Future()
            fut.resolve(1)
            yield fut

    per = max(1, n_events // 4)
    for i in range(4):
        eng.spawn(churner(per), name=f"c{i}")
    t0 = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - t0
    return BenchResult("engine.ready_queue", wall, events=eng.steps)


def bench_vclock(
    n_ops: int, width: int = 8, name: str = "vclock.lattice"
) -> BenchResult:
    """Lattice operations at a given clock width.

    Width 8 (the paper's common case, tuple path) keeps the historical
    ``vclock.lattice`` entry; widths 64/256 exercise the array path the
    scale-out runs live on.
    """
    from repro.dsm.vclock import VClock

    if width == 8:
        a = VClock((3, 1, 4, 1, 5, 9, 2, 6))
        b = VClock((2, 7, 1, 8, 2, 8, 1, 8))
    else:
        a = VClock(tuple(int(x) for x in (np.arange(width) * 7919) % 97))
        b = VClock(tuple(int(x) for x in (np.arange(width) * 6421) % 89))
    zero = VClock.zero(width)
    bump_i, set_i = width // 2 - 1, width - 3
    ops = 0
    t0 = time.perf_counter()
    for _ in range(n_ops // 8):
        c = a.join(b)
        c.leq(a)
        a.leq(c)
        c.meet(b)
        c.bump(bump_i)
        c.with_component(set_i, 40)
        zero.join(c)
        c.join(c)
        ops += 8
    wall = time.perf_counter() - t0
    return BenchResult(name, wall, ops=ops)


#: name -> changed bytes of a 4096-byte page (None = every byte)
_DIFF_SCENARIOS: Dict[str, Optional[int]] = {
    "diff.roundtrip": 256,  # historical entry: moderately sparse
    "diff.sparse": 16,
    "diff.dense": 1024,
    "diff.fullpage": None,
}


def bench_diff(n_ops: int, name: str = "diff.roundtrip") -> BenchResult:
    """compute_diff/apply_diff plus the size accounting of the log layer.

    Scenarios vary the write density of the dirtied page: scattered
    single bytes (worst run count per payload byte), a moderately sparse
    page (the historical ``diff.roundtrip`` entry), a dense page, and a
    fully rewritten page (single run, pure memcpy).
    """
    from repro.dsm.diff import apply_diff, compute_diff

    changed = _DIFF_SCENARIOS[name]
    rng = np.random.default_rng(12345)
    page = rng.integers(0, 255, size=4096, dtype=np.uint8)
    twin = page.copy()
    if changed is None:
        page = (page + 1) % 255  # every byte differs
    else:
        idx = rng.choice(4096, size=changed, replace=False)
        page[idx] ^= 0xFF
    target = np.zeros(4096, dtype=np.uint8)
    ops = 0
    t0 = time.perf_counter()
    for _ in range(n_ops // 2):
        d = compute_diff(twin, page)
        _ = d.size_bytes + d.payload_bytes
        apply_diff(target, d)
        ops += 2
    wall = time.perf_counter() - t0
    return BenchResult(name, wall, ops=ops)


# ---------------------------------------------------------------------------
# application benchmarks
# ---------------------------------------------------------------------------
def _make_app(app: str, **cfg: Any) -> Any:
    if app == "counter":
        from repro.apps.counter import CounterApp, CounterConfig

        return CounterApp(CounterConfig(**cfg))
    if app == "kvstore":
        from repro.apps.kvstore import KvStoreApp, KvStoreConfig

        return KvStoreApp(KvStoreConfig(**cfg))
    if app == "lu":
        from repro.apps.lu import LuApp, LuConfig

        return LuApp(LuConfig(**cfg))
    if app == "water-spatial":
        from repro.apps.water_spatial import WaterSpatialApp, WaterSpatialConfig

        return WaterSpatialApp(WaterSpatialConfig(**cfg))
    raise ValueError(f"unknown bench app {app!r}")


def run_app_bench(
    app: str,
    procs: int,
    ft: bool,
    name: Optional[str] = None,
    profile: bool = False,
    **cfg: Any,
) -> BenchResult:
    """Run one fixed app configuration and measure the simulator."""
    from repro import DsmCluster, DsmConfig
    from repro.core import LogOverflowPolicy

    cluster = DsmCluster(
        DsmConfig(num_procs=procs),
        ft=ft,
        policy_factory=lambda pid, fp: LogOverflowPolicy(0.2, fp),
    )
    application = _make_app(app, **cfg)
    # the previous bench's cluster is cyclic garbage: collect it now, or
    # its generation-2 pass is billed to whichever run crosses the threshold
    gc.collect()

    profile_text = ""
    if profile:
        prof = cProfile.Profile()
        t0 = time.perf_counter()
        prof.enable()
        result = cluster.run(application)
        prof.disable()
        wall = time.perf_counter() - t0
        buf = io.StringIO()
        pstats.Stats(prof, stream=buf).sort_stats("tottime").print_stats(12)
        profile_text = buf.getvalue()
    else:
        t0 = time.perf_counter()
        result = cluster.run(application)
        wall = time.perf_counter() - t0

    return BenchResult(
        name or f"{app}-{'ft' if ft else 'base'}-p{procs}",
        wall,
        events=cluster.engine.steps,
        virtual_time=result.wall_time,
        total_msgs=result.traffic.total_msgs,
        total_bytes=result.traffic.total_bytes,
        profile_text=profile_text,
    )


#: (name, app, procs, ft, config) — fixed so results are comparable
APP_SUITE: List[Tuple[str, str, int, bool, Dict[str, Any]]] = [
    ("counter-ft", "counter", 4, True, {"steps": 8, "n_elements": 512}),
    ("lu-base", "lu", 4, False, {"matrix_size": 96, "block_size": 8}),
    ("lu-ft", "lu", 4, True, {"matrix_size": 96, "block_size": 8}),
    (
        "water-spatial-ft",
        "water-spatial",
        8,
        True,
        {"n_molecules": 216, "steps": 3},
    ),
]

SMOKE_APP_SUITE: List[Tuple[str, str, int, bool, Dict[str, Any]]] = [
    ("counter-ft", "counter", 4, True, {"steps": 6, "n_elements": 512}),
    ("lu-base", "lu", 4, False, {"matrix_size": 64, "block_size": 8}),
]


def run_suite(smoke: bool = False, profile: bool = False) -> Dict[str, Any]:
    """Run the full micro + app suite; returns the structured report."""
    micro_budget = 20_000 if smoke else 100_000
    diff_budget = 2_000 if smoke else 10_000
    results: List[BenchResult] = [
        bench_engine_timers(micro_budget),
        bench_engine_ready_queue(micro_budget),
        bench_vclock(micro_budget * 2),
        bench_vclock(micro_budget, width=64, name="vclock.lattice.w64"),
        bench_vclock(micro_budget, width=256, name="vclock.lattice.w256"),
        bench_diff(diff_budget),
        bench_diff(diff_budget, name="diff.sparse"),
        bench_diff(diff_budget, name="diff.dense"),
        bench_diff(diff_budget, name="diff.fullpage"),
    ]
    apps = SMOKE_APP_SUITE if smoke else APP_SUITE
    for bench_name, app, procs, ft, cfg in apps:
        results.append(
            run_app_bench(app, procs, ft, name=bench_name, profile=profile, **cfg)
        )

    event_benches = [r for r in results if r.events]
    total_events = sum(r.events for r in event_benches)
    total_wall = sum(r.wall_s for r in event_benches)
    return {
        "schema": 1,
        "suite": "core-smoke" if smoke else "core",
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "events_per_sec": (
            round(total_events / total_wall, 3) if total_wall else 0.0
        ),
        "wall_s": round(sum(r.wall_s for r in results), 4),
        "benches": [r.as_dict() for r in results],
        "profiles": {
            r.name: r.profile_text for r in results if r.profile_text
        },
    }


# ---------------------------------------------------------------------------
# scale-out suite
# ---------------------------------------------------------------------------
#: node counts of the scaling curve (``--suite scale``)
SCALE_NODE_COUNTS: List[int] = [8, 64, 128, 256]
SMOKE_SCALE_NODE_COUNTS: List[int] = [8, 64]
SCALE_APPS: List[str] = ["counter", "kvstore"]


def _scale_cfg(app: str, procs: int) -> Dict[str, Any]:
    """Weak-scaling configs: per-process work stays constant as N grows."""
    if app == "counter":
        return {"steps": 3, "n_elements": 16 * procs}
    if app == "kvstore":
        return {
            "steps": 2,
            "n_keys": 8 * procs,
            "n_stripes": min(procs, 64),
            "puts_per_step": 4,
        }
    raise ValueError(f"unknown scale app {app!r}")


def run_scale_suite(smoke: bool = False, profile: bool = False) -> Dict[str, Any]:
    """Events/sec and FT virtual-time overhead vs node count.

    Each (app, N) point runs the same weak-scaled configuration with the
    FT layer off and on: events/sec of the FT run is the throughput
    curve, and the ratio of FT to base *virtual* time is the protocol
    overhead the paper reports (how much slower the simulated execution
    is with logging/checkpointing enabled).
    """
    node_counts = SMOKE_SCALE_NODE_COUNTS if smoke else SCALE_NODE_COUNTS
    results: List[BenchResult] = []
    curve: List[Dict[str, Any]] = []
    for app in SCALE_APPS:
        for procs in node_counts:
            cfg = _scale_cfg(app, procs)
            base = run_app_bench(
                app, procs, False, name=f"{app}.base.{procs}", **cfg
            )
            ftr = run_app_bench(
                app,
                procs,
                True,
                name=f"{app}.ft.{procs}",
                profile=profile and procs == node_counts[-1],
                **cfg,
            )
            results += [base, ftr]
            curve.append(
                {
                    "app": app,
                    "procs": procs,
                    "events_per_sec": round(ftr.events_per_sec, 3),
                    "base_virtual_time": base.virtual_time,
                    "ft_virtual_time": ftr.virtual_time,
                    "ft_time_overhead": (
                        round(ftr.virtual_time / base.virtual_time, 4)
                        if base.virtual_time
                        else None
                    ),
                }
            )

    total_events = sum(r.events for r in results)
    total_wall = sum(r.wall_s for r in results)
    return {
        "schema": 1,
        "suite": "scale-smoke" if smoke else "scale",
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "node_counts": node_counts,
        "events_per_sec": (
            round(total_events / total_wall, 3) if total_wall else 0.0
        ),
        "wall_s": round(total_wall, 4),
        "benches": [r.as_dict() for r in results],
        "curve": curve,
        "profiles": {
            r.name: r.profile_text for r in results if r.profile_text
        },
    }


def check_scale_report(
    path: str, report: Dict[str, Any], budget: float = 0.30
) -> Tuple[bool, str]:
    """Scaling gate: per app, events/sec at the largest node count both
    the baseline and this run measured must be within ``budget``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        return False, f"no baseline at {path}: {exc}"
    baseline = payload.get("after") or payload.get("before") or {}
    base_points = {
        (c["app"], c["procs"]): float(c["events_per_sec"] or 0.0)
        for c in baseline.get("curve", [])
    }
    ok, msgs = True, []
    for app in {c["app"] for c in report.get("curve", [])}:
        comparable = [
            c
            for c in report["curve"]
            if c["app"] == app and (app, c["procs"]) in base_points
        ]
        if not comparable:
            ok = False
            msgs.append(f"{app}: no comparable baseline point")
            continue
        point = max(comparable, key=lambda c: c["procs"])
        base = base_points[(app, point["procs"])]
        cur = float(point["events_per_sec"])
        floor = base * (1.0 - budget)
        msgs.append(
            f"{app}@{point['procs']}: current={cur:,.0f} "
            f"baseline={base:,.0f} floor={floor:,.0f}"
        )
        if not base or cur < floor:
            ok = False
    if not msgs:
        return False, "report has no scaling curve"
    return ok, "; ".join(msgs)


# ---------------------------------------------------------------------------
# reporting / regression gate
# ---------------------------------------------------------------------------
def _fmt_rate(v: float) -> str:
    """Rates >= 10 as grouped integers; small rates keep their precision."""
    return f"{v:,.0f}" if v >= 10 else f"{v:.3g}"


def render_report(report: Dict[str, Any]) -> str:
    from repro.render import Table

    table = Table(
        f"repro bench — {report['suite']} suite "
        f"({_fmt_rate(report['events_per_sec'])} events/sec aggregate, "
        f"{report['wall_s']:.2f} s wall)",
        ["bench", "wall (s)", "events/sec", "ops/sec", "virtual time (ms)", "msgs"],
    )
    for b in report["benches"]:
        table.add(
            b["name"],
            f"{b['wall_s']:.3f}",
            _fmt_rate(b["events_per_sec"]) if b["events"] else "-",
            _fmt_rate(b["ops_per_sec"]) if b["ops"] else "-",
            f"{b['virtual_time'] * 1e3:.3f}" if b["virtual_time"] else "-",
            b["total_msgs"] or "-",
        )
    out = table.render()
    if report.get("curve"):
        curve = Table(
            "scaling curve (FT runs)",
            ["app", "procs", "events/sec", "base vt (ms)", "ft vt (ms)", "ft overhead"],
        )
        for c in report["curve"]:
            over = c.get("ft_time_overhead")
            curve.add(
                c["app"],
                c["procs"],
                _fmt_rate(c["events_per_sec"]),
                f"{c['base_virtual_time'] * 1e3:.3f}",
                f"{c['ft_virtual_time'] * 1e3:.3f}",
                f"{over:.2f}x" if over else "-",
            )
        out += "\n\n" + curve.render()
    for name, text in report.get("profiles", {}).items():
        out += f"\n\nprofile: {name}\n{text}"
    return out


def write_report(path: str, report: Dict[str, Any]) -> Dict[str, Any]:
    """Record ``report`` as the current ("after") state of ``path``.

    The first measurement ever written becomes the pinned "before"
    baseline; later writes only replace "after", so the file always
    documents the speedup since the baseline was taken.
    """
    payload: Dict[str, Any] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        payload = {}
    slim = {k: v for k, v in report.items() if k != "profiles"}
    if "before" not in payload:
        payload["before"] = slim
    payload["after"] = slim
    before_eps = payload["before"].get("events_per_sec") or 0
    payload["speedup_events_per_sec"] = (
        round(slim["events_per_sec"] / before_eps, 3) if before_eps else None
    )
    payload["recorded"] = time.strftime("%Y-%m-%d", time.gmtime())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return payload


def check_report(
    path: str, report: Dict[str, Any], budget: float = 0.30
) -> Tuple[bool, str]:
    """Perf gate: current events/sec must be within ``budget`` of baseline.

    Compares against the committed "after" numbers (the perf state the
    repo claims); returns (ok, human-readable message).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        return False, f"no baseline at {path}: {exc}"
    baseline = (payload.get("after") or payload.get("before") or {}).get(
        "events_per_sec"
    )
    # tolerate baselines recorded before rates became floats (old
    # BENCH_core.json files store integers)
    try:
        baseline = float(baseline)
    except (TypeError, ValueError):
        baseline = 0.0
    if not baseline:
        return False, f"baseline {path} has no events_per_sec"
    current = float(report["events_per_sec"])
    floor = baseline * (1.0 - budget)
    msg = (
        f"events/sec current={current:,.2f} baseline={baseline:,.2f} "
        f"floor={floor:,.2f} (budget {budget:.0%})"
    )
    return current >= floor, msg
