"""One workload in one process: imports, warm-up, timed repetitions and,
with ``--trace 1``, one traced repetition and the extra runs its
metrics need. Started by ``run.py``; prints one JSON record as the last
line of its standard output.

Host time is measured strictly from outside: a timer and a result
collector wrap ``DsmCluster``'s public ``__init__``, ``setup`` and
``run`` from this file, and the profiler lives in ``trace.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from statistics import median, quantiles
from typing import Any, Callable, Dict, List

import trace
from calib import REF_UNIT_S, Sampler, calibrate

#: fewest timed repetitions a median is taken over (1 with ``--smoke``)
MIN_REPS = 3
#: attached/detached pairs behind ``observe.attach_overhead_pct``
ATTACH_REPS = 3


class ClusterTap:
    """Benchmark-side timer and collector on ``DsmCluster``.

    Always on, traced or not: the time inside ``__init__`` and ``setup``
    is the set-up cost, kept per build, and every run that returns is
    flattened by ``workloads.record_run`` at once, so that a sweep's
    hundreds of clusters do not stay alive to be read later.

    Garbage-collector pauses that fall inside a build are left out of
    its time. A finished run leaves its cluster behind as cyclic
    garbage, and the collection that frees it is triggered by the next
    allocations, which are the next build's: at N=128 that one pause is
    0.2 to 0.5 s inside a build of 0.015 s, memory-bound and the
    noisiest thing in the whole benchmark. It is the previous run's
    cost, and the repetition's host time carries it.
    """

    def __init__(self, cluster_cls: Any, record_run: Callable):
        self.reset()
        #: every timer of a run reads this sampler's clock, which leaves
        #: the calibration slices out
        self.sampler = Sampler()
        init, setup, run = cluster_cls.__init__, cluster_cls.setup, cluster_cls.run
        tap, clock = self, self.sampler.clock

        def on_gc(phase: str, _info: Dict[str, int]) -> None:
            if phase == "start":
                tap.gc_t0 = clock()
            else:
                tap.gc_s += clock() - tap.gc_t0

        def timed(call: Callable, *args: Any, **kwargs: Any) -> float:
            """Seconds inside ``call``, collector pauses left out."""
            tap.gc_s = 0.0
            gc.callbacks.append(on_gc)
            t0 = clock()
            try:
                call(*args, **kwargs)
            finally:
                spent = clock() - t0 - tap.gc_s
                gc.callbacks.remove(on_gc)
            return spent

        def timed_init(cluster: Any, *args: Any, **kwargs: Any) -> None:
            tap.build_s.append(0.0)
            tap.build_s[-1] = timed(init, cluster, *args, **kwargs)

        def timed_setup(cluster: Any, app: Any) -> None:
            tap.build_s[-1] += timed(setup, cluster, app)

        def recorded_run(cluster: Any, app: Any, *args: Any, **kwargs: Any) -> Any:
            try:
                result = run(cluster, app, *args, **kwargs)
            except Exception as exc:
                tap.errors.append(f"{type(exc).__name__}: {exc}"[:200])
                raise
            tap.runs.append(record_run(cluster, result))
            return result

        cluster_cls.__init__ = timed_init
        cluster_cls.setup = timed_setup
        cluster_cls.run = recorded_run

    def reset(self) -> None:
        #: seconds inside ``__init__`` and ``setup``, one entry per build
        self.build_s: List[float] = []
        self.runs: List[Dict[str, Any]] = []
        self.errors: List[str] = []


def pin_to_one_core() -> None:
    """Stay on one core where the platform allows it (Linux)."""
    if hasattr(os, "sched_setaffinity"):
        cores = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cores[-1]})


def fresh_import_cal() -> List[float]:
    """What a fresh interpreter takes to import what a workload needs
    (``numpy``, ``repro`` and the workload bodies), sampled twice, in
    ``cal``: each interpreter runs 16 kernel slices right after the
    import and divides by the unit they give."""
    code = (
        "import time; t0 = time.perf_counter(); import workloads; "
        "spent = time.perf_counter() - t0; import calib; "
        "print(spent / calib.unit_s([calib.run_slice() for _ in range(16)]))"
    )
    return [
        float(
            subprocess.run(
                [sys.executable, "-c", code],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                stdout=subprocess.PIPE, text=True, check=True,
            ).stdout
        )
        for _ in range(2)
    ]


def iqr_pct(values: List[float]) -> float:
    """Distance between the quartiles as a percentage of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = quantiles(values, n=4)
    return 100.0 * (q3 - q1) / median(values)


class Rep:
    """One repetition: its outcome, wall time and calibration unit.

    Untraced, the unit comes from slices sampled during the repetition.
    Traced, slices would measure the profiler, so the unit is the mean
    of a kernel pass before and one after.
    """

    def __init__(self, tap: ClusterTap, body: Callable[[], Any], traced=False):
        gc.collect()
        tap.reset()
        sampler = tap.sampler
        self.stats = None
        if traced:
            before = calibrate()
            t0 = sampler.clock()
            self.outcome, self.stats = trace.run_traced(body)
            self.wall_s = sampler.clock() - t0
            self.unit_s = (before + calibrate()) / 2.0
        else:
            sampler.start()
            t0 = sampler.clock()
            try:
                self.outcome = body()
            finally:
                self.wall_s = sampler.clock() - t0
                self.unit_s = sampler.stop()
        self.cal = self.wall_s / self.unit_s
        self.build_s = tap.build_s
        self.setup_s = sum(tap.build_s)
        out = self.outcome
        out.runs = tap.runs
        for i in range(len(tap.runs)):
            out.check(f"run {i}: app.check_result passed", True)
        for err in tap.errors:
            out.check(f"DsmCluster.run raised {err}", False)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def steady_setup_s(import_cal: List[float], reps: List[Rep]) -> float:
    """Set-up seconds of one repetition at the box's undisturbed speed.

    In raw seconds set-up followed the box, not the code: its 1.5x slow
    spells last from seconds to the better part of an hour, and ten-run
    medians of the same commit read 0.20 s in one hour and 0.30 s in the
    next. So every sample is taken in ``cal`` first, an import by the
    slices its own interpreter runs, a cluster build by its repetition's
    unit, and the sum is converted back at ``REF_UNIT_S`` seconds per
    ``cal``.

    Within a run each part is taken from the fast end of its samples,
    because contention only ever adds time and the work is the same
    every time. The imports are sampled all through the run (two before
    the warm-up and two after every repetition) and their lower quartile
    is taken (the very fastest import is an outlier of its own). Each
    cluster build of a repetition counts as the fastest that build was
    in any repetition. A regression slows every sample, the fast ones
    too.
    """
    builds = zip(*([b / r.unit_s for b in r.build_s] for r in reps))
    cal = quantiles(import_cal, n=4)[0] + sum(
        min(same_build) for same_build in builds
    )
    return REF_UNIT_S * cal


def end_to_end(
    reps: List[Rep], import_cal: List[float], rss_mb: float, base_s: float
):
    out = reps[0].outcome
    runs = out.runs
    return {
        "setup_s": steady_setup_s(import_cal, reps),
        "host_cal": median([r.cal for r in reps]),
        "peak_rss_mb": rss_mb,
        "virtual_s": sum(r["virtual_s"] for r in runs),
        "msg_mb": sum(r["bytes"] for r in runs) / 1e6,
        "ft_time_pct": 100.0 * out.ft_virtual_s / base_s,
    }


def _sum(runs: List[Dict[str, Any]], group: str, field: str) -> float:
    return sum(
        node[field] for r in runs for node in r[group] if node is not None
    )


def per_layer(
    reps: List[Rep],
    traced: Rep,
    folded: Dict[str, Any],
    e2e: Dict[str, float],
    attach_overhead_pct: float,
    failed_frac: float,
    declared: List[str],
) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``.

    Counts come from the first repetition's public run results (all
    repetitions are fingerprint-identical); ``*_calls`` come from the
    traced repetition's ``ncalls`` of the named public function, because
    no public attribute counts them.
    """
    from repro.dsm.diff import apply_diff, compute_diff
    from repro.dsm.interval import NoticeTable
    from repro.dsm.protocol import DsmProcess
    from repro.dsm.vclock import VClock

    out = reps[0].outcome
    runs, sim = out.runs, out.sim
    unit = traced.unit_s
    m: Dict[str, float] = {
        f"{layer}.self_cal": self_s / unit
        for layer, self_s in folded["layers"].items()
    }

    def calls(fn: Callable) -> int:
        return trace.ncalls(traced.stats, fn)

    events = sum(r["events"] for r in runs)
    host_cal = e2e["host_cal"]
    total_bytes = sum(r["bytes"] for r in runs)
    m["sim.engine.events"] = events
    m["sim.engine.cal_per_mevent"] = host_cal / events * 1e6
    m["sim.network.msgs"] = sum(r["msgs"] for r in runs)
    m["sim.network.ft_bytes_pct"] = (
        100.0 * sum(r["ft_bytes"] for r in runs) / total_bytes
    )
    buckets: Dict[str, float] = {}
    for r in runs:
        for node in r["time"]:
            for b, seconds in node.items():
                buckets[b] = buckets.get(b, 0.0) + seconds
    vt_total = sum(buckets.values())
    for b, seconds in buckets.items():
        m[f"sim.node.vt_{b}_pct"] = 100.0 * seconds / vt_total
    m["sim.storage.disk_write_mb"] = sum(r["disk_bytes"] for r in runs) / 1e6

    m["dsm.protocol.handle_message_calls"] = calls(DsmProcess.handle_message)
    for field in (
        "page_fetches", "lock_acquires", "barriers", "intervals",
        "notices_applied",
    ):
        m[f"dsm.protocol.{field}"] = _sum(runs, "proto", field)
    m["dsm.interval.add_calls"] = calls(NoticeTable.add)
    m["dsm.interval.between_calls"] = calls(NoticeTable.between)
    m["dsm.interval.adds_per_notice"] = m["dsm.interval.add_calls"] / max(
        1, m["dsm.protocol.notices_applied"]
    )
    m["dsm.vclock.leq_calls"] = calls(VClock.leq)
    m["dsm.vclock.join_calls"] = calls(VClock.join)
    m["dsm.vclock.with_component_calls"] = calls(VClock.with_component)
    m["dsm.diff.compute_calls"] = calls(compute_diff)
    m["dsm.diff.apply_calls"] = calls(apply_diff)
    m["dsm.diff.created_mb"] = _sum(runs, "proto", "diff_bytes_created") / 1e6

    m["core.ftmanager.checkpoints"] = _sum(runs, "ft", "checkpoints_taken")
    m["core.ftmanager.vt_logging_s"] = _sum(runs, "ft", "time_logging")
    m["core.ftmanager.vt_disk_s"] = _sum(runs, "ft", "time_disk")
    created = sum(r["logs_created"] for r in runs)
    m["core.logs.created_mb"] = created / 1e6
    m["core.logs.saved_mb"] = _sum(runs, "ft", "logs_saved_bytes") / 1e6
    m["core.logs.discarded_pct"] = (
        100.0 * sum(r["logs_discarded"] for r in runs) / max(1, created)
    )
    m["core.checkpoint.wmax"] = max(r["wmax"] for r in runs)
    m["core.trimming.wn_trimmed"] = _sum(runs, "ft", "wn_trimmed")
    m["core.trimming.rel_trimmed"] = _sum(runs, "ft", "rel_entries_trimmed")
    m["core.replica.ops"] = sum(r["replica_msgs"] for r in runs)
    m["core.replica.mb"] = sum(r["replica_bytes"] for r in runs) / 1e6

    phases = [rec for r in runs for rec in r["phases"]]
    m["core.recovery.recoveries"] = sum(r["recoveries"] for r in runs)
    for phase in ("detect", "restore", "handshake", "replay"):
        m[f"core.recovery.vt_{phase}_ms"] = (
            1e3 * median([rec[phase] for rec in phases]) if phases else 0.0
        )
    m["recovery_ms"] = (
        1e3 * median([rec["total"] for rec in phases]) if phases else 0.0
    )

    m["cluster.builds"] = len(reps[0].build_s)
    m["cluster.setup_cal"] = median([r.setup_s / r.unit_s for r in reps])

    m["apps.session.requests"] = sim.get("requests", 0)
    m["apps.session.lat_request_p50_ms"] = sim.get("lat_request_p50_ms", 0.0)
    m["apps.session.lat_queue_p99_ms"] = sim.get("lat_queue_p99_ms", 0.0)
    m["lat_request_p99_ms"] = sim.get("lat_request_p99_ms", 0.0)
    m["observe.attach_overhead_pct"] = attach_overhead_pct

    points = len(sim.get("points", ()))
    m["faultinject.campaign.points"] = points
    m["faultinject.campaign.points_per_cal"] = points / host_cal
    for name in declared:
        if name.startswith("harness.") and name.endswith(".ft_overhead_pct"):
            m[name] = sim.get(name[len("harness."):], 0.0)
    m["ft_overhead_pct"] = e2e["ft_time_pct"] - 100.0
    m["failed_frac"] = failed_frac

    m["bench.calib_unit_s"] = median([r.unit_s for r in reps])
    m["bench.host_s_raw"] = median([r.wall_s for r in reps])
    m["bench.rep_iqr_pct"] = iqr_pct([r.cal for r in reps])
    m["bench.traced_cal"] = folded["total_s"] / unit
    m["bench.trace_overhead_x"] = traced.wall_s / m["bench.host_s_raw"]
    return m


def attach_overhead(
    tap: ClusterTap, attached: Callable, detached: Callable, pairs: int
) -> float:
    """The workload with its observer against the same schedule without
    it, untraced and alternating, as a percentage of the detached run."""
    on: List[float] = []
    off: List[float] = []
    for _ in range(pairs):
        on.append(Rep(tap, attached).cal)
        off.append(Rep(tap, detached).cal)
    return 100.0 * (median(on) / median(off) - 1.0)


# ---------------------------------------------------------------------------
def main(argv: List[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--spec", required=True, help="path of BENCHMARK.json")
    args = p.parse_args(argv)

    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    pin_to_one_core()

    import repro
    from repro.cluster import DsmCluster

    import workloads

    # an import is paid once per process, so set-up's import share is
    # sampled in fresh interpreters: here and after every repetition
    import_cal = fresh_import_cal()
    repro_dir = os.path.dirname(os.path.abspath(repro.__file__))

    workload = workloads.WORKLOADS[args.workload]
    tap = ClusterTap(DsmCluster, workloads.record_run)
    body = workload.make_body(args.seed, args.smoke)

    workload.make_body(args.seed, True)()  # smoke-sized warm-up

    reps: List[Rep] = []
    deadline = time.perf_counter() + args.seconds
    min_reps = 1 if args.smoke else MIN_REPS
    while len(reps) < min_reps or (
        not args.smoke and time.perf_counter() < deadline
    ):
        reps.append(Rep(tap, body))
        import_cal += fresh_import_cal()
        print(
            f"  rep {len(reps)}: {reps[-1].wall_s:.3f} s = {reps[-1].cal:.2f} cal",
            file=sys.stderr,
        )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = reps[0].outcome
    checks = [c for r in reps for c in r.outcome.checks]
    fingerprint = first.fingerprint()

    def same(what: str, rep: Rep) -> None:
        checks.append(
            (f"{what} repeats the first repetition's simulated results",
             rep.outcome.fingerprint() == fingerprint)
        )

    for i, rep in enumerate(reps[1:], start=2):
        same(f"repetition {i}", rep)

    base_s = first.base_virtual_s
    if base_s is None:
        base_s = workload.base(args.seed, args.smoke)
    metrics = end_to_end(reps, import_cal, rss_mb, base_s)
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "reps": len(reps),
        "rep_iqr_pct": iqr_pct([r.cal for r in reps]),
        "fingerprint": fingerprint,
    }

    if args.trace:
        traced = Rep(tap, body, traced=True)
        checks += traced.outcome.checks
        same("traced repetition", traced)
        names = [m["name"] for m in spec["per_layer"]]
        layers = tuple(
            name[: -len(".self_cal")]
            for name in names
            if name.endswith(".self_cal")
        )
        folded = trace.fold(traced.stats, repro_dir, layers)
        overhead = 0.0
        if workload.make_detached is not None:
            overhead = attach_overhead(
                tap, body, workload.make_detached(args.seed, args.smoke),
                1 if args.smoke else ATTACH_REPS,
            )
        failed = sum(1 for _what, ok in checks if not ok)
        metrics.update(
            per_layer(
                reps, traced, folded, dict(metrics), overhead,
                failed / len(checks), names,
            )
        )
        record["trace"] = {
            "unit_s": traced.unit_s,
            "total_s": folded["total_s"],
            "self_s": folded["layers"],
            "top_functions": folded["top"],
        }

    declared = {
        m["name"]: m["unit"]
        for group in ("end_to_end",) + (("per_layer",) if args.trace else ())
        for m in spec[group]
    }
    if set(declared) != set(metrics):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(metrics))}, undeclared "
            f"{sorted(set(metrics) - set(declared))}"
        )
    record["metrics"] = {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in declared.items()
    }
    record["attempted"] = len(checks)
    record["failures"] = [what for what, ok in checks if not ok]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
