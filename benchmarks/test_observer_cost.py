"""What ``ClusterObserver`` and the run report, the span tracer and the
flat timeline cost a serving crash run, and what the invariant monitor
costs a Barnes run and a crash sweep.

    PYTHONPATH=src python -m pytest benchmarks/test_observer_cost.py -s

The run is ``serve_session``'s at the ledger's full size (``repro observe
session --procs 8 --rate 600 --crash 3@0.5 --replicate --slo ...``): the
observer attached, both ``build_report`` calls and the SLO evaluation,
against the same crash run plain. Two gates, each a difference between
two runs made here, so neither needs a baseline file:

* host time, best of three per side, sides alternated, observed < 2.5 x
  plain. The columnar registry reads 1.4-2.1x (median 1.8), the
  tuple-list one read 1.8-2.4x (2.2): twenty trials a tree overlapped,
  so the gate is 2.5, not 2.0 (EXPERIMENTS.md "Observer attach cost").
* resident memory, the peak of the observed run minus the plain run's,
  each in a fresh interpreter (this file run as a script) that reads its
  own ``VmHWM`` (``ru_maxrss`` survives ``exec``, so under pytest it
  reads this process's size on both sides): < 35 MB. Reports that boxed
  every point read 47 MB, reports that view the registry's columns 13 MB,
  and 8.5 MB once no node kept latency windows of its own. It reads
  9.0 MB (42.3 MB plain, 51.3 MB observed) since a dropped cluster frees
  itself, and read 9.0 MB (45.3, 54.3 MB) just before.

The third gate is the invariant monitor's: ``repro monitor barnes --procs
8`` over ``repro barnes --procs 8 --ft``, each the best of three fresh
processes, < 3 x. Incremental scans read 1.18 s against 0.82 s plain
(1.4x, 1.3-2.0x over the apps tried); it was 6.33 s (6.3x, up to 7.4x)
when every scan visited every page and every pair (EXPERIMENTS.md
"Host-cost history", PR 14).

The fourth gate is the crash sweep's, in the ledger's ``sweep_session``
shape (4 nodes, default ``SessionConfig``, L = 0.1, every 25th point of
the single-fault classes, 120 of them drawn at seed 42): the loop of 120
``run_point`` calls with the monitor against ``monitor=False``, best of
three loops a side, < 1.5 x. It reads 1.24-1.26 (2.75 s against
2.22 s) since each point's monitor joins at the point's first crash
step; it read 1.35-1.62 while the monitor checked every point from step
0, and 1.62 (2.82 s) while every point's monitor also filled a flight
ring no one dumped and every emit site fired on one bus-wide flag
(EXPERIMENTS.md "Host-cost history").

The fifth and sixth gates are the two trace observers on the serving
crash run, best of three a side, sides alternated, each < 2 x: a
``SpanTracer`` reads 1.46-1.50 (1.34 s against 0.90 s), the flat
tracer class over every category but ``llt`` and ``cgc`` 1.07-1.20
(0.96-1.00 s against 0.83-0.92 s), on a 2-core x86-64 box. A
``timeline`` over every category, which replaced it, reads 1.13-1.18
where that class read 1.08 on a slower shared box (1.6-2.0 s against
1.4-1.8 s). The class read 1.26-1.50 while it formatted every event's
text as it recorded it, and before per-kind emit gating 1.44 (the
``SpanTracer`` 1.51; EXPERIMENTS.md "Observer attach cost").

Don't run it beside other simulator processes: every gate but the
second is a ratio of host times.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from repro.faultinject import Schedule
from repro.observe import (
    ClusterObserver, build_report, evaluate_report_slos, parse_slo,
)
from repro.observe.tracing import SpanTracer
from repro.sim.trace import TEXT, timeline

TIME_GATE = 2.5
MEMORY_GATE_MB = 35.0
MONITOR_GATE = 3.0
SWEEP_GATE = 1.5
SPAN_GATE = 2.0
TIMELINE_GATE = 2.0
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: the serving run: 8 replicated nodes, L = 0.1
SERVE = Schedule("session", 8, replicate=True, config=dict(
    steps=40, requests_per_step=16, n_keys=1024, n_stripes=16,
    n_users=64, rate=600.0, seed=42,
))


def crash_run(attached, t_free, attach=None):
    """Host seconds of one crash run: observed and reported, or plain
    with ``attach(cluster)`` (another observer) attached when given."""
    t0 = time.perf_counter()
    c = SERVE.cluster()
    if attached:
        observer = ClusterObserver(
            c, interval=1e-3, sample_on_barrier=True, window_s=1e-3
        )
    if attach is not None:
        attach(c)
    c.schedule_crash(3, 0.5 * t_free)
    result = c.run(SERVE.make_app())
    assert (result.crashes, result.recoveries) == (1, 1)
    if attached:
        observer.sample()
        meta = {"app": "session", "procs": 8}
        args = dict(result=result, recoveries=observer.recovery_records)
        report = build_report(observer.registry, meta, **args)
        slos = evaluate_report_slos(report, [parse_slo("p99(lat.request)<100ms")])
        # both reports alive, as in the CLI and the ledger's body
        report = build_report(observer.registry, meta, slos=slos, **args)
    return time.perf_counter() - t0


def test_observed_run_costs_under_two_and_a_half_plain_runs():
    t_free = SERVE.cluster().run(SERVE.make_app()).wall_time
    plain = observed = float("inf")
    for _ in range(3):
        plain = min(plain, crash_run(False, t_free))
        observed = min(observed, crash_run(True, t_free))
    print(f"\nserving crash run, plain              {plain:.2f} s")
    print(f"observed + two reports + SLO          {observed:.2f} s")
    print(f"ratio                                 {observed / plain:.2f} (gate: < {TIME_GATE})")
    assert observed < TIME_GATE * plain


def attached_ratio(attach):
    """Best-of-three host seconds of the serving crash run, plain and
    with ``attach`` attached, sides alternated."""
    t_free = SERVE.cluster().run(SERVE.make_app()).wall_time
    plain = attached = float("inf")
    for _ in range(3):
        plain = min(plain, crash_run(False, t_free))
        attached = min(attached, crash_run(False, t_free, attach))
    return plain, attached


def test_span_traced_run_costs_under_two_plain_runs():
    plain, traced = attached_ratio(SpanTracer)
    print(f"\nserving crash run, plain              {plain:.2f} s")
    print(f"SpanTracer attached                   {traced:.2f} s")
    print(f"ratio                                 {traced / plain:.2f} (gate: < {SPAN_GATE:g})")
    assert traced < SPAN_GATE * plain


def test_flat_traced_run_costs_under_two_plain_runs():
    every = {category for category, _ in TEXT.values()}
    plain, traced = attached_ratio(lambda c: timeline(c.engine, every))
    print(f"\nserving crash run, plain              {plain:.2f} s")
    print(f"timeline attached, every category     {traced:.2f} s")
    print(f"ratio                                 {traced / plain:.2f} (gate: < {TIMELINE_GATE:g})")
    assert traced < TIMELINE_GATE * plain


def child_env():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def peak_rss_mb(side):
    """Peak resident megabytes of one ``crash_run`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), side],
        check=True, capture_output=True, text=True, env=child_env(),
    )
    return json.loads(out.stdout)["peak_rss_mb"]


def test_observed_run_holds_under_35_mb_more_than_the_plain_run():
    plain, observed = peak_rss_mb("plain"), peak_rss_mb("observed")
    print(f"\nserving crash run, plain              {plain:.1f} MB peak RSS")
    print(f"observed + two reports + SLO          {observed:.1f} MB")
    print(f"difference                            {observed - plain:.1f} MB (gate: < {MEMORY_GATE_MB:g})")
    assert observed - plain < MEMORY_GATE_MB


def cli_seconds(*cli):
    """Host seconds of ``python -m repro <cli>``, best of three processes."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", *cli],
            check=True, stdout=subprocess.DEVNULL, env=child_env(),
        )
        best = min(best, time.perf_counter() - t0)
    return best


def test_monitored_run_costs_under_three_plain_runs():
    plain = cli_seconds("barnes", "--procs", "8", "--ft")
    monitored = cli_seconds("monitor", "barnes", "--procs", "8")
    print(f"\nbarnes --procs 8 --ft                 {plain:.2f} s")
    print(f"monitor barnes --procs 8              {monitored:.2f} s")
    print(f"ratio                                 {monitored / plain:.2f} (gate: < {MONITOR_GATE:g})")
    assert monitored < MONITOR_GATE * plain


def sweep_loop_seconds(monitor):
    """Host seconds of the 120 injection runs of a ledger-shaped session
    sweep, with or without the invariant monitor (reference run untimed)."""
    sweep = Schedule("session", 4).sweep(
        every=25, classes=("every", "lock", "barrier", "ckpt_write"),
        monitor=monitor,
    )
    points = sweep.enumerate_points()
    chosen = sorted(np.random.default_rng(42).choice(len(points), 120, replace=False))
    t0 = time.perf_counter()
    for i in chosen:
        assert sweep.run_point(points[i]).outcome in ("recovered", "no_crash")
    return time.perf_counter() - t0


def test_sweep_under_the_monitor_costs_under_one_and_a_half_plain_sweeps():
    plain = monitored = float("inf")
    for _ in range(3):
        plain = min(plain, sweep_loop_seconds(False))
        monitored = min(monitored, sweep_loop_seconds(True))
    print(f"\nsession sweep, 120 points, plain      {plain:.2f} s")
    print(f"under the invariant monitor           {monitored:.2f} s")
    print(f"ratio                                 {monitored / plain:.2f} (gate: < {SWEEP_GATE:g})")
    assert monitored < SWEEP_GATE * plain


if __name__ == "__main__":
    t_free = SERVE.cluster().run(SERVE.make_app()).wall_time
    crash_run(sys.argv[1] == "observed", t_free)
    with open("/proc/self/status") as status:
        (hwm,) = [line for line in status if line.startswith("VmHWM:")]
    print(json.dumps({"peak_rss_mb": int(hwm.split()[1]) / 1024.0}))
