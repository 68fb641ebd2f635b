"""Command-line runner: ``python -m repro [subcommand] <app> [options]``.

Examples::

    python -m repro water-spatial
    python -m repro barnes --procs 8 --ft --l 0.25 --crash 3@0.5
    python -m repro counter --ft --coordinated --wan 5e-3 --trace lock,ckpt
    python -m repro tables --scale smoke
    python -m repro crashsweep counter --every 40 --classes lock,ckpt_write
    python -m repro crashsweep counter --faults 2      # k=2, replication on
    python -m repro crashsweep session --seed 3 --faults 2
    python -m repro observe counter --procs 4 --interval 1e-3
    python -m repro observe session --rate 4000 --slo "p99(lat.request)<5ms"
    python -m repro observe session --crash 1@0.25 --replicate
    python -m repro trace counter --procs 4 --crash 2@0.5
    python -m repro monitor counter --procs 4 --crash 2@0.5
    python -m repro monitor counter --seed-violation cgc   # must exit 1
    python -m repro report benchmarks --html /tmp/dashboard.html

Every subcommand is an ``(add_arguments, run)`` pair in :data:`COMMANDS`
(``run``'s docstring is its ``--help`` description); a first argument
that names none of them is the bare ``run`` form. Shared flags are
declared once (``add_workload``, ``add_rate``, ``add_ft``, ``add_faults``)
and shared steps — cluster construction, crash-spec validation, the
failure-free pre-pass behind ``PID@FRAC``, the timed run — are
:class:`RunBuilder`; each ``run_*`` keeps what it attaches, renders, writes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro import DsmCluster, DsmConfig
from repro.apps import APPS
from repro.faultinject.campaign import Schedule
from repro.sim.network import MetaClusterConfig, NetworkConfig
from repro.sim.node import TimeBucket
from repro.sim.trace import TEXT, timeline

Parser = argparse.ArgumentParser


# ---- argument types: out-of-range input is a one-line usage error ----
def at_least(cast: Callable[[str], Any], low: float,
             inclusive: bool = True) -> Callable[[str], Any]:
    """``argparse`` ``type=`` of a ``cast`` number at least ``low`` (above
    it unless ``inclusive``); NaN is out of every range."""
    def parse(text: str) -> Any:
        value = cast(text)  # a ValueError reads "invalid int value: ..."
        if not (value >= low if inclusive else value > low):
            raise argparse.ArgumentTypeError(
                f"bad value {text!r}: must be {'>=' if inclusive else '>'} {low}"
            )
        return value

    parse.__name__ = cast.__name__
    return parse


POSITIVE_INT = at_least(int, 1)
COUNT = at_least(int, 0)
POSITIVE = at_least(float, 0, inclusive=False)
NON_NEGATIVE = at_least(float, 0)


def comma_list(choices: Sequence[str]) -> Callable[[str], Tuple[str, ...]]:
    """``argparse`` ``type=`` of a comma-separated list of ``choices``."""
    def parse(text: str) -> Tuple[str, ...]:
        names = tuple(text.split(","))
        if not set(names) <= set(choices):
            raise argparse.ArgumentTypeError(
                f"bad value {text!r}: must be comma-separated names from "
                + ",".join(choices)
            )
        return names
    return parse


# ---- argument groups, declared once ----
def add_workload(p: Parser, procs: int) -> None:
    p.add_argument("app", choices=list(APPS), help="workload to run")
    p.add_argument("--procs", type=POSITIVE_INT, default=procs,
                   help=f"cluster size (default {procs})")
    p.add_argument("--steps", type=POSITIVE_INT, default=None,
                   help="application steps")
    p.add_argument("--size", type=POSITIVE_INT, default=None,
                   help="problem size (app-specific)")


def add_rate(p: Parser) -> None:
    p.add_argument("--rate", type=POSITIVE, default=None,
                   help="open-loop arrival rate, requests per virtual second "
                   "per process (session app only)")


def add_ft(p: Parser, no_ft: bool = False, replicate: bool = True) -> None:
    p.add_argument("--l", type=POSITIVE, default=0.1,
                   help="OF policy L fraction")
    if no_ft:
        p.add_argument("--no-ft", action="store_true",
                       help="run the base protocol, without fault tolerance")
    if replicate:
        p.add_argument("--replicate", action="store_true",
                       help="buddy-replicate checkpoints + logs into the ring "
                       "successor's memory (survives overlapping failures)")


class CrashSpec(NamedTuple):
    pid: int
    frac: float
    text: str  # as typed: what the written artifacts record


def parse_crash(text: str) -> CrashSpec:
    """``argparse`` ``type=`` of ``--crash``/``--crash2``."""
    try:
        pid_s, frac_s = text.split("@")
        pid, frac = int(pid_s), float(frac_s)
        if pid < 0 or not 0.0 < frac < 1.0:
            raise ValueError(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad value {text!r}: expected PID@FRAC with PID a process id "
            "and 0 < FRAC < 1 (e.g. 3@0.5)"
        ) from None
    return CrashSpec(pid, frac, text)


def add_faults(p: Parser, crash2: bool = False) -> None:
    p.add_argument("--crash", type=parse_crash, metavar="PID@FRAC",
                   help="fail-stop PID at FRAC of the failure-free runtime "
                   "(e.g. 3@0.5); requires fault tolerance")
    if crash2:
        p.add_argument("--crash2", type=parse_crash, metavar="PID@FRAC",
                       help="a second fail-stop (overlapping failures; pair "
                       "with --replicate)")


# ---- the shared run builder ----
def flag_schedule(
    parser: Parser, args: argparse.Namespace, replicate: bool
) -> Schedule:
    """The run the workload and FT flags name. Only ``--size`` can make
    an app config its ``__post_init__`` rejects (argparse bounds the
    other knobs), so a rejected one is a usage error naming it."""
    spec = APPS[args.app]
    fields = spec.fields(args.steps, args.size, getattr(args, "rate", None),
                         getattr(args, "seed", None))
    try:
        spec.app.Config(**fields)
    except ValueError as exc:
        parser.error(f"argument --size: bad value {str(args.size)!r}: must "
                     f"be a size {args.app} accepts ({exc})")
    return Schedule(args.app, args.procs, args.l, replicate, fields)


class RunBuilder:
    """What ``run``, ``observe``, ``trace`` and ``monitor`` share: the
    run's :class:`Schedule` (no crash point: ``--crash`` is a time)
    builds the app and the FT cluster."""

    def __init__(self, parser: Parser, args: argparse.Namespace, ft: bool) -> None:
        self.args = args
        self.ft = ft
        self.replicate = ft and getattr(args, "replicate", False)
        self.host_s = 0.0
        crash, crash2 = getattr(args, "crash", None), getattr(args, "crash2", None)
        if crash2 and not crash:
            parser.error("--crash2 requires --crash")
        if crash and not ft:
            parser.error("--crash requires fault tolerance "
                         "(pass --ft / drop --no-ft)")
        for flag, spec in (("--crash", crash), ("--crash2", crash2)):
            if spec and spec.pid >= args.procs:
                parser.error(
                    f"argument {flag}: bad value {spec.text!r}: PID must be "
                    f"below --procs {args.procs} (expected PID@FRAC)"
                )
        self.schedule = flag_schedule(parser, args, self.replicate)
        # (pid, virtual time) crashes: one failure-free pre-pass learns
        # the runtime the fractions refer to
        specs = [s for s in (crash, crash2) if s]
        self.crashes = []
        if specs:
            t_free = self.cluster().run(self.schedule.make_app()).wall_time
            self.crashes = [(s.pid, s.frac * t_free) for s in specs]

    def cluster(self) -> DsmCluster:
        a = self.args  # flags a subcommand does not declare are off
        wan = getattr(a, "wan", None)
        net = NetworkConfig() if wan is None else MetaClusterConfig(
            cluster_size=max(1, a.procs // 2), wan_latency=wan
        )
        if self.ft and not getattr(a, "coordinated", False):
            return self.schedule.cluster(net)
        if not self.ft:
            return DsmCluster(DsmConfig(num_procs=a.procs), net_config=net)
        from repro.baselines import CoordinatedCluster

        return CoordinatedCluster(
            DsmConfig(num_procs=a.procs), l_fraction=a.l, net_config=net
        )

    def run(self, cluster: DsmCluster) -> Any:
        """Run the app on ``cluster`` (from :meth:`cluster`, observers
        already attached) through the crash schedule; the run's host
        seconds land in ``host_s`` even when it raises."""
        for pid, at_time in self.crashes:
            cluster.schedule_crash(pid, at_time)
        t0 = time.time()
        try:
            return cluster.run(self.schedule.make_app())
        finally:
            self.host_s = time.time() - t0

    def print_header(self, result: Any) -> None:
        """The opening lines ``trace`` and ``monitor`` print."""
        print(f"app           {self.args.app} on {self.args.procs} simulated "
              f"nodes ({self.host_s:.1f}s host time)")
        if result is not None:
            print(f"virtual time  {result.wall_time * 1e3:10.3f} ms")
            print_failures(result)


def print_failures(result: Any, suffix: str = "") -> None:
    if result.crashes:
        print(f"failures      {result.crashes} crash(es), "
              f"{result.recoveries} recover(ies){suffix}")


def write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# ---- run (the bare form) ----
def add_run_arguments(p: Parser) -> None:
    p.epilog = "other subcommands, each with its own --help: " + ", ".join(
        name for name in COMMANDS if name != "run"
    )
    add_workload(p, procs=8)
    add_rate(p)
    p.add_argument("--ft", action="store_true", help="enable fault tolerance")
    add_ft(p)
    p.add_argument("--coordinated", action="store_true",
                   help="use the coordinated-checkpointing baseline instead "
                   "of the paper's independent scheme")
    add_faults(p)
    p.add_argument("--wan", type=float, default=None, metavar="SECONDS",
                   help="meta-cluster mode: split the cluster in two halves "
                   "joined by a WAN link with this one-way latency")
    # derived from TEXT so the help cannot drift from what can be traced
    categories = sorted({category for category, _ in TEXT.values()})
    p.add_argument("--trace", type=comma_list(categories), default=(),
                   metavar="CATEGORIES", help="comma-separated event "
                   "categories to print (" + ",".join(categories) + ")")
    p.add_argument("--trace-limit", type=COUNT, default=60)


def run_app(parser: Parser, args: argparse.Namespace) -> int:
    """Run a DSM workload on the simulated fault-tolerant HLRC cluster
    (SC 2000 reproduction)."""
    run = RunBuilder(parser, args, args.ft)
    cluster = run.cluster()
    events = timeline(cluster.engine, args.trace)
    result = run.run(cluster)

    print(f"app           {args.app} on {args.procs} simulated nodes")
    print(f"virtual time  {result.wall_time * 1e3:10.3f} ms")
    print(f"host time     {run.host_s * 1e3:10.0f} ms")
    print(f"messages      {result.traffic.total_msgs:10d}  "
          f"({result.traffic.total_bytes / 1e6:.2f} MB)")
    mean = result.mean_time_stats
    total = mean.total or 1.0
    breakdown = "  ".join(
        f"{b.value}={100 * mean.seconds[b] / total:.0f}%" for b in TimeBucket
    )
    print(f"time buckets  {breakdown}")
    if args.ft:
        ckpts = sum(s.checkpoints_taken for s in result.ft_stats if s)
        print(f"checkpoints   {ckpts:10d}")
        print(f"ft piggyback  {result.traffic.ft_bytes:10d} bytes "
              f"({result.traffic.ft_overhead_percent():.2f} %)")
    print_failures(result, " — results verified")
    if args.trace:
        print("\ntrace:")
        for ev in events[: args.trace_limit]:
            print(ev.render())
        if len(events) > args.trace_limit:
            print(f"... {len(events) - args.trace_limit} more events")
    return 0


# ---- tables ----
def add_tables_arguments(p: Parser) -> None:
    p.add_argument("--scale", default="smoke", choices=["smoke", "default"],
                   help="experiment scale (default smoke)")


def run_tables(parser: Parser, args: argparse.Namespace) -> int:
    """Run the paper's experiments (three SPLASH-2 analogs, base and FT)
    and render Tables 1-4 and Figures 3-4."""
    from repro.harness import figures, tables

    ex = tables.run_all_experiments(scale=args.scale)
    for fn in (tables.table1, tables.table2, tables.table3, tables.table4):
        print(fn(ex).render(), end="\n\n")
    print(figures.figure3_table(ex).render(), end="\n\n")
    print(figures.figure4_render(ex))
    return 0


# ---- crashsweep ----
def add_crashsweep_arguments(p: Parser) -> None:
    from repro.faultinject.campaign import CLASSES

    add_workload(p, procs=4)
    add_rate(p)
    add_ft(p)
    p.add_argument("--every", type=POSITIVE_INT, default=25,
                   help="crash after every Nth traced event (default 25)")
    p.add_argument("--classes", type=comma_list(tuple(CLASSES)), default=None,
                   help="comma-separated crash-point classes (default: all "
                   "but double, out of " + ",".join(CLASSES) + ")")
    p.add_argument("--faults", type=int, default=1, choices=(1, 2),
                   help="fault budget: 2 adds the double class and implies "
                   "--replicate unless --no-replicate")
    p.add_argument("--no-replicate", action="store_true",
                   help="keep replication off even with --faults 2 (overlap "
                   "points then degrade explicitly instead of recovering)")
    p.add_argument("--seed", type=int, default=None,
                   help="the application's input seed (default: its "
                   "config's); recorded in the summary JSON when given")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="summary JSON path (default benchmarks/SWEEP_<app>.json)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print one line per injected run")


def run_crashsweep(parser: Parser, args: argparse.Namespace) -> int:
    """Crash-point sweep fault-injection campaign: enumerate crash points
    of a traced failure-free run, re-run the app once per point, and
    assert the recovery-equivalence oracle."""
    from repro.faultinject.campaign import DEFAULT_CLASSES, render_sweep

    replicate = (args.replicate or args.faults >= 2) and not args.no_replicate
    if replicate and args.faults >= 2 and args.procs < 3:
        parser.error("--faults 2 with replication needs --procs 3 or more: "
                     "two overlapping crashes of two nodes leave no survivor")
    classes = DEFAULT_CLASSES + (("double",) if args.faults >= 2 else ())
    sweep = flag_schedule(parser, args, replicate).sweep(
        every=args.every, classes=args.classes or classes
    )

    def progress(res: Any) -> None:
        if args.verbose:
            p = res.point
            base = f" base=p{p.base[1]}@{p.base[0]}" if p.base else ""
            print(f"  {p.cls:<10} p{p.victim}@{p.step}{base}: {res.outcome}"
                  + (f" ({res.error})" if res.error else ""))

    t0 = time.time()
    summary = sweep.run(progress=progress)
    host_s = time.time() - t0

    meta = {"app": args.app, "procs": args.procs, "faults": args.faults}
    if args.seed is not None:
        meta["seed"] = args.seed
    print(f"crash sweep   {args.app} on {args.procs} simulated nodes "
          f"({len(summary.results)} points, {host_s:.1f}s host time)")
    print(render_sweep(summary.to_dict(**meta)))

    suffix = "_k2" if args.faults >= 2 else ""
    out = args.out or f"benchmarks/SWEEP_{args.app}{suffix}.json"
    write_text(out, summary.to_json(**meta))
    print(f"written to {out}")
    for r in summary.failures():
        print(f"FAIL {r.point.cls} p{r.point.victim}@{r.point.step}: {r.error}",
              file=sys.stderr)
    return 0 if summary.ok else 1


# ---- observe ----
def add_observe_arguments(p: Parser) -> None:
    add_workload(p, procs=4)
    add_rate(p)
    add_ft(p, no_ft=True)
    add_faults(p, crash2=True)
    p.add_argument("--interval", type=NON_NEGATIVE, default=1e-3,
                   metavar="SECONDS",
                   help="virtual-time sampling cadence (default 1e-3); 0 "
                   "leaves barrier-episode sampling only")
    p.add_argument("--window", type=NON_NEGATIVE, default=1e-3,
                   metavar="SECONDS",
                   help="width of the windows every latency op class rotates "
                   "through (default 1e-3); 0 disables windowing (and SLOs)")
    p.add_argument("--slo", action="append", default=None, metavar="SPEC",
                   help="latency objective, e.g. 'p99(lat.request)<5ms' "
                   "(repeatable), evaluated with multi-window burn-rate "
                   "rules; any violation makes the exit code nonzero")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="JSONL path (default benchmarks/OBSERVE_<app>.jsonl)")


def run_observe(parser: Parser, args: argparse.Namespace) -> int:
    """Run one workload with the observability layer attached and emit a
    run report: per-node time series (log sizes, diff traffic, simulator
    rates), tail latencies of waits, requests and recoveries, and summary
    tables. The full report is written as JSONL; a rendered version is
    printed."""
    from repro import observe
    from repro.core.recovery import OverlappingFailureError

    objectives = []
    for spec in args.slo or ():
        try:
            objectives.append(observe.parse_slo(spec))
        except ValueError as exc:
            print(f"bad --slo: {exc}", file=sys.stderr)
            return 2
    if objectives and not args.window:
        print("--slo requires windowed collection (drop --window 0)", file=sys.stderr)
        return 2

    run = RunBuilder(parser, args, ft=not args.no_ft)
    cluster = run.cluster()
    observer = observe.ClusterObserver(
        cluster,
        interval=args.interval or None,
        sample_on_barrier=True,
        window_s=args.window or None,
    )
    try:
        result = run.run(cluster)
    except OverlappingFailureError as exc:
        print(f"overlapping failures: {exc}", file=sys.stderr)
        print("(the single-fault model cannot recover this schedule; "
              "pair --crash2 with --replicate)", file=sys.stderr)
        return 1
    observer.sample()  # final snapshot at end-of-run virtual time

    meta = {
        "app": args.app,
        "procs": args.procs,
        "ft": run.ft,
        "replicate": run.replicate,
        "l_fraction": args.l,
        "interval_s": args.interval,
        "host_time_s": round(run.host_s, 3),
    }
    if args.rate is not None:
        meta["rate"] = args.rate
    if args.crash:
        meta["crash"] = args.crash.text
        meta["crash2"] = args.crash2 and args.crash2.text

    def build(slos: Any = None) -> Any:
        return observe.build_report(
            observer.registry, meta, result=result,
            recoveries=observer.recovery_records, slos=slos,
        )

    # SLO evaluation needs the wlat records, so build the report twice:
    # once to evaluate against, once carrying the verdicts
    report = build()
    slos = observe.evaluate_report_slos(report, objectives) if objectives else None
    if slos is not None:
        report = build(slos)
    print(observe.render_report(report))

    out = args.out or f"benchmarks/OBSERVE_{args.app}.jsonl"
    observe.write_jsonl(out, report)
    print(f"\nwritten to {out}")

    errors = observe.validate_report(report)
    for e in errors:
        print(f"INVALID: {e}", file=sys.stderr)
    if errors:
        return 1
    failed = [s for s in slos or () if not s.ok]
    for s in failed:
        print(f"SLO GATE: {s.objective.spec} violated in "
              f"{len(s.violations)} window(s)", file=sys.stderr)
    return 1 if failed else 0


# ---- trace ----
def add_trace_arguments(p: Parser) -> None:
    add_workload(p, procs=4)
    add_ft(p, no_ft=True)
    add_faults(p, crash2=True)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="trace JSON path (default "
                   "benchmarks/results/TRACE_<app>.json)")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="critical-path report path (default "
                   "benchmarks/results/TRACE_<app>_critpath.txt)")
    p.add_argument("--top", type=int, default=12,
                   help="critical-path segments to list (default 12)")


def run_trace(parser: Parser, args: argparse.Namespace) -> int:
    """Run one workload with causal span tracing attached and emit a
    Chrome trace-event JSON (loadable in Perfetto / chrome://tracing)
    plus an ASCII critical-path report. Exits nonzero if the span DAG is
    malformed or its self-times fail to reconcile with TimeStats."""
    from repro.observe import tracing

    run = RunBuilder(parser, args, ft=not args.no_ft)
    cluster = run.cluster()
    tracer = tracing.SpanTracer(cluster)
    result = run.run(cluster)

    errors = tracer.validate()
    errors += tracing.reconcile_with_time_stats(tracer)
    segments = tracing.compute_critical_path(tracer)
    report = tracing.render_critpath_report(tracer, segments, top=args.top)

    run.print_header(result)
    print()
    print(report)

    out = args.out or f"benchmarks/results/TRACE_{args.app}.json"
    report_path = args.report or f"benchmarks/results/TRACE_{args.app}_critpath.txt"
    trace_json = tracing.to_chrome_trace(
        tracer,
        meta={
            "app": args.app,
            "procs": args.procs,
            "ft": run.ft,
            "replicate": run.replicate,
            "crash": args.crash and args.crash.text,
            "crash2": args.crash2 and args.crash2.text,
            "wall_time_s": result.wall_time,
        },
    )
    write_text(out, json.dumps(trace_json))
    write_text(report_path, report)
    print(f"\ntrace written to {out} ({len(trace_json['traceEvents'])} events)")
    print(f"critical-path report written to {report_path}")

    for e in errors:
        print(f"MALFORMED: {e}", file=sys.stderr)
    return 1 if errors else 0


# ---- monitor ----
def add_monitor_arguments(p: Parser) -> None:
    from repro.observe.invariants import INVARIANTS

    add_workload(p, procs=4)
    add_ft(p, replicate=False)
    add_faults(p)
    p.add_argument("--ring", type=int, default=256,
                   help="flight-recorder ring size in events (default 256)")
    p.add_argument("--flight", default=None, metavar="PATH",
                   help="flight-record JSON path, written on violation "
                   "(default benchmarks/FLIGHT_<app>.json)")
    p.add_argument("--seed-violation", default=None, choices=INVARIANTS,
                   help="sabotage the run so the named invariant class is "
                   "violated (self-test: the exit code must be nonzero)")


def run_monitor(parser: Parser, args: argparse.Namespace) -> int:
    """Run one fault-tolerant workload under the online invariant monitor
    (DESIGN.md §7.6): the paper's LLT/CGC bounds, vector-clock monotonicity,
    per-channel FIFO, structural recoverability and one token per lock,
    checked continuously.
    Exits nonzero on any violation and writes a post-mortem flight record
    (last-events ring + node state snapshot) as JSON."""
    from repro import observe

    # the invariants are the FT layer's, so ft is always on here
    run = RunBuilder(parser, args, ft=True)
    cluster = run.cluster()
    monitor = observe.InvariantMonitor(cluster, ring_size=args.ring)
    sabotage = contextlib.nullcontext()
    if args.seed_violation:
        from repro.faultinject.mutants import MUTANTS

        sabotage = MUTANTS[args.seed_violation]()

    result = run_error = None
    with sabotage:
        try:
            result = run.run(cluster)
        except Exception as exc:  # seeded sabotage can corrupt the run
            run_error = exc
        monitor.finish()
    if run_error is not None and not monitor.violations:
        raise run_error

    run.print_header(result)
    if run_error is not None:
        print(f"run aborted   {type(run_error).__name__}: {run_error} "
              "(after first violation; expected under seeded sabotage)")
    print()
    print(monitor.render_summary())

    if not monitor.violations:
        return 0
    dump = monitor.violation_dump or monitor.flight_record("violations")
    out = args.flight or f"benchmarks/FLIGHT_{args.app}.json"
    observe.write_flight_record(out, dump)
    print()
    print(observe.render_flight_record(dump))
    print(f"\nflight record written to {out}")
    return 1


# ---- report ----
def add_report_arguments(p: Parser) -> None:
    p.add_argument("paths", nargs="*", default=["benchmarks"],
                   help="artifact files and/or directories to scan "
                   "(default: benchmarks/)")
    p.add_argument("--html", default=None, metavar="PATH",
                   help="also write the dashboard as a standalone HTML page")


class ArtifactKind(NamedTuple):
    """One kind of artifact ``repro report`` reads: its name (a file
    ``OBSERVE_*.json[l]`` is an ``observe`` artifact), a top-level key
    only its content has, and the reader, validator and renderer of the
    module that writes it. The renderer is the function the writing
    command prints with (``repro trace`` prints no trace; its renderer
    gives the trace's extent), and sees only what the validator passed."""

    name: str
    shape: str
    parse: Callable[[str], Any]
    validate: Callable[[Any], List[str]]
    render: Callable[[Any], str]

    @property
    def prefix(self) -> str:
        return self.name.upper() + "_"


def load_json(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)


def artifact_kinds() -> Tuple[ArtifactKind, ...]:
    """The kinds in the order ``repro report`` lists them."""
    from repro.faultinject.campaign import render_sweep, validate_sweep
    from repro.observe.invariants.recorder import (
        render_flight_record, validate_flight_record,
    )
    from repro.observe.report import load_jsonl, render_report, validate_report
    from repro.observe.tracing.export import render_trace, validate_trace

    return (
        ArtifactKind("observe", "record", load_jsonl, validate_report,
                     render_report),
        ArtifactKind("trace", "traceEvents", load_json, validate_trace,
                     render_trace),
        ArtifactKind("sweep", "points", load_json, validate_sweep,
                     render_sweep),
        ArtifactKind("flight", "violations", load_json,
                     validate_flight_record, render_flight_record),
    )


def sniff(path: str, data: Any = None) -> Optional[ArtifactKind]:
    """The kind of a file: by its name's prefix, else by the shape of its
    (first) JSON value ``data``."""
    base = os.path.basename(path)
    for kind in artifact_kinds():
        if base.startswith(kind.prefix) or (
            isinstance(data, dict) and kind.shape in data
        ):
            return kind
    return None


def discover(paths: Sequence[str]) -> List[str]:
    """The artifact files under ``paths``, kind-major, then by path.

    Directories are walked recursively and yield the ``.json``/``.jsonl``
    files whose name carries a kind's prefix. A file named explicitly is
    always taken: naming it asserts that it is an artifact.
    """
    found: List[str] = []
    for p in paths:
        if not os.path.isdir(p):
            found.append(p)
            continue
        for root, _dirs, files in sorted(os.walk(p)):
            found += [
                os.path.join(root, f) for f in sorted(files)
                if f.endswith((".json", ".jsonl")) and sniff(f)
            ]
    order = (*artifact_kinds(), None)  # an unknown file comes last
    found.sort(key=lambda p: (order.index(sniff(p)), p))
    return found


def read_artifact(path: str) -> Tuple[str, Any, List[str], str]:
    """``(kind name, data, errors, rendered text)`` of one artifact file.
    A file that cannot be read, parsed, validated clean or rendered comes
    back with errors and no text; nothing raises."""
    kind = sniff(path)
    try:
        if kind is None:
            with open(path) as fh:
                text = fh.read(1 << 20)
            if path.endswith(".jsonl"):
                text = text.splitlines()[0]
            kind = sniff(path, json.loads(text))
        if kind is None:
            return "unknown", None, ["unrecognized artifact shape"], ""
        data = kind.parse(path)
        errors = kind.validate(data)
        return kind.name, data, errors, "" if errors else kind.render(data)
    except FileNotFoundError:
        error = "file not found"
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        error = f"unparseable: {exc}"
    return kind.name if kind else "unknown", None, [error], ""


def html_page(title: str, blocks: Sequence[str], ok: bool) -> str:
    """``blocks`` as one self-contained HTML page under a status banner."""
    from html import escape

    body = "\n".join(f"<pre>{escape(b)}</pre>" for b in blocks)
    color = "#2a7" if ok else "#c33"
    return (
        "<!DOCTYPE html>\n"
        f"<html><head><meta charset='utf-8'><title>{title}</title>"
        "<style>"
        "body{font-family:monospace;margin:2em;background:#fafafa}"
        "pre{background:#fff;border:1px solid #ddd;padding:1em;"
        "overflow-x:auto}"
        f".banner{{color:#fff;background:{color};padding:.5em 1em;"
        "font-weight:bold}"
        "</style></head><body>"
        f"<div class='banner'>{title} — {'ok' if ok else 'failed'}</div>\n"
        f"{body}\n"
        "</body></html>\n"
    )


def run_report(parser: Parser, args: argparse.Namespace) -> int:
    """Show every pipeline's artifacts (OBSERVE run reports, TRACE span
    DAGs, SWEEP campaign summaries, FLIGHT records) in one dashboard, each
    as the command that wrote it printed it. Read-only. Exits nonzero on
    any malformed artifact, failed sweep or present flight record."""
    from repro.render import Table

    paths = discover(args.paths)
    if not paths:
        print(f"no artifacts found under {args.paths}", file=sys.stderr)
        return 1
    inventory = Table("artifact inventory", ["kind", "file", "status"])
    shown: List[str] = []
    problems: List[str] = []
    for path in paths:
        kind, data, errors, text = read_artifact(path)
        inventory.add(kind, path, f"MALFORMED: {errors[0]}" if errors else "ok")
        if errors:
            problems.append(f"malformed {kind} artifact {path}: {errors[0]}")
            continue
        shown.append(f"{path}\n{'-' * len(path)}\n{text}")
        if kind == "sweep" and not data["ok"]:
            problems.append(f"crash sweep {path} reported failure")
        if kind == "flight":
            problems.append(f"flight record {path} present ({data['reason']})")
    verdict = (
        "REPORT FAILED:\n" + "\n".join(f"  - {p}" for p in problems)
        if problems else "REPORT OK: all artifacts valid"
    )
    blocks = [inventory.render(), *shown, verdict]
    title = "repro analytics dashboard"
    print("\n\n".join([f"{title}\n{'#' * len(title)}", *blocks]))
    if args.html:
        with open(args.html, "w") as fh:
            fh.write(html_page(title, blocks, not problems))
        print(f"\nhtml dashboard written to {args.html}")
    return 1 if problems else 0


# ---- the registry ----
COMMANDS = {
    "run": (add_run_arguments, run_app),
    "tables": (add_tables_arguments, run_tables),
    "crashsweep": (add_crashsweep_arguments, run_crashsweep),
    "observe": (add_observe_arguments, run_observe),
    "trace": (add_trace_arguments, run_trace),
    "monitor": (add_monitor_arguments, run_monitor),
    "report": (add_report_arguments, run_report),
}


def build_parser(name: str = "run") -> Parser:
    add_arguments, run = COMMANDS[name]
    prog = "python -m repro" + ("" if name == "run" else f" {name}")
    parser = Parser(prog=prog, description=run.__doc__)
    add_arguments(parser)
    return parser


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    name = "run"  # `python -m repro <app> ...` is the bare run form
    if argv and argv[0] in COMMANDS:
        name, argv = argv[0], argv[1:]
    parser = build_parser(name)
    return COMMANDS[name][1](parser, parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
