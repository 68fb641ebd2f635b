"""Where one ledger workload's host time goes, sampled and untraced.

    python3 benchmarks/sample_profile.py --workload paper8 [--seed 42] [--smoke]
                                         [--reps N] [--rows N] [--memory]
                                         [--messages] [--imports]

The ledger's per-layer instrument is cProfile (``ledger/trace.py``). It
counts calls exactly and charges each about a microsecond, so code made
of many tiny calls reads larger than it is: traced, ``paper8`` runs
2.4x slower and its 300 k small protocol calls read as a quarter of it.
This sampler has no per-call cost: ``SIGPROF`` fires every millisecond of
CPU time and the interrupted Python stack is counted, time inside a C
call going to the Python line that made it. It lies the other way: about
+-2 % at 2 k samples, and no call counts. Use cProfile to compare one
layer across commits, this to decide which layer to look at.

Builds the body from ``ledger/workloads.py`` as the ledger does, warms it
with one smoke-sized run, and prints self and cumulative shares per
(file, function) and the top source lines over ``--reps`` runs of it.
A tick that lands in a garbage-collector pause would be charged to
whatever line allocated the object that triggered it (a ``__init__``, a
tuple). So the line after the header gives the collector's own share of
the CPU time, its collections per generation and the objects they freed,
timed and counted through ``gc.callbacks``, and such a tick is delivered
in that callback once the pause ends, reading as
``sample_profile.py:collector_pause``. No collector setting is changed.
Every dataclass's generated ``__init__`` is compiled from ``<string>``,
so such a row is named by the class of its ``self``:
``<string>:__init__[RelEntry]``.

``--memory`` asks where the ledger's ``peak_rss_mb`` comes from instead:
resident size after the imports, after the warm-up and after the untraced
repetitions; the modules the warm-up imported beyond ``import workloads``
(count, then names: each is resident in every process that runs the
workload); then which source lines hold the ``tracemalloc``-traced heap
at the peak of one more body. A snapshot cannot be asked for "at the
peak", so that body runs twice: once to learn how high the traced heap
gets, once more with the profiling timer watching for it to come within
3 % of that; the summary line says whether it did, or how far below the
highest snapshot of the second pass was taken. Traced, a body is several
times slower. One more traced body sizes its last cluster: the traced
bytes it still holds once its run returned (kept past the body, then
dropped: a dropped cluster frees itself), and the gc-tracked objects its
build (``DsmCluster(...)`` through ``setup``) added. The last line counts
that body's cyclic garbage, the last cluster's included (it is dropped
before the final collection): the objects only the collector could free,
and how many of them are ``repro`` objects (a finished cluster frees
itself, so that reads 0). The collector keeps them for counting
(``gc.DEBUG_SAVEALL``) during that body alone.

``--messages`` asks what one body sends instead: count and simulated
bytes per message type, ``ReplicaUpdate`` split by its kind (an ``op`` by
the log event it carries), so a traffic claim can show its message mix.
Two more columns show the vector timestamps a type carries in its fields
and piggyback: the MB they cost on the wire, and the MB the same stamps
would cost sent dense (4 B per component); a ``DiffMsg``'s interval is
counted as its stamp. Stamps inside replica images and recovery answers
are part of those bodies' sizes and are not split out. Writes nothing.

``--imports`` asks what the import share of the ledger's ``setup_s``
pays for instead: the ``repro`` modules a fresh interpreter loads on
``import workloads``, run as the ledger runs it (from ``ledger/``, under
this process's environment, so with ``PYTHONDONTWRITEBYTECODE`` set every
module is compiled from source). Per module: self and cumulative import
time from ``-X importtime``, source lines and the dataclasses it defines
(each ``exec``s its generated methods), by self time; then a total line.
The workload is not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import linecache
import os
import re
import resource
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from typing import Callable, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

TICK_S = 1e-3
#: how close to the first pass's traced peak the second takes its snapshot
NEAR_PEAK = 0.97
#: below that, the rise over the snapshot kept that earns a newer one
RATCHET = 1.1


def function_key(frame) -> Tuple[str, str]:
    """``(file, function)`` of a frame. A generated method (a dataclass's
    ``__init__``) is compiled from ``<string>`` under the same name for
    every class, so its class is named too: ``__init__[RelEntry]``."""
    code = frame.f_code
    if code.co_filename == "<string>" and code.co_varnames[:1] == ("self",):
        owner = type(frame.f_locals.get("self")).__name__
        return code.co_filename, f"{code.co_name}[{owner}]"
    return code.co_filename, code.co_name


def on_tick(frame, self_n: Counter, cum_n: Counter, line_n: Counter) -> None:
    """Count one sample: the interrupted function, its line, its callers."""
    code = frame.f_code
    self_n[function_key(frame)] += 1
    # f_lineno is None when the tick lands on an instruction without a
    # line (RESUME, a generated dataclass __init__)
    lineno = frame.f_lineno
    line_n[code.co_filename, code.co_firstlineno if lineno is None else lineno] += 1
    on_stack = set()
    while frame is not None:
        on_stack.add(function_key(frame))
        frame = frame.f_back
    cum_n.update(on_stack)


class GcPauses:
    """CPU seconds spent inside collections, and the number of collections
    and of objects they freed per generation, counted by
    :meth:`collector_pause`."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.by_gen: Counter = Counter()
        self.freed_by_gen: Counter = Counter()
        self._t0 = 0.0

    def collector_pause(self, phase: str, info: dict) -> None:
        """The ``gc.callbacks`` entry."""
        if phase == "start":
            self._t0 = time.process_time()
        else:
            self.seconds += time.process_time() - self._t0
            self.by_gen[info["generation"]] += 1
            self.freed_by_gen[info["generation"]] += info["collected"]


def sample(
    body: Callable[[], object]
) -> Tuple[Counter, Counter, Counter, GcPauses]:
    """Run ``body`` under the profiling timer; samples by function (self,
    cumulative) and by source line, and the collector's pauses."""
    self_n: Counter = Counter()
    cum_n: Counter = Counter()
    line_n: Counter = Counter()
    pauses = GcPauses()
    signal.signal(
        signal.SIGPROF,
        lambda _signum, frame: on_tick(frame, self_n, cum_n, line_n),
    )
    gc.callbacks.append(pauses.collector_pause)
    signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
    try:
        body()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        gc.callbacks.remove(pauses.collector_pause)
    return self_n, cum_n, line_n, pauses


def rss_mb() -> Tuple[float, float]:
    """Resident megabytes now and at the process's peak (the ledger's
    ``peak_rss_mb`` is the second, read after its last repetition)."""
    with open("/proc/self/statm") as fh:
        now = int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    return now, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class LastCluster:
    """While entered, taps ``DsmCluster``: the cluster whose run returned
    last is kept (:attr:`cluster`) until the next build starts, as a
    body's own variable would keep it, and each build (``__init__``
    through ``setup``) counts the gc-tracked objects it added
    (:attr:`added`, the last build's)."""

    def __init__(self) -> None:
        self.cluster: object = None
        self.added = 0

    def __enter__(self) -> "LastCluster":
        from repro import DsmCluster

        self._saved = saved = (DsmCluster.__init__, DsmCluster.setup, DsmCluster.run)
        init, setup, run = saved
        tap = self

        # counted around each call: between them a body's assignment may
        # drop the previous cluster
        def tapped_init(cluster, *args, **kwargs):
            tap.cluster = None
            before = len(gc.get_objects())
            init(cluster, *args, **kwargs)
            tap.added = len(gc.get_objects()) - before

        def tapped_setup(cluster, *args, **kwargs):
            before = len(gc.get_objects())
            setup(cluster, *args, **kwargs)
            tap.added += len(gc.get_objects()) - before

        def tapped_run(cluster, *args, **kwargs):
            result = run(cluster, *args, **kwargs)
            tap.cluster = cluster
            return result

        DsmCluster.__init__, DsmCluster.setup, DsmCluster.run = (
            tapped_init, tapped_setup, tapped_run
        )
        return self

    def __exit__(self, *exc) -> None:
        from repro import DsmCluster

        DsmCluster.__init__, DsmCluster.setup, DsmCluster.run = self._saved

    def release(self) -> int:
        """Drop the kept cluster; the traced bytes that freed (0 with
        none kept)."""
        if self.cluster is None:
            return 0
        before = tracemalloc.get_traced_memory()[0]
        self.cluster = None
        return before - tracemalloc.get_traced_memory()[0]


def snapshot_near_peak(
    body: Callable[[], object]
) -> Tuple[tracemalloc.Snapshot, int, int]:
    """Run ``body`` twice under ``tracemalloc``, each pass from a collected
    heap; the snapshot taken when the second pass's traced heap first came
    within ``NEAR_PEAK`` of the first pass's peak, the traced bytes then,
    and that peak. A second pass that never gets there gives its
    highest-water snapshot instead: from half the peak up, one is taken at
    each ``RATCHET``-fold rise and only the last is kept (at the end of the
    body if it stayed below half)."""
    tracemalloc.start()
    try:
        gc.collect()
        body()
        peak = tracemalloc.get_traced_memory()[1]
        kept: Optional[Tuple[tracemalloc.Snapshot, int]] = None

        def watch(_signum, _frame) -> None:
            nonlocal kept
            size = tracemalloc.get_traced_memory()[0]
            rung = RATCHET * kept[1] if kept else peak / 2
            if size < min(rung, NEAR_PEAK * peak):
                return
            # timer off first: a snapshot outlasts many ticks, each of which
            # would interrupt it and start another
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, signal.SIG_IGN)
            kept = (tracemalloc.take_snapshot(), size)
            if size < NEAR_PEAK * peak:  # keep climbing
                signal.signal(signal.SIGPROF, watch)
                signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)

        gc.collect()
        signal.signal(signal.SIGPROF, watch)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        try:
            body()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, signal.SIG_IGN)
        if kept is None:
            kept = (tracemalloc.take_snapshot(), tracemalloc.get_traced_memory()[0])
        return (*kept, peak)
    finally:
        tracemalloc.stop()


def memory_lines(snapshot: tracemalloc.Snapshot, rows: int) -> List[str]:
    """The ``rows`` source lines holding the most traced bytes."""
    snapshot = snapshot.filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    )
    out = [f"{'MB':>7} {'objects':>9} {'B/obj':>6}  line"]
    for stat in snapshot.statistics("lineno")[:rows]:
        frame = stat.traceback[0]
        text = linecache.getline(frame.filename, frame.lineno).strip()
        out.append(
            f"{stat.size / 2**20:7.2f} {stat.count:9d} {stat.size // stat.count:6d}  "
            f"{short(frame.filename)}:{frame.lineno}  {text[:60]}"
        )
    return out


def report_memory(
    body: Callable[[], object], reps: int, rows: int, stages, warm_imports=()
) -> int:
    for _ in range(reps):
        body()
    stages.append((f"{reps} x body", rss_mb()))
    print(f"{'RSS MB':>8} {'peak MB':>8}  after")
    for stage, (now, peak) in stages:
        print(f"{now:8.1f} {peak:8.1f}  {stage}")
    print(
        f"the warm-up imported {len(warm_imports)} modules beyond "
        f"`import workloads`: {', '.join(warm_imports) or '-'}"
    )
    snapshot, size, peak = snapshot_near_peak(body)
    which = (
        "near the first pass's peak"
        if size >= NEAR_PEAK * peak
        else f"the second pass's high water, {100 * (1 - size / peak):.0f} % below"
    )
    print(
        f"\ntraced heap {size / 2**20:.1f} MB at the snapshot ({which}), "
        f"{peak / 2**20:.1f} MB at the peak of one body"
    )
    print("\n".join(memory_lines(snapshot, rows)))
    tracemalloc.start()
    try:
        with LastCluster() as last:
            total, ours, held = cyclic_garbage(body, last.release)
    finally:
        tracemalloc.stop()
    print(f"\none finished cluster holds {held / 2**20:.2f} MB traced")
    print(f"one build adds {last.added} gc-tracked objects")
    print(f"cyclic garbage of one body: {total} objects, {ours} of them repro.*")
    return 0


def cyclic_garbage(
    body: Callable[[], object], release: Callable[[], int] = lambda: 0
) -> Tuple[int, int, int]:
    """Objects that one run of ``body`` leaves to the collector, how many
    of them are ``repro`` objects, and what ``release`` returned: the
    collector saves what it finds unreachable in ``gc.garbage`` during the
    run and a final collection, and they are counted and released.
    ``release`` runs between the body and that collection, so what it
    drops of what the body left behind (``LastCluster.release``) is
    counted too, a cycle in it included."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        body()
        released = release()
        gc.collect()
    finally:
        gc.set_debug(0)
    total = len(gc.garbage)
    ours = sum(type(o).__module__.startswith("repro.") for o in gc.garbage)
    gc.garbage.clear()
    return total, ours, released


def stamp_bytes(payload: object, n: int) -> Tuple[int, int]:
    """``(on the wire, dense)`` bytes of the vector timestamps one message
    carries in its fields and piggyback, on an ``n``-node cluster."""
    from repro.dsm.messages import DiffMsg
    from repro.dsm.vclock import COMPONENT_BYTES, VClock

    stamps = [v for v in vars(payload).values() if type(v) is VClock]
    pb = payload.piggyback
    if pb is not None:
        stamps += [tckp for _proc, tckp, _bar_ep in pb.tckps]
    wire = sum(t.wire_bytes() for t in stamps)
    dense = COMPONENT_BYTES * n * len(stamps)
    if type(payload) is DiffMsg:  # the interval stands for the writer's clock
        wire += COMPONENT_BYTES
        dense += COMPONENT_BYTES * n
    return wire, dense


def report_messages(body: Callable[[], object], rows: int) -> int:
    """Run one body counting every ``Network.send``: count, simulated
    wire bytes and stamp bytes (sent, and dense) per message type, most
    bytes first."""
    from repro.sim.network import Network

    counts: Counter = Counter()
    sizes: Counter = Counter()
    stamps: Counter = Counter()
    dense: Counter = Counter()
    send = Network.send

    def counting_send(self, src, dst, payload, size, category, ft_bytes=0):
        name = type(payload).__name__
        if name == "ReplicaUpdate":
            kind = payload.kind
            name += f"[{payload.body[0] if kind == 'op' else kind}]"
        counts[name] += 1
        sizes[name] += size
        wire, full = stamp_bytes(payload, self.n)
        stamps[name] += wire
        dense[name] += full
        return send(self, src, dst, payload, size, category, ft_bytes)

    Network.send = counting_send
    try:
        body()
    finally:
        Network.send = send
    total_n, total_b = sum(counts.values()), sum(sizes.values())
    print(
        f"{'msgs':>9} {'msg %':>6} {'sim MB':>9} {'MB %':>6} "
        f"{'stamp MB':>9} {'dense MB':>9}  message type"
    )
    for name, nbytes in sizes.most_common(rows):
        print(
            f"{counts[name]:9d} {100 * counts[name] / total_n:6.1f} "
            f"{nbytes / 1e6:9.3f} {100 * nbytes / total_b:6.1f} "
            f"{stamps[name] / 1e6:9.3f} {dense[name] / 1e6:9.3f}  {name}"
        )
    print(
        f"{total_n:9d} {100.0:6.1f} {total_b / 1e6:9.3f} {100.0:6.1f} "
        f"{sum(stamps.values()) / 1e6:9.3f} {sum(dense.values()) / 1e6:9.3f}  total"
    )
    return 0 if total_n else 1


#: one ``-X importtime`` row: self and cumulative microseconds, module
IMPORT_ROW = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| *(\S+)$")

#: what the fresh interpreter prints after the import: per loaded
#: ``repro`` module, its source file and the dataclasses it defines
LOADED = (
    "import dataclasses, json, sys; import workloads; "
    "print(json.dumps({name: [m.__file__, sum("
    "isinstance(v, type) and dataclasses.is_dataclass(v) "
    "and v.__module__ == name for v in vars(m).values())] "
    "for name, m in sys.modules.items() if name.split('.')[0] == 'repro'}))"
)


def report_imports() -> int:
    """The ``repro`` modules a fresh ``import workloads`` loads, as the
    ledger's import sample runs it, with their import times, source lines
    and dataclasses."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", LOADED],
        cwd=os.path.join(HERE, "ledger"), capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    loaded = json.loads(done.stdout)
    # a submodule imported before its package gets a second row: the
    # package's import, which finds it loaded (self time is summed)
    self_us: Counter = Counter()
    cum_us: Counter = Counter()
    for m in map(IMPORT_ROW.match, done.stderr.splitlines()):
        if m:
            self_us[m.group(3)] += int(m.group(1))
            cum_us[m.group(3)] = max(cum_us[m.group(3)], int(m.group(2)))
    rows = []
    for name, (source, dataclasses) in loaded.items():
        with open(source, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        rows.append((self_us[name], cum_us[name], lines, dataclasses, name))
    cached = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"fresh `import workloads`, bytecode writing {cached}")
    print(f"{'self ms':>8} {'cum ms':>8} {'lines':>6} {'dcls':>5}  module")
    for self_us, cum_us, lines, dataclasses, name in sorted(rows, reverse=True):
        print(f"{self_us / 1e3:8.1f} {cum_us / 1e3:8.1f} {lines:6d} "
              f"{dataclasses:5d}  {name}")
    print(
        f"total: {len(rows)} repro modules, {sum(r[2] for r in rows)} lines, "
        f"{sum(r[3] for r in rows)} dataclasses, "
        f"{sum(r[0] for r in rows) / 1e3:.1f} ms self"
    )
    return 0 if rows else 1


def short(path: str) -> str:
    """``apps/barnes.py`` for the package's files, the base name otherwise."""
    if path.startswith(SRC):
        return os.path.relpath(path, os.path.join(SRC, "repro"))
    return os.path.basename(path)


def main(argv: Optional[List[str]] = None) -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):  # as the ledger's child
        os.environ.setdefault(var, "1")
    sys.path[:0] = [os.path.join(HERE, "ledger"), SRC]
    import workloads  # the ledger's, read-only

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--smoke", action="store_true", help="the ledger's tiny sizes")
    p.add_argument("--reps", type=int, default=1, help="runs of the body")
    p.add_argument("--rows", type=int, default=25, help="rows per table")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--memory", action="store_true",
                      help="resident size per stage and the lines holding the heap")
    mode.add_argument("--messages", action="store_true",
                      help="count and sim-bytes per message type of one body")
    mode.add_argument("--imports", action="store_true",
                      help="the repro modules a fresh `import workloads` loads")
    args = p.parse_args(argv)
    if args.imports:
        return report_imports()
    stages = [("imports", rss_mb())]
    make_body = workloads.WORKLOADS[args.workload].make_body
    imported = set(sys.modules)
    make_body(args.seed, True)()  # warm-up: imports, caches, lazy set-up
    stages.append(("warm-up", rss_mb()))
    warm_imports = sorted(set(sys.modules) - imported)
    body = make_body(args.seed, args.smoke)
    if args.memory:
        return report_memory(body, args.reps, args.rows, stages, warm_imports)
    if args.messages:
        return report_messages(body, args.rows)
    cpu0 = time.process_time()
    self_n, cum_n, line_n, pauses = sample(
        lambda: [body() for _ in range(args.reps)]
    )
    cpu_s = time.process_time() - cpu0
    total = sum(self_n.values())
    print(
        f"{args.workload}, seed {args.seed}: {total} samples in {cpu_s:.2f} s "
        f"of CPU time (the kernel's tick bounds the rate)"
    )
    gens = ", ".join(
        f"gen {g}: {pauses.by_gen[g]} freeing {pauses.freed_by_gen[g]}"
        for g in range(3)
    )
    print(
        f"collector: {100 * pauses.seconds / cpu_s:.1f} % of the CPU time in "
        f"{sum(pauses.by_gen.values())} collections ({gens})"
    )
    for title, order in (("self", self_n), ("cumulative", cum_n)):
        print(f"\n{'self %':>7} {'cum %':>7}  function, by {title} share")
        for key, _n in order.most_common(args.rows):
            print(
                f"{100 * self_n[key] / total:7.1f} {100 * cum_n[key] / total:7.1f}  "
                f"{short(key[0])}:{key[1]}"
            )
    print(f"\n{'self %':>7}  line")
    for (path, lineno), n in line_n.most_common(args.rows):
        text = linecache.getline(path, lineno).strip()
        print(f"{100 * n / total:7.1f}  {short(path)}:{lineno}  {text[:72]}")
    return 0 if total else 1


if __name__ == "__main__":
    sys.exit(main())
