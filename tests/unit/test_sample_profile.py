"""The untraced sampler's tick handler (``benchmarks/sample_profile.py``)."""

import importlib.util
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

SAMPLER = Path(__file__).resolve().parents[2] / "benchmarks" / "sample_profile.py"


def _load():
    spec = importlib.util.spec_from_file_location("sample_profile", SAMPLER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _frame(name, lineno, firstlineno, back=None):
    code = SimpleNamespace(
        co_filename="f.py", co_name=name, co_firstlineno=firstlineno
    )
    return SimpleNamespace(f_code=code, f_lineno=lineno, f_back=back)


def test_tick_on_an_instruction_without_a_line_counts_the_def_line():
    """Python 3.11 reports ``f_lineno`` None on RESUME and in generated
    ``__init__``s; stored as a key it crashed ``linecache.getline`` after
    the tables were printed."""
    on_tick = _load().on_tick
    self_n, cum_n, line_n = Counter(), Counter(), Counter()
    caller = _frame("run", 40, 30)
    on_tick(_frame("__init__", None, 2, back=caller), self_n, cum_n, line_n)
    on_tick(_frame("__init__", 3, 2, back=caller), self_n, cum_n, line_n)
    assert line_n == {("f.py", 2): 1, ("f.py", 3): 1}
    assert self_n == {("f.py", "__init__"): 2}
    assert cum_n == {("f.py", "__init__"): 2, ("f.py", "run"): 2}


def test_a_generated_init_is_named_by_its_class():
    """Every dataclass's ``__init__`` is compiled from ``<string>`` under
    one name: a row for all of them hid which class a workload makes the
    most of."""
    import dataclasses
    import sys

    on_tick = _load().on_tick
    self_n, cum_n, line_n = Counter(), Counter(), Counter()

    @dataclasses.dataclass
    class RelEntry:
        lock_id: int

        def __post_init__(self):  # its caller is the generated __init__
            on_tick(sys._getframe(1), self_n, cum_n, line_n)

    RelEntry(3)
    assert self_n == {("<string>", "__init__[RelEntry]"): 1}
    assert cum_n[("<string>", "__init__[RelEntry]")] == 1
    assert cum_n[(__file__, "test_a_generated_init_is_named_by_its_class")] == 1


def _spin(cpu_s):
    """Burn CPU time, so the profiling timer ticks."""
    import time

    until = time.process_time() + cpu_s
    while time.process_time() < until:
        sum(range(1000))


def test_memory_snapshot_is_taken_once_near_the_peak_and_names_its_line(monkeypatch):
    """The snapshot outlasts many ticks: the handler that takes it turns the
    timer off first (left on, every tick re-entered it and snapshotted the
    snapshots, gigabytes deep on a 46 MB heap)."""
    mod = _load()
    snapshots = []
    take = mod.tracemalloc.take_snapshot
    monkeypatch.setattr(
        mod.tracemalloc, "take_snapshot", lambda: snapshots.append(take()) or snapshots[-1]
    )

    def body():
        held = [[i] for i in range(30_000)]  # the peak is held here
        _spin(0.02)
        del held
        _spin(0.01)

    snapshot, size, peak = mod.snapshot_near_peak(body)
    # at most one per rung from half the peak up, the last one kept
    assert snapshots[-1] is snapshot and len(snapshots) <= 8
    assert mod.NEAR_PEAK * peak <= size <= 1.03 * peak  # two runs, not one
    header, top, *_rest = mod.memory_lines(snapshot, 3)
    assert header.split() == ["MB", "objects", "B/obj", "line"]
    assert "test_sample_profile.py" in top and "the peak is held here" in top
    assert int(top.split()[1]) >= 30_000


def test_second_pass_that_peaks_lower_gives_its_high_water_not_its_end(capsys):
    """``scale128``'s two traced passes started in different collector
    phases: the second never came near the first's peak and the heap the
    body *left* was printed under the peak's heading."""
    mod = _load()
    passes = []

    def body():
        passes.append(1)
        held = [[i] for i in range(30_000 if len(passes) == 1 else 24_000)]
        _spin(0.02)  # the high water is held here
        del held
        _spin(0.01)

    snapshot, size, peak = mod.snapshot_near_peak(body)
    assert len(passes) == 2
    assert 0.7 * peak <= size < mod.NEAR_PEAK * peak
    _header, top, *_rest = mod.memory_lines(snapshot, 3)
    assert "held = [[i]" in top and int(top.split()[1]) >= 20_000

    del passes[:]
    assert mod.report_memory(body, 0, 1, []) == 0
    summary = capsys.readouterr().out.split("\n\n")[1].splitlines()[0]
    assert "the second pass's high water" in summary and "% below" in summary


def test_resident_size_now_is_at_most_the_peak_give_or_take_a_page_count():
    now, peak = _load().rss_mb()
    assert 5 < now < peak + 1


def _toy_ledger(monkeypatch, body):
    """``main`` over a one-workload stand-in for ``ledger/workloads.py``."""
    import sys

    sizes = []

    def make_body(seed, smoke):
        sizes.append(smoke)
        return body

    toy = SimpleNamespace(WORKLOADS={"toy": SimpleNamespace(make_body=make_body)})
    monkeypatch.setitem(sys.modules, "workloads", toy)
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    return sizes


def test_reps_and_rows_replace_the_single_run_and_the_fixed_table(monkeypatch, capsys):
    runs = []
    sizes = _toy_ledger(monkeypatch, lambda: (runs.append(1), _spin(0.01)))
    assert _load().main(["--workload", "toy", "--reps", "3", "--rows", "2"]) == 0
    assert sizes == [True, False] and len(runs) == 1 + 3  # warm-up, then reps
    out = capsys.readouterr().out
    _self, cumulative, _lines = (t.splitlines() for t in out.split("\n\n")[1:])
    assert len(cumulative) == 1 + 2  # of a stack six functions deep


def test_memory_mode_prints_the_stages_and_the_heap_lines(monkeypatch, capsys):
    def body():
        held = [[i] for i in range(30_000)]  # held by the toy body
        _spin(0.01)
        return len(held)

    _toy_ledger(monkeypatch, body)
    argv = ["--workload", "toy", "--memory", "--reps", "2", "--rows", "1"]
    assert _load().main(argv) == 0
    stages, heap, garbage = capsys.readouterr().out.split("\n\n")
    header, *rows, modules = stages.splitlines()
    assert header.split() == ["RSS", "MB", "peak", "MB", "after"]
    assert [row.split(None, 2)[2] for row in rows] == ["imports", "warm-up", "2 x body"]
    assert modules == "the warm-up imported 0 modules beyond `import workloads`: -"
    summary, _header, top = heap.splitlines()
    assert summary.startswith("traced heap ") and "at the peak of one body" in summary
    assert "near the first pass's peak" in summary
    assert "held by the toy body" in top
    # the toy body builds no cluster
    assert garbage == (
        "one finished cluster holds 0.00 MB traced\n"
        "one build adds 0 gc-tracked objects\n"
        "cyclic garbage of one body: 0 objects, 0 of them repro.*\n"
    )


def test_memory_mode_names_the_modules_the_warm_up_imported(monkeypatch, capsys):
    """A result check that called ``numpy.testing`` loaded it and some
    sixty modules with it into the ledger's ``paper8`` at its first
    Barnes check, where no stage said so; the line after the stages
    lists what the warm-up body imported."""
    import sys

    def body():
        import colorsys  # a module nothing here has imported

        return colorsys

    monkeypatch.delitem(sys.modules, "colorsys", raising=False)
    _toy_ledger(monkeypatch, body)
    assert _load().main(["--workload", "toy", "--memory", "--rows", "1"]) == 0
    stages = capsys.readouterr().out.split("\n\n")[0]
    assert stages.splitlines()[-1] == (
        "the warm-up imported 1 modules beyond `import workloads`: colorsys"
    )


def test_the_last_finished_cluster_is_kept_and_its_build_counted():
    """``--memory``'s tap on ``DsmCluster``: the cluster whose run returned
    last outlives the body until released, which frees it and says how
    many traced bytes that was; each build counts the gc-tracked objects
    it added; the class is itself again afterwards."""
    import tracemalloc
    import weakref

    from repro import DsmCluster
    from tests.conftest import make_app, make_cluster

    init = DsmCluster.__init__
    tracemalloc.start()
    try:
        with _load().LastCluster() as last:
            for procs in (2, 4):
                make_cluster(num_procs=procs, ft=True).run(make_app("counter"))
        assert len(last.cluster.hosts) == 4 and last.added > 100
        kept = weakref.ref(last.cluster)
        assert last.release() > 100_000 and kept() is None
    finally:
        tracemalloc.stop()
    assert DsmCluster.__init__ is init


def test_message_mix_counts_every_send_and_splits_replica_ops(capsys):
    """``--messages``: one row per message type, a ``ReplicaUpdate`` per
    kind (an ``op`` per log event), adding up to what the network saw;
    ``Network.send`` is itself again afterwards."""
    from repro.core import FtConfig
    from repro.sim.network import Network
    from tests.conftest import make_app, make_cluster

    mod = _load()
    send = Network.send
    clusters = []

    def body():
        cluster = make_cluster(4, ft=True, ft_config=FtConfig(replicate=True))
        clusters.append(cluster)
        cluster.run(make_app("counter"))

    assert mod.report_messages(body, rows=100) == 0
    assert Network.send is send
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    counts = {row[-1]: int(row[0]) for row in rows}
    traffic = clusters[0].network.traffic
    assert counts.pop("total") == traffic.total_msgs == sum(counts.values())
    assert counts["LockGrant"] > 0 and counts["ReplicaUpdate[rel]"] > 0
    assert "ReplicaUpdate" not in counts and "AcqAck" not in counts
    # stamp columns: never above dense; a diff's interval is 4 B of 16
    stamp_mb = {row[-1]: (float(row[4]), float(row[5])) for row in rows}
    assert all(sent <= dense for sent, dense in stamp_mb.values())
    assert stamp_mb["DiffMsg"] == (
        round(4 * counts["DiffMsg"] / 1e6, 3), round(16 * counts["DiffMsg"] / 1e6, 3)
    )
    assert stamp_mb["ReplicaUpdate[rel]"] == (0.0, 0.0)  # inside the body


def test_cyclic_garbage_counts_what_only_the_collector_frees():
    """One body's unreachable cycles are counted, ``repro`` objects
    apart; an object freed by reference counting is not counted, and the
    collector is left as it was found."""
    import gc

    from repro.sim.engine import Future

    mod = _load()

    def body():
        loop = []
        loop.append(loop)  # a cycle of a list
        future = Future()
        future.label = future  # a cycle of a repro object, and its
        Future()  # waiter list; this one is freed at once

    assert mod.cyclic_garbage(body) == (3, 1, 0)
    assert gc.get_debug() == 0 and gc.garbage == []


def test_a_cycle_in_the_kept_cluster_is_counted_as_garbage():
    """``--memory`` keeps the body's last cluster past the body and
    releases it before the final collection, so that collection sees a
    cycle among the cluster's parts (here a host that holds itself)
    although the cluster as a whole is freed by reference counting."""
    import tracemalloc

    from tests.conftest import make_app, make_cluster

    mod = _load()

    def body():
        cluster = make_cluster(num_procs=2, ft=True)
        cluster.run(make_app("counter"))
        host = cluster.hosts[1]
        host.loop = host

    tracemalloc.start()
    try:
        with mod.LastCluster() as last:
            _total, ours, held = mod.cyclic_garbage(body, last.release)
    finally:
        tracemalloc.stop()
    assert ours > 0 and held > 0
