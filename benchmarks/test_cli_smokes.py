"""End-to-end smokes of the ``repro`` command line, one ``python -m repro``
(or ``benchmarks/sample_profile.py``, ``benchmarks/ledger/run.py``) process
per invocation.

    PYTHONPATH=src python -m pytest benchmarks/test_cli_smokes.py

Each case is one check that used to be a shell assertion: exit codes
that must be zero or must not be, and text the output must hold. The
artifacts the report and serving cases write (dashboards, run reports,
a sweep summary) land under pytest's temporary directory: ``--basetemp
DIR`` keeps them in ``DIR`` (CI uploads them from there). About 45 s in
all: 12 s the ledger smoke, 10 s the sampling profiles, 12 s the example
scripts.
"""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: the serving run of the SLO cases: the session app at 55 % utilization
#: against the calibrated 60 ms p99 objective (EXPERIMENTS.md "SLO
#: reconvergence under faults")
SERVING = ("observe", "session", "--procs", "4", "--steps", "40",
           "--rate", "800", "--slo", "p99(lat.request)<60ms")


def run(*argv, script=None):
    """One process: ``python -m repro ARGV`` (or ``python SCRIPT ARGV``)."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, script] if script else [sys.executable, "-m", "repro"]
    return subprocess.run(
        cmd + [str(a) for a in argv], capture_output=True, text=True,
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
    )


def ok(proc):
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout


def test_every_subcommand_has_help():
    """The registry is the front door: ``--help`` of the bare run form and
    of each registered subcommand exits 0, and the retired bench flags
    are gone from all of them."""
    from repro.__main__ import COMMANDS

    text = ok(run("--help")) + "".join(ok(run(sub, "--help")) for sub in COMMANDS)
    for retired in ("--bench-json", "--suite", "--smoke"):
        assert retired not in text


#: the simulated-result fingerprint of each ledger workload at ``--smoke``
#: sizes: a host-only change must leave every one of them as it is
LEDGER_SMOKE_FINGERPRINTS = {
    "paper8": "04d1f0fc28824bd1f0e0b5c9282bd67a1c69656c180172dfc72a2bc61994d9f2",
    "scale128": "852e4fc7433dea51f3cc5a7a125ffc7e7702d01a877366c9b3be826761069f8d",
    "serve_session": "c2dae359ec1c34a5a50c38e19f6fa873b479a295cd9bc259123e008907be298e",
    "sweep_session": "5b8369d8aef6ef63cc93f9f099f8fc4f2deb8520597d0ccb0aaf138561bc58c8",
}


def test_ledger_smoke_fingerprints_are_pinned():
    """The repo's benchmark (BENCHMARK.json) at tiny sizes, ~12 s: all four
    workloads and their traced repetition pass every check (a repetition
    whose fingerprint differs from the first one's fails one), and each
    workload's fingerprint is the pinned one. Writes nothing."""
    script = os.path.join(ROOT, "benchmarks", "ledger", "run.py")
    out = ok(run("--smoke", script=script))
    found = dict(re.findall(
        r"^(\S+): seed .*\n  simulated-result fingerprint ([0-9a-f]{64})$",
        out, re.M,
    ))
    assert found == LEDGER_SMOKE_FINGERPRINTS
    assert out.splitlines()[-1] == "all checks passed"


def test_untraced_sampling_profile():
    """The SIGPROF sampler runs every ledger workload to the end (a tick
    on an instruction without a line number used to crash it after the
    tables), attributes samples to the apps' own files and gives the
    collector's share of the CPU time and collections per generation on
    the line after its header; its memory
    half prints resident size per stage, the modules the warm-up
    imported (no numpy.testing for paper8), the lines holding the traced
    heap at the peak of one body, and what the body's last cluster holds
    once finished and adds when built; its message half prints the serving
    body's message mix, replica updates split by op, and the stamp bytes
    of scale128's."""
    script = os.path.join(ROOT, "benchmarks", "sample_profile.py")
    out = {
        w: ok(run("--workload", w, "--smoke", script=script))
        for w in ("paper8", "scale128", "serve_session", "sweep_session")
    }
    assert "apps/barnes.py:" in out["paper8"]
    for text in out.values():
        assert re.search(
            r"^collector: \d+\.\d % of the CPU time in \d+ collections "
            r"\(gen 0: \d+ freeing \d+, gen 1: \d+ freeing \d+, "
            r"gen 2: \d+ freeing \d+\)$",
            text.splitlines()[1],
        ), text.splitlines()[:2]
    memory = {
        w: ok(run("--workload", w, "--smoke", "--memory", "--rows", "5",
                  script=script))
        for w in out
    }
    assert "x body" in memory["serve_session"]
    assert "observe/" in memory["serve_session"]
    # the line after the stages names what the warm-up imported; the
    # paper apps' result checks import no numpy.testing
    warm = [line for line in memory["paper8"].splitlines()
            if line.startswith("the warm-up imported ")]
    assert len(warm) == 1 and "numpy.testing" not in warm[0], warm
    # a finished cluster frees itself: no body leaves a repro object to
    # the collector; before that, what its last cluster holds and adds
    for text in memory.values():
        held, added, garbage = text.splitlines()[-3:]
        assert re.search(
            r"^one finished cluster holds \d+\.\d\d MB traced$", held
        ), held
        assert float(held.split()[4]) > 0, held
        assert re.search(r"^one build adds \d+ gc-tracked objects$", added), added
        assert int(added.split()[3]) > 0, added
        assert re.search(
            r"^cyclic garbage of one body: \d+ objects, 0 of them repro\.\*$",
            garbage,
        ), garbage
    mix = ok(run("--workload", "serve_session", "--smoke", "--messages",
                 script=script))
    assert "LockGrant" in mix and "ReplicaUpdate[rel]" in mix
    assert mix.splitlines()[-1].endswith("total")
    # at 128 nodes a page's version names its few writers, so fetch
    # stamps go sparse; a barrier's global stamp is dense and stays so
    wide = ok(run("--workload", "scale128", "--smoke", "--messages",
                  script=script))
    stamp_mb = {
        row[-1]: (float(row[4]), float(row[5]))
        for row in map(str.split, wide.splitlines()[1:])
    }
    sent, dense = stamp_mb["PageFetchReq"]
    assert 0 < sent < dense / 2
    sent, dense = stamp_mb["BarrierRelease"]
    assert 0 < sent == dense


def test_import_profile_of_a_fresh_process():
    """``sample_profile.py --imports`` lists the ``repro`` modules a fresh
    ``import workloads`` loads, as the ledger's set-up sample does, with a
    total line; the span tracer is not among them (the observe package
    resolves its re-exports on first use)."""
    script = os.path.join(ROOT, "benchmarks", "sample_profile.py")
    text = ok(run("--workload", "paper8", "--smoke", "--imports", script=script))
    assert re.search(
        r"^total: \d+ repro modules, \d+ lines, \d+ dataclasses, "
        r"\d+\.\d ms self$",
        text.splitlines()[-1],
    ), text.splitlines()[-1]
    assert re.search(r"  repro\.dsm\.protocol$", text, re.M)
    assert "tracing" not in text


def test_flat_trace_follows_a_recovered_node():
    """Events come from the running code, not from wrappers around the
    first incarnation: p1 keeps logging locks after it recovers."""
    lines = ok(run("counter", "--procs", "4", "--ft", "--crash", "1@0.5",
                   "--trace", "lock,barrier,recovery")).splitlines()
    live = next(
        i for i, line in enumerate(lines) if re.search(r" p1 +recovery +live", line)
    )
    assert any(re.search(r" p1 +lock ", line) for line in lines[live:])


def test_paper_tables_at_smoke_scale():
    """``repro tables`` runs the three paper apps once, base and FT, and
    renders every table and figure of the harness from those runs."""
    out = ok(run("tables", "--scale", "smoke"))
    for title in ("Table 1:", "Table 2:", "Table 3:", "Table 4:", "Figure 3:",
                  "Figure 4 (barnes):", "Figure 4 (water-nsq):",
                  "Figure 4 (water-spatial):"):
        assert re.search(f"^{re.escape(title)}", out, re.M), title


@pytest.mark.parametrize("script", sorted(
    name for name in os.listdir(os.path.join(ROOT, "examples"))
    if name.endswith(".py")
))
def test_example_runs(script):
    """Every example script runs to the end; the fault-injection tour
    prints WRONG for a recovery that missed the golden result, so no
    output may hold it."""
    out = ok(run(script=os.path.join(ROOT, "examples", script)))
    assert "WRONG" not in out


# ----------------------------------------------------------------------
# the unified analytics report over one pass of each pipeline
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    """One pass of each pipeline on the counter app, collected into one
    artifact directory for the aggregator; every pass exits 0. Returns
    the directory and what ``observe`` and ``crashsweep`` printed."""
    base = tmp_path_factory.mktemp("report")
    arts = base / "arts"
    arts.mkdir()
    observed = ok(run("observe", "counter", "--procs", "4", "--steps", "4",
                      "--out", arts / "OBSERVE_counter.jsonl"))
    ok(run("trace", "counter", "--procs", "4",
           "--out", arts / "TRACE_counter.json",
           "--report", base / "trace_critpath.txt"))
    swept = ok(run("crashsweep", "counter", "--procs", "4", "--steps", "2",
                   "--size", "256", "--every", "40",
                   "--out", arts / "SWEEP_counter.json"))
    ok(run("monitor", "counter", "--procs", "4", "--steps", "4"))
    return arts, {"observe": observed, "crashsweep": swept}


def test_unified_analytics_dashboard(report_dir):
    """Every artifact loads and validates and the sweep is OK (``report``
    exits 1 on either failing); the dashboard shows the sweep's per-class
    table and the run report's overview table as ``crashsweep`` and
    ``observe`` printed them, and writes the HTML page CI uploads."""
    arts, printed = report_dir
    out = ok(run("report", arts, "--html", arts / "dashboard.html"))
    assert (arts / "dashboard.html").stat().st_size > 0
    swept = printed["crashsweep"].splitlines()
    table = swept[1:swept.index("")]  # the class rows, down to SWEEP OK
    assert table[-1].endswith("SWEEP OK")
    assert "\n".join(table) in out
    overview = printed["observe"].split("\n\n")[0]
    assert overview.startswith("repro observe — counter on 4 simulated nodes")
    assert overview in out


def test_malformed_artifact_fails_the_report(tmp_path):
    (tmp_path / "SWEEP_bad.json").write_text('{"not": "a sweep"}\n')
    assert run("report", tmp_path).returncode != 0, (
        "malformed artifact was NOT detected"
    )


# ----------------------------------------------------------------------
# serving: the SLO gate, its seeded failure, and overlapping failures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serving_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("serving")


@pytest.fixture(scope="module")
def serving_pass(serving_dir):
    return run(*SERVING, "--out", serving_dir / "OBSERVE_session.jsonl")


@pytest.fixture(scope="module")
def serving_crash(serving_dir):
    return run(*SERVING, "--crash", "1@0.1",
               "--out", serving_dir / "OBSERVE_session_crash.jsonl")


def test_serving_slo_gate_passes(serving_pass):
    """Failure-free, the windowed tail stays inside the objective: exit 0
    (``observe`` also exits 1 on a report that fails validation)."""
    ok(serving_pass)


def test_seeded_slo_violation_fails_the_gate(serving_crash):
    """The same run through a crash: the recovery stall blows the
    objective, so the exit code is nonzero. An SLO gate that stays green
    through a 50 ms outage is broken."""
    assert serving_crash.returncode != 0, "seeded SLO violation was NOT gated"


def test_overlapping_failures_exit_with_a_diagnosis(tmp_path):
    """A second fail-stop inside the first victim's recovery window
    without replication exceeds the single-fault model: a nonzero exit
    with the OverlappingFailureError diagnosis, not a silent pass or an
    unhandled traceback."""
    proc = run("observe", "session", "--procs", "4", "--steps", "6",
               "--rate", "2500", "--crash", "1@0.2", "--crash2", "2@0.6",
               "--out", tmp_path / "OBSERVE_overlap.jsonl")
    assert proc.returncode != 0, "overlapping-failure schedule was NOT rejected"
    assert "overlapping failures" in proc.stderr


def test_serving_dashboard(serving_dir, serving_pass, serving_crash):
    """The aggregator renders the windowed reports of both serving runs,
    the degradation timeline of the crash run included."""
    ok(run("report", serving_dir, "--html", serving_dir / "dashboard.html"))
    assert (serving_dir / "dashboard.html").stat().st_size > 0
