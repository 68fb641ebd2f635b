"""Smoke tests for the ``python -m repro`` command line."""

import pytest

from repro.__main__ import COMMANDS, build_parser, main
from repro.sim.trace import TEXT

#: what ``--trace`` accepts and its help lists: every category of TEXT
TRACE_CATEGORIES = ",".join(sorted({category for category, _ in TEXT.values()}))


def test_base_run(capsys):
    assert main(["counter", "--procs", "4", "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "virtual time" in out
    assert "counter on 4 simulated nodes" in out


def test_ft_run_with_crash(capsys):
    assert main(["counter", "--ft", "--crash", "3@0.4", "--procs", "8"]) == 0
    out = capsys.readouterr().out
    assert "checkpoints" in out
    assert "1 crash(es), 1 recover(ies)" in out


def _usage_error(argv, capsys) -> str:
    """Run ``argv`` expecting an argparse usage error (exit 2); returns
    the diagnosis line."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err.strip().splitlines()[-1]


#: every subcommand's option strings, as literals: the parent's sets minus
#: the retired bench group (run) and --threshold (report). The parent
#: parsed `tables` with the run parser; --scale, the one flag `tables`
#: reads, went with it and the flags it ignored stayed with run
OPTIONS = {
    "run": {
        "--procs", "--steps", "--size", "--rate", "--ft", "--l", "--replicate",
        "--coordinated", "--crash", "--wan", "--trace", "--trace-limit",
    },
    "tables": {"--scale"},
    "crashsweep": {
        "--procs", "--steps", "--size", "--rate", "--l", "--replicate",
        "--no-replicate", "--every", "--classes", "--faults", "--seed",
        "--out", "-v", "--verbose",
    },
    "observe": {
        "--procs", "--steps", "--size", "--rate", "--l", "--no-ft",
        "--replicate", "--crash", "--crash2", "--interval", "--window",
        "--slo", "--out",
    },
    "trace": {
        "--procs", "--steps", "--size", "--l", "--no-ft", "--replicate",
        "--crash", "--crash2", "--out", "--report", "--top",
    },
    "monitor": {
        "--procs", "--steps", "--size", "--l", "--crash", "--ring",
        "--flight", "--seed-violation",
    },
    "report": {"--html"},
}


def test_registry_and_option_surface():
    assert set(COMMANDS) == set(OPTIONS)
    for name, expected in OPTIONS.items():
        got = {
            s for action in build_parser(name)._actions
            for s in action.option_strings
        }
        assert got - {"-h", "--help"} == expected, name


@pytest.mark.parametrize("name", sorted(OPTIONS))
def test_every_subcommand_has_help(name, capsys):
    for argv in ([name, "--help"], ["--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "--bench-json" not in capsys.readouterr().out


def test_bench_subcommand_is_gone(capsys):
    assert "invalid choice: 'bench'" in _usage_error(["bench"], capsys)
    assert "unrecognized arguments" in _usage_error(["counter", "--smoke"], capsys)


@pytest.mark.parametrize("bad", ["3", "9@0.5", "1@abc", "1@1.5", "x@0.5", "1@2@3"])
@pytest.mark.parametrize(
    "sub,flag",
    [(sub, flag) for sub in sorted(OPTIONS) for flag in ("--crash", "--crash2")
     if flag in OPTIONS[sub]],
)
def test_malformed_crash_spec_is_diagnosed(sub, flag, bad, capsys):
    """One parser for PID@FRAC: every subcommand that has the flag names
    it, the bad value and the expected form, and exits 2 — no traceback."""
    argv = [sub, "counter", "--procs", "4", flag, bad]
    if sub == "run":
        argv.append("--ft")
    if flag == "--crash2":
        argv += ["--crash", "1@0.5"]
    line = _usage_error(argv, capsys)
    assert f"argument {flag}" in line
    assert repr(bad) in line
    assert "PID@FRAC" in line


def test_crash_requires_ft(capsys):
    for argv in (
        ["counter", "--crash", "3@0.4"],
        ["observe", "counter", "--no-ft", "--crash", "1@0.5"],
        ["trace", "counter", "--no-ft", "--crash", "2@0.5"],
    ):
        assert "--crash requires fault tolerance" in _usage_error(argv, capsys)


def test_replicated_crashsweep_with_two_faults_needs_three_nodes(capsys):
    """Two overlapping crashes of a 2-node cluster leave no replica
    holder, so every replicated overlap point would degrade."""
    line = _usage_error(["crashsweep", "counter", "--procs", "2", "--faults", "2"],
                        capsys)
    assert "--faults 2 with replication needs --procs 3" in line


def test_crash2_requires_crash(capsys):
    for sub in ("observe", "trace"):
        line = _usage_error([sub, "counter", "--crash2", "1@0.5"], capsys)
        assert "--crash2 requires --crash" in line


def test_coordinated_flag(capsys):
    assert main(["counter", "--ft", "--coordinated", "--l", "0.05"]) == 0
    assert "checkpoints" in capsys.readouterr().out


def test_wan_flag(capsys):
    assert main(["counter", "--wan", "0.001", "--steps", "2"]) == 0


def test_trace_flag(capsys):
    assert main(["counter", "--ft", "--trace", "lock", "--trace-limit", "4"]) == 0
    out = capsys.readouterr().out
    assert "trace:" in out
    assert "acquired L0" in out


def test_parser_rejects_unknown_app():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["not-an-app"])


def test_trace_help_is_derived_from_text():
    """The --trace help text lists exactly the categories of
    ``sim.trace.TEXT``: it is generated from them, so it cannot omit one
    that can be printed (llt and cgc included)."""
    help_text = build_parser().format_help()
    assert "llt" in TRACE_CATEGORIES and "cgc" in TRACE_CATEGORIES
    assert TRACE_CATEGORIES in help_text.replace("\n", "").replace(" ", "")


def test_trace_flag_rejects_unknown_kind(capsys):
    line = _usage_error(["counter", "--ft", "--trace", "bogus"], capsys)
    assert line.endswith(f"must be comma-separated names from {TRACE_CATEGORIES}")


def test_crashsweep_subcommand(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    rc = main([
        "crashsweep", "counter",
        "--procs", "4", "--steps", "1", "--size", "128",
        "--every", "100", "--classes", "every,ckpt_write",
        "--out", str(out_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "SWEEP OK" in out
    import json

    payload = json.loads(out_path.read_text())
    assert payload["app"] == "counter"
    assert payload["ok"] is True
    assert payload["outcomes"].get("failed", 0) == 0
    assert payload["points"]


def test_observe_subcommand(tmp_path, capsys):
    out_path = tmp_path / "observe.jsonl"
    rc = main([
        "observe", "counter",
        "--procs", "4", "--steps", "4",
        "--out", str(out_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "repro observe — counter on 4 simulated nodes" in out
    assert f"written to {out_path}" in out

    from repro.observe.report import load_jsonl, validate_report

    report = load_jsonl(str(out_path))
    assert validate_report(report) == []
    assert report["header"]["ft"] is True


def test_observe_subcommand_no_ft(tmp_path, capsys):
    out_path = tmp_path / "observe_base.jsonl"
    rc = main([
        "observe", "counter",
        "--procs", "4", "--steps", "2", "--no-ft",
        "--out", str(out_path),
    ])
    assert rc == 0
    from repro.observe.report import load_jsonl, validate_report

    report = load_jsonl(str(out_path))
    assert validate_report(report) == []
    # base runs carry no FT series at all
    assert all(not r["metric"].startswith("ft.") for r in report["series"])


def test_trace_subcommand(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    report_path = tmp_path / "critpath.txt"
    rc = main([
        "trace", "counter",
        "--procs", "4", "--steps", "2",
        "--out", str(out_path), "--report", str(report_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "critical path:" in out
    assert "per-cause totals" in out
    assert f"trace written to {out_path}" in out

    import json

    trace = json.loads(out_path.read_text())
    events = trace["traceEvents"]
    assert events
    assert any(ev["ph"] == "s" for ev in events)  # flow edges present
    assert all(ev["args"]["status"] != "open"
               for ev in events if ev["ph"] == "X")
    assert report_path.read_text().startswith("critical path:")


def test_trace_subcommand_with_crash(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    rc = main([
        "trace", "counter",
        "--procs", "4", "--crash", "2@0.5",
        "--out", str(out_path),
        "--report", str(tmp_path / "critpath.txt"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1 crash(es), 1 recover(ies)" in out
    assert "down (detection)" in out
    assert "recovery" in out

    import json

    events = json.loads(out_path.read_text())["traceEvents"]
    abandoned = [ev for ev in events
                 if ev["ph"] == "X" and ev["args"]["status"] == "abandoned"]
    assert abandoned and all(ev["pid"] == 2 for ev in abandoned)


def _check_table(out: str) -> str:
    """The check/violation table of ``repro monitor`` output."""
    return out[out.index("invariant "):].strip()


def test_monitor_subcommand(capsys):
    rc = main(["monitor", "counter", "--procs", "4", "--steps", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "counter on 4 simulated nodes" in out
    # which structures a scan visits may change; what is counted as a
    # check, and how often, may not (re-recorded when exact grant stamps
    # dropped the AcqAcks: 28 fewer messages, so fewer deliveries)
    assert _check_table(out) == """\
invariant        checks   violations
cgc                  15            0
llt                  15            0
vclock              455            0
fifo                227            0
recoverability       23            0
lock                 22            0
total               757   ALL INVARIANTS HELD"""


def test_monitor_subcommand_with_crash(capsys):
    rc = main([
        "monitor", "counter",
        "--procs", "4", "--steps", "4", "--crash", "1@0.5",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1 crash(es)" in out
    assert _check_table(out) == """\
invariant        checks   violations
cgc                  15            0
llt                  15            0
vclock              499            0
fifo                249            0
recoverability       26            0
lock                 20            0
total               824   ALL INVARIANTS HELD"""


#: first violation of each seeded sabotage: (pid, engine step, detail).
#: Detection may not move to a later scan when scans get cheaper. The
#: recoverability seed is found by the cadenced scan, at the first
#: ``SCAN_EVERY``-th delivery after the sabotage; the rest are
#: event-triggered. Steps re-recorded when exact grant stamps dropped
#: the AcqAcks (fewer events run before each; the details are the same).
SEEDED_FIRST = {
    "cgc": (
        0, 362,
        "page (0, 0): 2 retained copies <= Tmin (6, 7, 7, 7) (and "
        "buddy-acked) after CGC — only the maximal starting copy may "
        "remain at or below Tmin (Rule 3.1)",
    ),
    "llt": (
        1, 345,
        "rel_log[2] retains entries with acq_t[2] <= T̂ckp_2[2]=4 after "
        "LLT (Rule 2 trim missed)",
    ),
    "vclock": (1, 89, "vector time regressed: (2, 3, 0, 0) -> (0, 0, 0, 0)"),
    "fifo": (
        0, 35,
        "channel p1->p0 reordered: GrantInfo delivered ahead of 2 earlier "
        "unsent-or-undelivered message(s)",
    ),
    "recoverability": (
        0, 365,
        "page (0, 0) has no retained checkpoint copies — no recovery "
        "could obtain a starting copy",
    ),
    "lock": (
        1, 17,
        "lock 0: 2 tokens as p0's LockGrant reaches p1 (resting at [0], "
        "waking at [], 1 in flight)",
    ),
}


@pytest.mark.parametrize("kind", sorted(SEEDED_FIRST))
def test_monitor_subcommand_seeded_violation(kind, tmp_path, capsys):
    flight = tmp_path / "flight.json"
    rc = main([
        "monitor", "counter",
        "--procs", "4", "--steps", "4",
        "--seed-violation", kind, "--flight", str(flight),
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FLIGHT RECORD" in out
    assert f"flight record written to {flight}" in out

    import json

    from repro.observe import validate_flight_record

    dump = json.loads(flight.read_text())
    assert validate_flight_record(dump) == []
    assert all(v["invariant"] == kind for v in dump["violations"])
    first = dump["violations"][0]
    assert (first["pid"], first["step"], first["detail"]) == SEEDED_FIRST[kind]
    assert dump["step"] == first["step"]  # snapshotted when it was found


def test_crashsweep_rejects_bad_class(capsys):
    with pytest.raises(SystemExit):
        main(["crashsweep", "not-an-app"])
    line = _usage_error(["crashsweep", "counter", "--classes", "lock,bogus"],
                        capsys)
    assert line.endswith("bad value 'lock,bogus': must be comma-separated "
                         "names from every,lock,barrier,ckpt_write,recovery,"
                         "sequential,double")


@pytest.mark.parametrize("argv, flag, want", [
    (["crashsweep", "counter", "--every", "0"], "--every", ">= 1"),
    (["counter", "--procs", "0"], "--procs", ">= 1"),
    (["crashsweep", "counter", "--procs", "0"], "--procs", ">= 1"),
    (["monitor", "counter", "--procs", "0"], "--procs", ">= 1"),
    (["observe", "counter", "--procs", "0"], "--procs", ">= 1"),
    (["counter", "--steps", "-1"], "--steps", ">= 1"),
    (["counter", "--size", "0"], "--size", ">= 1"),
    (["observe", "counter", "--window", "0"], "--window", "> 0"),
    (["observe", "counter", "--interval", "-1"], "--interval", ">= 0"),
    (["counter", "--ft", "--l", "-1"], "--l", "> 0"),
    (["crashsweep", "counter", "--l", "0"], "--l", "> 0"),
    (["counter", "--l", "nan"], "--l", "> 0"),
    (["session", "--rate", "-5"], "--rate", "> 0"),
    (["counter", "--trace-limit", "-5"], "--trace-limit", ">= 0"),
    (["counter", "--trace", "lock,"], "--trace",
     "comma-separated names from " + TRACE_CATEGORIES),
    (["crashsweep", "counter", "--classes", "lock,"], "--classes",
     "comma-separated names from every,lock,barrier,ckpt_write,recovery,"
     "sequential,double"),
    # sizes the app's config rejects, not a traceback from inside the run
    (["session", "--size", "4", "--procs", "2"], "--size", "a size session "
     "accepts (n_stripes must be in [1, n_keys]: 8)"),
    (["kvstore", "--size", "4"], "--size",
     "a size kvstore accepts (n_stripes must be in [1, n_keys]: 8)"),
    (["lu", "--size", "3"], "--size",
     "a size lu accepts (matrix_size must be a multiple of block_size 8: 3)"),
])
def test_out_of_range_input_is_a_usage_error(argv, flag, want, capsys):
    """Out-of-range numbers and unknown names end in a one-line argparse
    diagnosis (exit 2), not a traceback from deep inside the run."""
    value = argv[argv.index(flag) + 1]
    assert _usage_error(argv, capsys) == (
        f"{build_parser(argv[0] if argv[0] in COMMANDS else 'run').prog}: "
        f"error: argument {flag}: bad value {value!r}: must be {want}"
    )


# ---------------------------------------------------------------------------
# open-loop serving workload + SLO gate
# ---------------------------------------------------------------------------
def test_session_app_run(capsys):
    assert main(["session", "--procs", "4", "--steps", "2",
                 "--rate", "5000"]) == 0
    out = capsys.readouterr().out
    assert "session on 4 simulated nodes" in out


def test_observe_session_windowed_slo_pass(tmp_path, capsys):
    """The serving run emits windowed series (request + queueing delay),
    renders the timeline and the burn-rate table, and a met SLO exits 0."""
    out_path = tmp_path / "session.jsonl"
    rc = main([
        "observe", "session", "--procs", "4", "--steps", "2",
        "--rate", "5000", "--slo", "p99(lat.request)<50ms",
        "--out", str(out_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "degradation timeline" in out
    assert "SLO burn-rate evaluation" in out

    from repro.observe.report import load_jsonl, validate_report

    report = load_jsonl(str(out_path))
    assert validate_report(report) == []
    assert report["header"]["window_s"] == pytest.approx(1e-3)
    wmetrics = {r["metric"] for r in report["wlats"]}
    assert {"lat.request", "lat.queue"} <= wmetrics
    assert report["slos"] and report["slos"][0]["ok"] is True


def test_observe_session_slo_violation_gates_nonzero(tmp_path, capsys):
    rc = main([
        "observe", "session", "--procs", "4", "--steps", "2",
        "--rate", "5000", "--slo", "p99(lat.request)<1us",
        "--out", str(tmp_path / "bad.jsonl"),
    ])
    assert rc == 1
    assert "SLO GATE" in capsys.readouterr().err


def test_observe_slo_requires_windowing(capsys):
    # an SLO is judged over windows, and a run without them is refused
    # before it starts
    line = _usage_error(["observe", "session", "--window", "0",
                         "--slo", "p99(lat.request)<5ms"], capsys)
    assert line.endswith("argument --window: bad value '0': must be > 0")


def test_observe_rejects_bad_slo_spec(capsys):
    rc = main(["observe", "session", "--slo", "p99[lat]<5ms"])
    assert rc == 2
    assert "bad --slo" in capsys.readouterr().err


def test_observe_session_crash_carries_recovery_records(tmp_path, capsys):
    out_path = tmp_path / "crash.jsonl"
    rc = main([
        "observe", "session", "--procs", "4", "--steps", "6",
        "--rate", "2500", "--crash", "1@0.2",
        "--out", str(out_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "crash: p1 down" in out

    from repro.observe.report import load_jsonl

    report = load_jsonl(str(out_path))
    assert report["recoveries"] and report["recoveries"][0]["pid"] == 1


def test_crashsweep_session_subcommand(tmp_path, capsys):
    # a 22-point campaign: the CLI plumbing is what is under test here; the
    # lock class and full-size sweeps run in tests/integration/test_crashsweep.py
    # and are recorded in benchmarks/SWEEP_session.json
    out_path = tmp_path / "sweep_session.json"
    rc = main([
        "crashsweep", "session",
        "--procs", "4", "--rate", "5000", "--steps", "2",
        "--every", "60", "--classes", "barrier,recovery",
        "--out", str(out_path),
    ])
    assert rc == 0
    assert "SWEEP OK" in capsys.readouterr().out
    import json

    payload = json.loads(out_path.read_text())
    assert payload["app"] == "session"
    assert payload["ok"] is True


def test_crashsweep_seed_reaches_the_app(tmp_path, capsys):
    """``--seed`` is the app config's seed: 42 is the default's reference
    run, another seed another one, and only a given seed is recorded (a
    committed record without one regenerates byte for byte)."""
    import json

    def sweep(*seed):
        out_path = tmp_path / f"sweep{''.join(seed)}.json"
        assert main([
            "crashsweep", "session", "--procs", "4", "--steps", "1",
            "--every", "60", "--classes", "barrier",
            "--out", str(out_path), *seed,
        ]) == 0
        return json.loads(out_path.read_text())

    default, s42, s3 = sweep(), sweep("--seed", "42"), sweep("--seed", "3")
    assert "seed" not in default
    assert (s42["seed"], s3["seed"]) == (42, 3)
    assert s42["reference"] == default["reference"]
    assert s3["reference"] != default["reference"]
    assert capsys.readouterr().out.count("SWEEP OK") == 3


def test_observe_overlapping_failures_exit_with_clean_error(tmp_path, capsys):
    """A crash schedule beyond the single-fault model (second fail-stop
    inside the first's recovery window, no replication) must exit
    nonzero with a diagnosis, not a traceback."""
    rc = main([
        "observe", "session", "--procs", "4", "--steps", "6",
        "--rate", "2500", "--crash", "1@0.2", "--crash2", "2@0.6",
        "--out", str(tmp_path / "overlap.jsonl"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "overlapping failures" in err
    assert "pair --crash2 with --replicate" in err
