"""Unit tests for ``repro report``: one row per artifact kind (the file
prefix and content key that mark it, the writing module's reader,
validator and renderer), sniffing and discovery, malformed-artifact exit
discipline, HTML output, one schema per artifact kind, and the promise
that the report shows each artifact as its own command printed it.
"""

import contextlib
import glob
import io
import json
import re
import shutil

import pytest

from repro.__main__ import discover, main, read_artifact, sniff
from repro.faultinject.campaign import (
    SWEEP_SCHEMA,
    recovery_distributions,
    render_sweep,
    validate_sweep,
)
from repro.observe import render_flight_record


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    """One ``repro observe`` run of a 4-node FT counter: its JSONL file
    and the text the command printed for it."""
    path = tmp_path_factory.mktemp("observe") / "OBSERVE_counter.jsonl"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["observe", "counter", "--procs", "4", "--steps", "4",
                     "--out", str(path)]) == 0
    printed = out.getvalue()
    return path, printed[: printed.index("\n\nwritten to")]


def observe_artifact(observed, tmp_path, name="OBSERVE_counter.jsonl"):
    path = tmp_path / name
    shutil.copy(observed[0], path)
    return path


def load(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# sniffing and discovery
# ---------------------------------------------------------------------------
def test_sniff_kind_by_prefix_and_content():
    def kind(path, data=None):
        found = sniff(path, data)
        return found.name if found else None

    assert kind("benchmarks/OBSERVE_lu.jsonl") == "observe"
    assert kind("x/TRACE_counter.json") == "trace"
    assert kind("SWEEP_counter_k2.json") == "sweep"
    assert kind("FLIGHT_counter.json") == "flight"
    # renamed files fall back to content shape, one key per kind
    assert kind("weird.jsonl", {"record": "header"}) == "observe"
    assert kind("weird.json", {"traceEvents": []}) == "trace"
    assert kind("weird.json", {"points": [], "outcomes": {}}) == "sweep"
    assert kind("weird.json", {"violations": [], "checks": {}}) == "flight"
    assert kind("weird.json", {"other": 1}) is None


def test_discover_walks_directories_and_keeps_explicit_files(tmp_path):
    (tmp_path / "SWEEP_x.json").write_text("{}")
    sub = tmp_path / "results"
    sub.mkdir()
    (sub / "TRACE_app.json").write_text('{"traceEvents": []}')
    (tmp_path / "notes.txt").write_text("ignored")
    (tmp_path / "test_foo.py").write_text("ignored")
    found = discover([str(tmp_path)])
    names = [p.rsplit("/", 1)[-1] for p in found]
    assert names == ["TRACE_app.json", "SWEEP_x.json"]  # kind-major order
    # naming a file explicitly always includes it
    extra = tmp_path / "mystery.json"
    extra.write_text("{}")
    assert str(extra) in discover([str(extra)])


# ---------------------------------------------------------------------------
# one schema per artifact kind: committed fixtures are at it, others rejected
# ---------------------------------------------------------------------------
COMMITTED_SWEEPS = sorted(glob.glob("benchmarks/SWEEP_*.json"))


@pytest.mark.parametrize(
    "name",
    ["counter", "counter_k2", "kvstore", "session", "session_k2", "kvstore_k2"],
)
def test_committed_sweeps_are_current_schema(name):
    kind, data, errors, _text = read_artifact(f"benchmarks/SWEEP_{name}.json")
    assert (kind, errors) == ("sweep", [])
    assert data["schema"] == SWEEP_SCHEMA
    assert data["ok"] is True
    assert data["recovery_by_class"]


def test_committed_sweeps_validate_clean():
    for name in ("counter", "counter_k2", "kvstore", "session",
                 "session_k2", "kvstore_k2"):
        assert validate_sweep(load(f"benchmarks/SWEEP_{name}.json")) == [], name


def test_committed_trace_artifact_loads():
    kind, _data, errors, _text = read_artifact(
        "benchmarks/results/TRACE_counter.json"
    )
    assert (kind, errors) == ("trace", []), errors


def test_report_shows_the_committed_artifacts():
    """The six committed sweeps and the committed span trace validate
    clean (``report`` exits 0), and each sweep shows as ``repro
    crashsweep`` printed it, per-class recovery table included."""
    assert len(COMMITTED_SWEEPS) == 6
    trace = "benchmarks/results/TRACE_counter.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["report", trace, *COMMITTED_SWEEPS]) == 0
    text = out.getvalue()
    for path in [trace, *COMMITTED_SWEEPS]:
        assert re.search(rf"\| {re.escape(path)} +\| ok", text), path
    for path in COMMITTED_SWEEPS:
        block = render_sweep(load(path))
        assert "recovery time by crash class" in block
        assert f"{path}\n{'-' * len(path)}\n{block}\n" in text
    assert "span trace: 4 nodes, " in text


def test_load_sweep_rejects_other_schemas(tmp_path):
    """The report's sweep row reads a sweep at the current schema or
    names the command that re-records it; it converts nothing."""
    data = load("benchmarks/SWEEP_counter.json")
    path = tmp_path / "SWEEP_old.json"
    del data["schema"]  # what PR 4 wrote
    path.write_text(json.dumps(data))
    assert read_artifact(str(path))[2] == [
        "unsupported sweep schema 1: re-record with `repro crashsweep`"
    ]
    data["schema"] = 99
    path.write_text(json.dumps(data))
    assert read_artifact(str(path))[2][0].startswith(
        "unsupported sweep schema 99"
    )


def test_report_cli_names_the_unsupported_schema(observed, tmp_path, capsys):
    data = load("benchmarks/SWEEP_counter.json")
    data["schema"] = 1
    (tmp_path / "SWEEP_old.json").write_text(json.dumps(data))
    assert main(["report", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "unsupported sweep schema 1: re-record with `repro crashsweep`" in out

    # a run report written before the wait histograms were dropped (its
    # header at schema 3, a ``hist`` line after the series) is MALFORMED,
    # with a diagnosis and no traceback
    path = observe_artifact(observed, tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["schema"] = 3
    lines[0] = json.dumps(header, sort_keys=True) + "\n"
    lines.insert(1, '{"count": 3, "max": 0.001, "mean": 0.0005, '
                    '"metric": "dsm.barrier_wait_s", "min": 0.0001, '
                    '"node": 0, "record": "hist", "total": 0.0015}\n')
    path.write_text("".join(lines))
    assert main(["report", str(path)]) == 1
    captured = capsys.readouterr()
    assert "MALFORMED" in captured.out
    assert "unsupported run-report schema 3: re-record" in captured.out
    assert "Traceback" not in captured.out + captured.err


def _broken_sweeps():
    """name -> a committed sweep broken in one way the report reads."""
    good = load("benchmarks/SWEEP_counter.json")
    cls = next(iter(good["recovery_by_class"]))

    def broken(edit):
        data = json.loads(json.dumps(good))
        edit(data)
        return data

    return {
        "outcomes_list": broken(lambda d: d.update(outcomes=[])),
        "row_only_count": broken(
            lambda d: d["recovery_by_class"].update({cls: {"count": 3}})
        ),
        "row_not_object": broken(
            lambda d: d["recovery_by_class"].update({cls: 7})
        ),
        "by_class_list": broken(lambda d: d.update(recovery_by_class=[])),
        "phase_means_text": broken(
            lambda d: d["recovery_by_class"][cls].update(phase_means_s="x")
        ),
        "point_lacks_fields": broken(lambda d: d["points"].append({})),
        "point_class_list": broken(lambda d: d["points"][0].update({"class": []})),
        "classes_hold_object": broken(lambda d: d["classes"].append({})),
        "notes_text": broken(lambda d: d.update(notes="x")),
        "ok_string": broken(lambda d: d.update(ok="yes")),
        "json_list": [good],
        "json_null": None,
    }


@pytest.mark.parametrize("name", sorted(_broken_sweeps()))
def test_malformed_sweep_is_reported_not_raised(name, tmp_path, capsys):
    """Any JSON value gives a list of problems, never an exception; the
    report names the file MALFORMED and exits nonzero."""
    data = _broken_sweeps()[name]
    assert validate_sweep(data)
    path = tmp_path / "SWEEP_broken.json"
    path.write_text(json.dumps(data))
    assert main(["report", str(path)]) == 1
    captured = capsys.readouterr()
    assert "MALFORMED" in captured.out
    assert "Traceback" not in captured.out + captured.err


# ---------------------------------------------------------------------------
# recovery distributions
# ---------------------------------------------------------------------------
def test_recovery_distributions_exact_percentiles():
    recs = [
        ("lock", {"total": t, "detect": 0.05, "restore": 0.01,
                  "handshake": 0.001, "replay": t - 0.061, "resume": 0.0})
        for t in (0.1, 0.2, 0.3, 0.4)
    ]
    out = recovery_distributions(recs)
    d = out["lock"]
    assert d["count"] == 4
    assert d["p50_total_s"] == 0.2  # rank ceil(0.5*4)=2
    assert d["p90_total_s"] == 0.4
    assert d["max_total_s"] == 0.4
    assert d["phase_means_s"]["detect"] == pytest.approx(0.05)
    assert d["mean_total_s"] == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# one renderer per artifact
# ---------------------------------------------------------------------------
def test_report_prints_each_artifact_as_its_command_did(
    observed, tmp_path, capsys
):
    """A run report and a flight record show in ``repro report`` exactly
    as ``repro observe`` and ``repro monitor`` printed them."""
    observe_artifact(observed, tmp_path)
    flight = tmp_path / "FLIGHT_counter.json"
    assert main(["monitor", "counter", "--procs", "4", "--seed-violation",
                 "llt", "--flight", str(flight)]) == 1
    printed = capsys.readouterr().out
    record = printed[printed.index("FLIGHT RECORD — "):
                     printed.index("\n\nflight record written to")]
    assert record == render_flight_record(load(flight))

    assert main(["report", str(tmp_path)]) == 1  # a flight record fails it
    out = capsys.readouterr().out
    assert observed[1] in out
    assert record in out


def test_crashsweep_prints_its_sweep_with_render_sweep(tmp_path, capsys):
    path = tmp_path / "SWEEP_counter.json"
    assert main(["crashsweep", "counter", "--procs", "4", "--steps", "2",
                 "--size", "256", "--every", "40", "--out", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("crash sweep   counter on 4 simulated nodes")
    block = "\n".join(lines[1:lines.index(f"written to {path}")])
    assert block == render_sweep(load(path))
    # a sweep's notes print last in its block
    noted = render_sweep(dict(load(path), notes=["window too narrow"]))
    assert noted == f"{block}\nnote: window too narrow"
    assert main(["report", str(path)]) == 0
    assert block in capsys.readouterr().out


# ---------------------------------------------------------------------------
# dashboard + exit discipline
# ---------------------------------------------------------------------------
def test_dashboard_green_path(observed, tmp_path, capsys):
    observe_artifact(observed, tmp_path)
    assert main(["report", str(tmp_path)]) == 0
    text = capsys.readouterr().out
    assert "REPORT OK" in text
    assert "latency percentiles (virtual time)" in text
    assert "lat.fetch" in text


def test_dashboard_flags_malformed_artifact(tmp_path, capsys):
    bad = tmp_path / "SWEEP_bad.json"
    bad.write_text('{"not": "a sweep"}')
    assert read_artifact(str(bad))[2] == [
        "not a sweep artifact: missing 'points'"
    ]
    assert main(["report", str(bad)]) == 1
    assert "MALFORMED" in capsys.readouterr().out


_FLIGHT = {
    "reason": "violations", "time": 0.01, "step": 7, "violations": [],
    "checks": {}, "nodes": [], "cluster": {}, "events": [],
}


def test_dashboard_flags_flight_record(tmp_path, capsys):
    p = tmp_path / "FLIGHT_counter.json"
    p.write_text(json.dumps(_FLIGHT))
    # a flight record only exists because an invariant tripped
    assert main(["report", str(p)]) == 1
    out = capsys.readouterr().out
    assert f"flight record {p} present (violations)" in out
    assert render_flight_record(_FLIGHT) in out


@pytest.mark.parametrize("text", [
    "3",
    "[]",
    '"flight"',
    json.dumps(dict(_FLIGHT, violations=None)),
    json.dumps(dict(_FLIGHT, violations=[3])),
    json.dumps(dict(_FLIGHT, events={})),
    json.dumps(dict(_FLIGHT, events=[None])),
    json.dumps(dict(_FLIGHT, nodes="p0")),
    json.dumps(dict(_FLIGHT, nodes=[[0, True]])),
    json.dumps(dict(_FLIGHT, time="soon")),
])
def test_report_cli_diagnoses_malformed_flight_record(text, tmp_path, capsys):
    path = tmp_path / "FLIGHT_y.json"
    path.write_text(text)
    assert main(["report", str(path)]) == 1
    assert "MALFORMED" in capsys.readouterr().out


@pytest.mark.parametrize("record, error", [
    (dict(_FLIGHT, nodes=[{"pid": 0, "live": True}]),
     "node 0 missing ['recovering', 'finished']"),
    (dict(_FLIGHT, events=[{"rec": "probe", "time": 0.0, "step": 1}]),
     "event 0 (probe) missing ['pid', 'kind', 'detail']"),
    (dict(_FLIGHT, events=[{"rec": "engine", "time": 0.0, "step": 1}]),
     "event 0 (engine) missing ['event']"),
    (dict(_FLIGHT, events=[{"rec": "send", "time": 0.0, "step": 1, "src": 0}]),
     "event 0 (send) missing ['dst', 'msg', 'category']"),
    (dict(_FLIGHT, events=[{"rec": "engine", "time": 0.0, "step": 1.5,
                            "event": "x"}]),
     "event 0 time/step is not a number/an integer"),
])
def test_report_names_the_field_a_flight_record_lacks(
    record, error, tmp_path, capsys
):
    """A record the validator passes is one the renderer can print: a
    node or an event short of a field it reads is MALFORMED, naming the
    field, not an ``unparseable`` render failure."""
    path = tmp_path / "FLIGHT_z.json"
    path.write_text(json.dumps(record))
    assert main(["report", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"MALFORMED: {error}" in out
    assert "unparseable" not in out


def test_html_rendering_escapes_and_banners(observed, tmp_path):
    observe_artifact(observed, tmp_path)
    page = tmp_path / "dash.html"
    assert main(["report", str(tmp_path), "--html", str(page)]) == 0
    html = page.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "dashboard — ok" in html
    assert "<pre>" in html

    (tmp_path / "FLIGHT_x.json").write_text(
        json.dumps(dict(_FLIGHT, reason="<b> & co"))
    )
    assert main(["report", str(tmp_path), "--html", str(page)]) == 1
    html = page.read_text()
    assert "dashboard — failed" in html
    assert "&lt;b&gt; &amp; co" in html and "<b>" not in html


def test_report_cli_exit_codes(observed, tmp_path, capsys):
    observe_artifact(observed, tmp_path)
    html = tmp_path / "dash.html"
    assert main(["report", str(tmp_path), "--html", str(html)]) == 0
    assert html.read_text().startswith("<!DOCTYPE html>")
    out = capsys.readouterr().out
    assert "REPORT OK" in out and "artifact inventory" in out

    (tmp_path / "SWEEP_bad.json").write_text('{"not": "a sweep"}')
    assert main(["report", str(tmp_path)]) == 1
    # empty scan is an error, not silent success
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", str(empty)]) == 1
