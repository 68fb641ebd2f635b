"""Unit tests for the cross-artifact analytics aggregator and the
``repro report`` dashboard (sniffing, validation, malformed-artifact exit
discipline, HTML output, one schema per artifact kind).
"""

import json

import pytest

from repro.__main__ import main
from repro.faultinject import SWEEP_SCHEMA, load_sweep, recovery_distributions
from repro.observe import ClusterObserver, build_report, write_jsonl
from repro.observe.analytics import (
    build_dashboard,
    discover_artifacts,
    load_artifact,
    render_dashboard,
    render_html,
    sniff_kind,
)

from tests.conftest import make_app, make_cluster

def observe_artifact(tmp_path, name="OBSERVE_counter.jsonl"):
    cluster = make_cluster(num_procs=4, ft=True)
    obs = ClusterObserver(cluster, interval=1e-3)
    result = cluster.run(make_app("counter"))
    obs.sample()
    report = build_report(
        obs.registry, {"app": "counter", "ft": True}, result=result
    )
    path = tmp_path / name
    write_jsonl(str(path), report)
    return path


# ---------------------------------------------------------------------------
# sniffing and discovery
# ---------------------------------------------------------------------------
def test_sniff_kind_by_prefix_and_content():
    assert sniff_kind("benchmarks/OBSERVE_lu.jsonl") == "observe"
    assert sniff_kind("x/TRACE_counter.json") == "trace"
    assert sniff_kind("SWEEP_counter_k2.json") == "sweep"
    assert sniff_kind("FLIGHT_counter.json") == "flight"
    # renamed files fall back to content shape
    assert sniff_kind("weird.json", {"traceEvents": []}) == "trace"
    assert sniff_kind("weird.json", {"points": [], "outcomes": {}}) == "sweep"
    assert sniff_kind("weird.json", {"violations": [], "checks": {}}) == "flight"
    assert sniff_kind("weird.json", {"other": 1}) == "unknown"


def test_discover_walks_directories_and_keeps_explicit_files(tmp_path):
    (tmp_path / "SWEEP_x.json").write_text("{}")
    sub = tmp_path / "results"
    sub.mkdir()
    (sub / "TRACE_app.json").write_text('{"traceEvents": []}')
    (tmp_path / "notes.txt").write_text("ignored")
    (tmp_path / "test_foo.py").write_text("ignored")
    found = discover_artifacts([str(tmp_path)])
    names = [p.rsplit("/", 1)[-1] for p in found]
    assert names == ["TRACE_app.json", "SWEEP_x.json"]  # kind-major order
    # naming a file explicitly always includes it
    extra = tmp_path / "mystery.json"
    extra.write_text("{}")
    assert str(extra) in discover_artifacts([str(extra)])


# ---------------------------------------------------------------------------
# one schema per artifact kind: committed fixtures are at it, others rejected
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "name",
    ["counter", "counter_k2", "kvstore", "session", "session_k2", "kvstore_k2"],
)
def test_committed_sweeps_are_current_schema(name):
    path = f"benchmarks/SWEEP_{name}.json"
    data = load_sweep(path)
    assert data["schema"] == SWEEP_SCHEMA
    assert data["ok"] is True
    assert data["recovery_by_class"]
    art = load_artifact(path)
    assert art.kind == "sweep" and art.ok


def test_load_sweep_rejects_other_schemas():
    data = load_sweep("benchmarks/SWEEP_counter.json")
    del data["schema"]  # what PR 4 wrote
    with pytest.raises(
        ValueError, match="unsupported sweep schema 1: re-record with `repro"
    ):
        load_sweep(data)
    data["schema"] = 99
    with pytest.raises(ValueError, match="unsupported sweep schema 99"):
        load_sweep(data)


def test_report_cli_names_the_unsupported_schema(tmp_path, capsys):
    data = load_sweep("benchmarks/SWEEP_counter.json")
    data["schema"] = 1
    (tmp_path / "SWEEP_old.json").write_text(json.dumps(data))
    assert main(["report", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "unsupported sweep schema 1: re-record with `repro crashsweep`" in out

    # a run report written before the wait histograms were dropped (its
    # header at schema 3, a ``hist`` line after the series) is MALFORMED,
    # with a diagnosis and no traceback
    path = observe_artifact(tmp_path)
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
    good = load_sweep("benchmarks/SWEEP_counter.json")
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
        "ok_string": broken(lambda d: d.update(ok="yes")),
        "json_list": [good],
        "json_null": None,
    }


@pytest.mark.parametrize("name", sorted(_broken_sweeps()))
def test_malformed_sweep_is_reported_not_raised(name, tmp_path, capsys):
    """Any JSON value gives a list of problems, never an exception; the
    report names the file MALFORMED and exits nonzero."""
    from repro.faultinject import validate_sweep

    data = _broken_sweeps()[name]
    assert validate_sweep(data)
    path = tmp_path / "SWEEP_broken.json"
    path.write_text(json.dumps(data))
    assert main(["report", str(path)]) == 1
    captured = capsys.readouterr()
    assert "MALFORMED" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_committed_sweeps_validate_clean():
    from repro.faultinject import validate_sweep

    for name in ("counter", "counter_k2", "kvstore", "session",
                 "session_k2", "kvstore_k2"):
        with open(f"benchmarks/SWEEP_{name}.json") as fh:
            assert validate_sweep(json.load(fh)) == [], name


def test_committed_trace_artifact_loads():
    art = load_artifact("benchmarks/results/TRACE_counter.json")
    assert art.kind == "trace" and art.ok, art.errors


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
# dashboard + exit discipline
# ---------------------------------------------------------------------------
def test_dashboard_green_path(tmp_path):
    observe_artifact(tmp_path)
    arts = [load_artifact(p) for p in discover_artifacts([str(tmp_path)])]
    dash = build_dashboard(arts)
    assert dash["ok"]
    text = render_dashboard(dash)
    assert "REPORT OK" in text
    assert "tail latency by op class" in text
    assert "lat.fetch" in text


def test_dashboard_flags_malformed_artifact(tmp_path):
    bad = tmp_path / "SWEEP_bad.json"
    bad.write_text('{"not": "a sweep"}')
    dash = build_dashboard([load_artifact(str(bad))])
    assert not dash["ok"]
    assert "MALFORMED" in render_dashboard(dash)


_FLIGHT = {
    "reason": "violations", "time": 0.01, "step": 7, "violations": [],
    "checks": {}, "nodes": [], "cluster": {}, "events": [],
}


def test_dashboard_flags_flight_record(tmp_path):
    p = tmp_path / "FLIGHT_counter.json"
    p.write_text(json.dumps(_FLIGHT))
    dash = build_dashboard([load_artifact(str(p))])
    # a flight record only exists because an invariant tripped
    assert not dash["ok"]
    assert "flight record" in render_dashboard(dash)


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


def test_html_rendering_escapes_and_banners(tmp_path):
    observe_artifact(tmp_path)
    arts = [load_artifact(p) for p in discover_artifacts([str(tmp_path)])]
    html = render_html(build_dashboard(arts))
    assert html.startswith("<!DOCTYPE html>")
    assert "dashboard — ok" in html
    assert "<pre>" in html


def test_report_cli_exit_codes(tmp_path, capsys):
    observe_artifact(tmp_path)
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
