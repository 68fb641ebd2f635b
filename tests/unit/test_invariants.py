"""Unit tests for the online invariant monitor and flight recorder.

The two halves of the monitor's contract:

* **No false positives** — a healthy run (failure-free or with a clean
  crash/recovery) reports zero violations while every invariant class
  actually gets exercised.
* **No false negatives** — for each of the five invariant classes, a
  seeded protocol sabotage (`repro.observe.invariants.seeding`) must be
  detected as exactly that class, and the resulting flight record must
  be structurally valid and renderable.
"""

import json

import pytest

from repro.observe import (
    INVARIANTS,
    FlightRecorder,
    InvariantMonitor,
    render_flight_record,
    seed_violation,
    validate_flight_record,
    write_flight_record,
)
from repro.sim.engine import Engine
from repro.sim.trace import RECOVERY_ANNOTATE
from tests.conftest import make_app, make_cluster


def run_monitored(kind=None, crash=None, num_procs=4, scan_every=1):
    """One counter run with the monitor attached; optionally seeded
    with a violation or a scheduled crash. Returns the monitor."""
    cluster = make_cluster(num_procs=num_procs, ft=True)
    monitor = InvariantMonitor(cluster, scan_every=scan_every)
    if kind is not None:
        seed_violation(cluster, kind)
    if crash is not None:
        cluster.schedule_crash_at_step(*crash)
    try:
        cluster.run(make_app("counter"))
    except Exception:
        # seeded sabotage may corrupt the run past the detection point;
        # that is acceptable only if the violation was recorded first
        if not monitor.violations:
            raise
    monitor.finish()
    return monitor


# ---------------------------------------------------------------------------
# clean runs: every class checked, nothing flagged
# ---------------------------------------------------------------------------
def test_clean_run_all_classes_checked_zero_violations():
    monitor = run_monitored()
    assert monitor.violations == []
    for kind in INVARIANTS:
        assert monitor.checks[kind] > 0, f"{kind} never checked"


def test_clean_crash_recovery_run_zero_violations():
    monitor = run_monitored(crash=(1, 250))
    assert monitor.violations == []
    # the crash must have produced a post-mortem dump even with no
    # violation — that is the flight recorder's whole point
    assert len(monitor.crash_dumps) == 1
    dump = monitor.crash_dumps[0]
    assert validate_flight_record(dump) == []
    assert "crash of p1" in dump["reason"]
    # the failure probe fires *before* the kill, so the dump captures
    # the victim's last pre-crash state (vt still populated)
    assert dump["nodes"][1]["vt"] is not None


def test_scan_every_throttles_structural_scan():
    every = run_monitored(scan_every=1)
    throttled = run_monitored(scan_every=25)
    assert 0 < throttled.checks["recoverability"] < every.checks["recoverability"]
    assert throttled.violations == []


# ---------------------------------------------------------------------------
# seeded violations: each class detected as itself
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", INVARIANTS)
def test_seeded_violation_detected(kind, tmp_path):
    monitor = run_monitored(kind=kind)
    assert monitor.violations, f"seeded {kind} violation went undetected"
    flagged = {v.invariant for v in monitor.violations}
    assert flagged == {kind}, (
        f"seeded {kind} flagged as {sorted(flagged)}"
    )
    # first violation snapshots a flight record; it must round-trip
    dump = monitor.violation_dump
    assert dump is not None
    assert validate_flight_record(dump) == []
    assert dump["violations"][0]["invariant"] == kind
    path = tmp_path / "flight.json"
    write_flight_record(str(path), dump)
    again = json.loads(path.read_text())
    assert validate_flight_record(again) == []
    text = render_flight_record(again)
    assert "FLIGHT RECORD" in text
    assert f"[{kind}]" in text


def test_unknown_seed_rejected():
    cluster = make_cluster(num_procs=2, ft=True)
    with pytest.raises(ValueError, match="unknown seed"):
        seed_violation(cluster, "nonsense")


def test_violations_deduplicated_and_capped():
    cluster = make_cluster(num_procs=4, ft=True)
    monitor = InvariantMonitor(cluster, max_violations=3)
    for _ in range(10):
        monitor._violate("cgc", 0, "same detail")
    assert len(monitor.violations) == 1  # deduplicated
    for i in range(10):
        monitor._violate("llt", 0, f"detail {i}")
    assert len(monitor.violations) == 3  # capped (1 cgc + 2 llt)
    assert monitor.dropped_violations == 8


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------
def test_flight_recorder_ring_is_bounded():
    engine = Engine()
    rec = FlightRecorder(ring_size=8)
    rec.attach(engine)
    for i in range(50):
        engine.bus.emit(RECOVERY_ANNOTATE, 0, "detail", i)
    assert rec.recorded == 50
    events = rec.dump()
    assert len(events) == 8
    assert events[0]["detail"] == "detail=42"  # oldest kept
    assert events[-1]["detail"] == "detail=49"
    assert {e["kind"] for e in events} == {"recovery"}


def test_flight_recorder_rejects_bad_ring():
    with pytest.raises(ValueError, match="ring_size"):
        FlightRecorder(ring_size=0)
    cluster = make_cluster(num_procs=2, ft=True)
    with pytest.raises(ValueError, match="scan_every"):
        InvariantMonitor(cluster, scan_every=0)


def test_flight_record_mixes_engine_probe_and_message_events():
    monitor = run_monitored()
    dump = monitor.flight_record("end of run")
    assert validate_flight_record(dump) == []
    kinds = {e["rec"] for e in dump["events"]}
    assert {"engine", "probe", "send", "deliver"} <= kinds
    # engine events carry a human-readable label, not a repr of a partial
    engine = [e for e in dump["events"] if e["rec"] == "engine"]
    assert any("(" in e["event"] for e in engine)


def test_validate_flight_record_flags_malformed():
    monitor = run_monitored()
    dump = monitor.flight_record("ok")
    assert validate_flight_record(dump) == []
    bad = dict(dump)
    del bad["nodes"]
    assert any("nodes" in e for e in validate_flight_record(bad))
    bad = dict(dump, events=[{"rec": "martian", "time": 0.0, "step": 1}])
    assert any("martian" in e for e in validate_flight_record(bad))
    bad = dict(dump, violations=[{"invariant": "cgc"}])
    assert validate_flight_record(bad)
