"""Seeded protocol bugs must be caught: the invariant monitor's end-to-end
detection check, one ``repro monitor`` process per invariant class.

    PYTHONPATH=src python -m pytest benchmarks/test_seeded_violations.py

Each run sabotages one class (``--seed-violation``: the run is inside the
``with`` block of that class's entry of
``repro.faultinject.mutants.MUTANTS``) and must exit nonzero, leaving
a flight record that validates and names only that class. A monitor
that stays silent on a seeded bug is broken. The records are written
under pytest's temporary directory: ``--basetemp DIR`` keeps them in
``DIR`` (CI uploads them from there).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.observe import INVARIANTS, validate_flight_record

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("kind", INVARIANTS)
def test_seeded_violation_is_detected_with_a_valid_flight_record(kind, tmp_path):
    flight = tmp_path / f"flight_{kind}.json"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "repro", "monitor", "counter",
         "--procs", "4", "--steps", "4",
         "--seed-violation", kind, "--flight", str(flight)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode != 0, f"seeded {kind} violation was NOT detected"
    dump = json.loads(flight.read_text())
    assert validate_flight_record(dump) == []
    assert dump["violations"]
    assert all(v["invariant"] == kind for v in dump["violations"])
