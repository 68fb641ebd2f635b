"""Checks on the ledger itself. Outside tier-1 ``testpaths``; run with

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py
"""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]


def _load(name: str):
    # by path: the directory's trace.py shares a name with a stdlib module
    spec = importlib.util.spec_from_file_location(f"ledger_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _metrics():
    return SPEC["end_to_end"] + SPEC["per_layer"]


def _layers():
    return {
        m["name"][: -len(".self_cal")]
        for m in SPEC["per_layer"]
        if m["name"].endswith(".self_cal")
    }


@pytest.fixture(scope="module")
def smoke_output() -> str:
    done = subprocess.run(
        RUN + ["--smoke"], stdout=subprocess.PIPE, text=True, timeout=170
    )
    assert done.returncode == 0, done.stdout[-2000:]
    return done.stdout


def _sections(output: str) -> dict:
    """Printed metric rows per workload: name -> (value, unit)."""
    sections: dict = {}
    rows = None
    for line in output.splitlines():
        head = re.match(r"^(\S+): seed \d+", line)
        if head:
            rows = sections.setdefault(head.group(1), {})
            continue
        row = re.match(r"^    (\S+)\s+(\S+) (\S+)", line)
        if row and rows is not None:
            rows[row.group(1)] = (float(row.group(2)), row.group(3))
    return sections


def test_names_are_plain():
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in _metrics()]
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert len(set(names)) == len(names)


def test_every_module_maps_to_a_declared_layer():
    layer_of = _load("trace").layer_of
    src = ROOT / "src" / "repro"
    layers = _layers()
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        assert layer_of(rel) in layers, f"{rel} -> {layer_of(rel)}"


def test_smoke_prints_every_metric_with_its_unit(smoke_output):
    sections = _sections(smoke_output)
    assert set(sections) == {w["name"] for w in SPEC["workloads"]}
    for workload, rows in sections.items():
        for m in _metrics():
            assert m["name"] in rows, f"{workload}: {m['name']} not printed"
            assert rows[m["name"]][1] == m["unit"], (workload, m["name"])


def test_layer_rows_sum_to_the_traced_total(smoke_output):
    for workload, rows in _sections(smoke_output).items():
        total = rows["bench.traced_cal"][0]
        summed = sum(v for n, (v, _u) in rows.items() if n.endswith(".self_cal"))
        assert abs(summed - total) <= 0.005 * total, (workload, summed, total)


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_run_ends_in_the_contract_line(trace, group):
    done = subprocess.run(
        RUN + ["--workload", "scale128", "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}
    units = {m["name"]: m["unit"] for m in SPEC[group]}
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(
            ROOT / rel, tmp_path / rel,
            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
        )
    done = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "paper8", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
