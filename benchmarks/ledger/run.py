"""Layered performance ledger: the repo's benchmark (see README.md).

    python3 benchmarks/ledger/run.py                 # all four workloads
    python3 benchmarks/ledger/run.py --workload scale128
    python3 benchmarks/ledger/run.py --smoke         # tiny sizes, < 20 s
    python3 benchmarks/ledger/run.py --selfcheck     # two sets, compared
    python3 benchmarks/ledger/run.py --workload paper8 --seed 7 \\
        --seconds 15 --trace 0                       # one driver run

Workloads run one after the other, each in a child process of its own
(``child.py``) with ``OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1
PYTHONHASHSEED=0``, pinned to one core. Every metric is printed by name
with its unit; any failed check makes the exit code nonzero. The metric
names, units and bounds are read from ``BENCHMARK.json``.

With ``--trace`` the last line printed is the one JSON object the
driver's contract asks for: the end-to-end metrics for ``--trace 0``,
the per-layer metrics for ``--trace 1``. Without it every workload runs
traced, both groups are printed, and the numbers are written to
``results/`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: a child that runs longer than this is killed (the contract's cap is 180)
CHILD_TIMEOUT_S = 170

#: Table 3 "% increase" of the paper, printed beside ours
PAPER_FT_OVERHEAD_PCT = {"barnes": 61.0, "water-nsq": 0.6, "water-spatial": 7.0}

#: end-to-end metrics that are simulated results: they repeat to the
#: last digit, so two sets must agree exactly
SIMULATED = ("virtual_s", "msg_mb", "ft_time_pct")


def run_child(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool
) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; return its record."""
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        ),
    )
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--spec", str(SPEC_PATH),
    ] + (["--smoke"] if smoke else [])
    print(f"== {workload} (seed {seed}, trace {trace})", file=sys.stderr)
    done = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def print_record(spec: Dict[str, Any], record: Dict[str, Any]) -> None:
    """Every metric of the record by name, with its unit."""
    metrics = record["metrics"]
    print(
        f"\n{record['workload']}: seed {record['seed']}, {record['reps']} "
        f"timed repetitions, {record['attempted']} checks, "
        f"{len(record['failures'])} failed\n"
        f"  simulated-result fingerprint {record['fingerprint']}"
    )
    for what in record["failures"]:
        print(f"  FAILED: {what}")
    traced_cal = metrics.get("bench.traced_cal", {}).get("value")
    for group in ("end_to_end", "per_layer"):
        rows = [m for m in spec[group] if m["name"] in metrics]
        if not rows:
            continue
        print(f"  {group.replace('_', ' ')}:")
        for m in rows:
            value = metrics[m["name"]]["value"]
            line = f"    {m['name']:<38} {value:>14.6g} {m['unit']:<10}"
            if "bound" in m:
                line += f" bound {m['bound']}"
            if m["name"].endswith(".self_cal") and traced_cal:
                line += f" {100.0 * value / traced_cal:5.1f} % of traced"
            app = m["name"].split(".")[1] if m["name"].startswith("harness.") else ""
            if app in PAPER_FT_OVERHEAD_PCT and group == "per_layer":
                line += f" (paper: {PAPER_FT_OVERHEAD_PCT[app]} %)"
            print(line.rstrip())
    if metrics.get("harness.barnes.ft_overhead_pct", {}).get("value"):
        print(
            "  note: the scaled model is unvalidated at the paper's problem "
            "sizes, so no error\n  figure is given against the paper's "
            "Table 3 values."
        )


def driver_result(
    spec: Dict[str, Any], record: Dict[str, Any], trace: int
) -> Dict[str, Any]:
    """The one JSON object of the driver's contract."""
    group = "per_layer" if trace else "end_to_end"
    failed = len(record["failures"])
    return {
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {m["name"]: record["metrics"][m["name"]] for m in spec[group]},
    }


def write_results(records: List[Dict[str, Any]]) -> None:
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    path = out / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    for record in records:
        trace = record.pop("trace")
        (out / f"trace_{record['workload']}.json").write_text(
            json.dumps(trace, indent=1) + "\n"
        )
        old = ledger.get(record["workload"], {})
        if old.get("seed") == record["seed"] and old.get("fingerprint") not in (
            None, record["fingerprint"],
        ):
            print(
                f"note: {record['workload']}'s simulated results differ from "
                f"the recorded run's (fingerprint was {old['fingerprint']})"
            )
        ledger[record["workload"]] = record
    path.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"\nwritten to {out}")


def selfcheck(spec: Dict[str, Any], names: List[str], args: Any) -> int:
    """Two full sets back to back; every end-to-end metric of the second
    must be within its bound of the first, the simulated ones identical."""
    sets = [
        {w: run_child(w, args.seed, args.seconds, 0, args.smoke) for w in names}
        for _ in range(2)
    ]
    bad = 0
    for w in names:
        a, b = sets[0][w], sets[1][w]
        bad += len(a["failures"]) + len(b["failures"])
        print(
            f"\n{w}: bench.rep_iqr_pct {a['rep_iqr_pct']:.2f} % then "
            f"{b['rep_iqr_pct']:.2f} %"
        )
        same = a["fingerprint"] == b["fingerprint"]
        print(f"  fingerprints {'equal' if same else 'DIFFER'}")
        bad += not same
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            if name in SIMULATED:
                ok = va == vb
                verdict = "identical" if ok else "NOT IDENTICAL"
            elif name == "host_cal" and (
                max(a["rep_iqr_pct"], b["rep_iqr_pct"]) > 100.0 * bound
            ):
                ok = False
                verdict = "UNRESOLVED: spread between repetitions exceeds the bound"
            else:
                ok = worse <= bound
                verdict = "within bound" if ok else "WORSE THAN BOUND"
            bad += not ok
            print(
                f"  {name:<16} {va:>12.6g} -> {vb:>12.6g} {m['unit']:<7} "
                f"{100.0 * worse:+6.2f} % (bound {100.0 * bound:g} %) {verdict}"
            )
    print("\nselfcheck " + ("FAILED" if bad else "passed"))
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", choices=names, help="run only this workload")
    p.add_argument("--seed", type=int, default=42,
                   help="written into every app config's seed field")
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                   help="timed repetitions repeat until this many seconds "
                   "have passed, and at least three times")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="one driver run: 0 prints the end-to-end metrics as "
                   "the last line, 1 the per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, one repetition")
    p.add_argument("--selfcheck", action="store_true",
                   help="run two sets and compare them")
    args = p.parse_args(argv)
    if args.workload:
        names = [args.workload]

    if args.selfcheck:
        return selfcheck(spec, names, args)
    if args.trace is not None:
        if not args.workload:
            p.error("--trace needs --workload")
        record = run_child(
            args.workload, args.seed, args.seconds, args.trace, args.smoke
        )
        print_record(spec, record)
        result = driver_result(spec, record, args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    records = [
        run_child(w, args.seed, args.seconds, 1, args.smoke) for w in names
    ]
    for record in records:
        print_record(spec, record)
    failed = sum(len(r["failures"]) for r in records)
    if not args.smoke:
        write_results(records)
    print(f"\n{failed} failed checks" if failed else "\nall checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
