"""The k=2 seed-axis probe: overlapping failures across app seeds.

    PYTHONPATH=src python -m pytest benchmarks/test_k2_seed_probe.py -s
    PYTHONPATH=src python benchmarks/test_k2_seed_probe.py [-v]

Twelve configurations, (app, nodes, replicate) for session, kvstore and
counter at 4 and 8 nodes, replication off and on. Each app seed is a
``Schedule`` (L = 0.1, no crash point) whose sweep over the ``recovery``
and ``double`` classes (no monitor) runs every enumerated point: 5,760
points, about 2.5 minutes on one core. The contract is the sweep's own
verdict, ``campaign.accepted``: with replication no point fails or
degrades; without it a point may also end ``degraded``, by an
``OverlappingFailureError`` that names one of its two victims. Anything
else fails the probe, and the per-configuration table (``-v``: and every
failing point) says where.

The 4-node k=2 sweeps at the CLI's default seed passed while 192 of
these points failed: the failures lived at other seeds and at 8 nodes
(DESIGN.md §9, "Overlap root causes"; EXPERIMENTS.md
"Overlapping failures across seeds" has the table before and after).
"""

import sys
import time
from collections import Counter
from typing import List, Tuple

from repro.faultinject import Schedule

#: app -> its seeds
SEEDS = {"session": range(12), "kvstore": range(6), "counter": range(6)}
CONFIGS = [
    (app, n, replicate)
    for app in SEEDS for n in (4, 8) for replicate in (False, True)
]

#: error substring -> symptom name, first match wins
SYMPTOMS = (
    ("deadlock", "deadlock"),
    ("tokens at end", "two-token"),
    ("two successors", "two-successor"),
    ("self-grant", "self-grant"),
    ("total", "total"),
)


def _symptom(error: str) -> str:
    return next((name for key, name in SYMPTOMS if key in error), "other")


def probe(app: str, n: int, replicate: bool) -> Tuple[Counter, List[Tuple]]:
    """Run one configuration over its seeds: (outcome counts, failing
    points as ``(seed, point, outcome, error)``)."""
    outcomes, bad = Counter(), []
    for seed in SEEDS[app]:
        schedule = Schedule(app, n, replicate=replicate, config={"seed": seed})
        summary = schedule.sweep(
            classes=("recovery", "double"), monitor=False
        ).run()
        outcomes.update(summary.outcomes())
        bad += [
            (seed, r.point, r.outcome, r.error or "")
            for r in summary.failures()
        ]
    return outcomes, bad


def run_probe(verbose: bool = False) -> Tuple[str, int]:
    """Every configuration; returns (the rendered table, total failed)."""
    rows = [
        "| app, seeds | N | replicate | points | recovered | degraded "
        "| failed (seeds) | symptoms |",
        "|---|---|---|---|---|---|---|---|",
    ]
    total = 0
    for app, n, replicate in CONFIGS:
        t0 = time.time()
        outcomes, bad = probe(app, n, replicate)
        total += len(bad)
        seeds = SEEDS[app]
        symptoms = Counter(_symptom(b[3]) for b in bad)
        rows.append(
            f"| {app} {seeds[0]}–{seeds[-1]} | {n} | "
            f"{'on' if replicate else 'off'} | {sum(outcomes.values()):,} | "
            f"{outcomes['recovered']:,} | {outcomes['degraded']} | "
            f"{len(bad)} ({len({b[0] for b in bad})}) | "
            + (", ".join(f"{v} {k}" for k, v in sorted(symptoms.items()))
               or "—")
            + " |"
        )
        if verbose:
            print(f"{rows[-1]}  {time.time() - t0:.1f}s", flush=True)
            for seed, p, outcome, error in bad:
                print(f"    seed={seed} {p.cls} base=p{p.base[1]}@{p.base[0]} "
                      f"point=p{p.victim}@{p.step}: {outcome} "
                      f"{error.splitlines()[0][:160]}", flush=True)
    return "\n".join(rows), total


def test_k2_seed_probe_has_no_failure():
    table, failed = run_probe()
    print("\n" + table)
    assert failed == 0, table


if __name__ == "__main__":
    table, failed = run_probe(verbose="-v" in sys.argv)
    print(table)
    sys.exit(1 if failed else 0)
