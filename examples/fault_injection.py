#!/usr/bin/env python3
"""Fault-injection tour: crash every process of a Barnes-Hut run, one at
a time, at several points, and report the recovery behaviour.

Shows that any single process — ordinary worker, lock manager, barrier
manager (process 0), or page home — can fail at any time and the
computation still produces the exact golden result.

    python examples/fault_injection.py
"""

import time

from repro import DsmCluster, DsmConfig
from repro.apps.barnes import BarnesApp, BarnesConfig
from repro.core import LogOverflowPolicy
from repro.render import Table


def make_cluster():
    return DsmCluster(
        DsmConfig(num_procs=8),
        ft=True,
        policy_factory=lambda pid, fp: LogOverflowPolicy(0.25, fp),
    )


def main() -> None:
    cfg = BarnesConfig(n_bodies=96, steps=3)
    golden = make_cluster().run(BarnesApp(cfg))
    T = golden.wall_time
    print(f"golden run: {T*1e3:.1f} ms virtual, no failures\n")

    t = Table(
        "Single-fault injection sweep (Barnes-Hut, 8 nodes)",
        ["Victim", "Role", "Crash at", "Recovered", "Stretch", "Result"],
    )
    roles = {0: "barrier manager", 1: "lock mgr (1,9)", 3: "worker/home"}
    host0 = time.time()
    for victim in (0, 1, 3, 5, 7):
        for frac in (0.25, 0.6):
            cluster = make_cluster()
            cluster.schedule_crash(victim, at_time=T * frac)
            try:
                res = cluster.run(BarnesApp(cfg))
                stretch = res.wall_time - T
                t.add(
                    f"p{victim}",
                    roles.get(victim, "worker/home"),
                    f"{frac:.0%} of run",
                    "yes" if res.recoveries else "n/a (finished)",
                    f"+{stretch*1e3:.1f} ms",
                    "exact",
                )
            except AssertionError:
                t.add(f"p{victim}", roles.get(victim, "worker"), f"{frac:.0%}",
                      "yes", "-", "WRONG")
    print(t.render())
    print(f"\n({time.time()-host0:.1f}s of host time; every recovery "
          "validated bit-for-bit against the sequential Barnes-Hut model)")


if __name__ == "__main__":
    main()
