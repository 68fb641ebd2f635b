"""Crash-sweep smokes: bounded fault-injection campaigns that must end
SWEEP OK, one ``repro crashsweep`` process per case.

    PYTHONPATH=src python -m pytest benchmarks/test_sweep_smokes.py

Every point of each campaign must recover with the equivalence oracle
passing, or degrade explicitly where its class allows that; the invariant
monitor rides along on every point, so a case also asserts zero
violations. The summaries are written under pytest's temporary
directory: ``--basetemp DIR`` keeps them in ``DIR`` (CI uploads them from
there). About 18 s in all.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: the small counter campaign every case below starts from
COUNTER = ("counter", "--procs", "4", "--steps", "2", "--size", "256", "--every", "40")

SWEEPS = {
    # a single fail-stop at every 40th step of a small counter run
    "counter": COUNTER,
    # a fault budget of 2 with buddy replication (implied by --faults 2):
    # a second fail-stop inside the first victim's recovery window, plus
    # the ckpt_write points that kill a replicated write's buddy, must
    # recover via the replica
    "counter_k2": COUNTER + ("--faults", "2"),
    # the 8-node session line (60 points) failed 11 points — deadlocks
    # and a silent lost update — until the live switch counted each token
    # once (DESIGN.md §9, "Overlap root causes")
    "session_k2": ("session", "--procs", "8", "--faults", "2",
                   "--classes", "recovery,double"),
    # one failure at a time, repeated: second crashes on every other node
    # after the first victim went live. Until a self-grant became an
    # ordinary rel/acq pair, 5 of the 45 counter points and 7 of the 45
    # session points deadlocked or lost updates (DESIGN.md §6, root
    # cause 3). Not a degradable class: every point must recover
    "counter_seq": COUNTER + ("--classes", "sequential"),
    "session_seq": ("session", "--procs", "4", "--classes", "sequential"),
    # the 25-point 32-node kvstore sweep that failed at `every p28@5467:
    # scan sum 1030.0 != 1033.0` until a home began patching its open twin
    # with incoming diffs (DESIGN.md §6, root causes)
    "kvstore32": ("kvstore", "--procs", "32", "--every", "150",
                  "--classes", "every"),
    # two nodes: the one peer's barrier log is the only twin of a node's
    # own. 4 of these 66 points deadlocked or hit `barrier episode
    # mismatch` until a recovering node restored its barrier log from its
    # peer's and the manager its episode count (DESIGN.md §6, root cause 4)
    "counter_n2": ("counter", "--procs", "2"),
    # 6 of 138 failed: the manager's count restarted at 0 once LLT had
    # trimmed every episode before its checkpoint (root cause 4), and a
    # self-grant mirror drained at a live switch below the Rule 2 bound
    # stayed in the log (root cause 5)
    "session_n2": ("session", "--procs", "2", "--l", "0.02", "--seed", "1"),
}


@pytest.mark.parametrize("name", SWEEPS)
def test_crash_sweep_smoke_is_ok(name, tmp_path):
    out = tmp_path / f"sweep_{name}.json"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "repro", "crashsweep", *SWEEPS[name],
         "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0 and "SWEEP OK" in run.stdout, (
        run.stdout[-2000:] + run.stderr[-2000:]
    )
    assert json.loads(out.read_text())["ok"] is True
