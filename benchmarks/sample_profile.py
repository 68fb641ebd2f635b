"""Where one ledger workload's host time goes, sampled and untraced.

    python3 benchmarks/sample_profile.py --workload paper8 [--seed 42] [--smoke]

The ledger's per-layer instrument is cProfile (``ledger/trace.py``). It
counts calls exactly and charges each about a microsecond, so code made
of many tiny calls reads larger than it is: traced, ``paper8`` runs
2.4x slower and its 300 k small protocol calls read as a quarter of it.
This sampler has no per-call cost: ``SIGPROF`` fires every millisecond of
CPU time and the interrupted Python stack is counted, time inside a C
call going to the Python line that made it. It lies the other way: about
+-2 % at 2 k samples, and no call counts. Use cProfile to compare one
layer across commits, this to decide which layer to look at.

Builds the body from ``ledger/workloads.py`` as the ledger does, warms it
with one smoke-sized run, and prints self and cumulative shares per
(file, function) and the top source lines. Writes nothing.
"""

from __future__ import annotations

import argparse
import linecache
import os
import signal
import sys
import time
from collections import Counter
from typing import Callable, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

TICK_S = 1e-3
ROWS = 25


def on_tick(frame, self_n: Counter, cum_n: Counter, line_n: Counter) -> None:
    """Count one sample: the interrupted function, its line, its callers."""
    code = frame.f_code
    self_n[code.co_filename, code.co_name] += 1
    # f_lineno is None when the tick lands on an instruction without a
    # line (RESUME, a generated dataclass __init__)
    lineno = frame.f_lineno
    line_n[code.co_filename, code.co_firstlineno if lineno is None else lineno] += 1
    on_stack = set()
    while frame is not None:
        on_stack.add((frame.f_code.co_filename, frame.f_code.co_name))
        frame = frame.f_back
    cum_n.update(on_stack)


def sample(body: Callable[[], object]) -> Tuple[Counter, Counter, Counter]:
    """Run ``body`` under the profiling timer; samples by function (self,
    cumulative) and by source line."""
    self_n: Counter = Counter()
    cum_n: Counter = Counter()
    line_n: Counter = Counter()
    signal.signal(
        signal.SIGPROF,
        lambda _signum, frame: on_tick(frame, self_n, cum_n, line_n),
    )
    signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
    try:
        body()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
    return self_n, cum_n, line_n


def short(path: str) -> str:
    """``apps/barnes.py`` for the package's files, the base name otherwise."""
    if path.startswith(SRC):
        return os.path.relpath(path, os.path.join(SRC, "repro"))
    return os.path.basename(path)


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):  # as the ledger's child
        os.environ.setdefault(var, "1")
    sys.path[:0] = [os.path.join(HERE, "ledger"), SRC]
    import workloads  # the ledger's, read-only

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--smoke", action="store_true", help="the ledger's tiny sizes")
    args = p.parse_args()
    make_body = workloads.WORKLOADS[args.workload].make_body
    make_body(args.seed, True)()  # warm-up: imports, caches, lazy set-up
    body = make_body(args.seed, args.smoke)
    cpu0 = time.process_time()
    self_n, cum_n, line_n = sample(body)
    cpu_s = time.process_time() - cpu0
    total = sum(self_n.values())
    print(
        f"{args.workload}, seed {args.seed}: {total} samples in {cpu_s:.2f} s "
        f"of CPU time (the kernel's tick bounds the rate)"
    )
    for title, order in (("self", self_n), ("cumulative", cum_n)):
        print(f"\n{'self %':>7} {'cum %':>7}  function, by {title} share")
        for key, _n in order.most_common(ROWS):
            print(
                f"{100 * self_n[key] / total:7.1f} {100 * cum_n[key] / total:7.1f}  "
                f"{short(key[0])}:{key[1]}"
            )
    print(f"\n{'self %':>7}  line")
    for (path, lineno), n in line_n.most_common(ROWS):
        text = linecache.getline(path, lineno).strip()
        print(f"{100 * n / total:7.1f}  {short(path)}:{lineno}  {text[:72]}")
    return 0 if total else 1


if __name__ == "__main__":
    sys.exit(main())
