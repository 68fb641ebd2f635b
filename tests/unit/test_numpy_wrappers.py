"""No hot path of the simulator enters NumPy's Python wrappers.

``ndarray.sum``/``any``/``all``, ``np.clip``, ``np.cumsum``,
``np.flatnonzero`` and ``np.count_nonzero`` each run a Python frame in
``numpy``'s ``_methods.py``, ``fromnumeric.py`` or ``numeric.py`` before
the C loop they end in, and on the small arrays of the protocol, the FT manager and the app kernels that
frame costs more than the loop. The runtime counterpart of
``test_imports_used.py``: each run below goes under ``sys.setprofile``,
and the test fails naming every caller in :data:`GUARDED_MODULES` or
:data:`KERNELS` that entered such a frame.
"""

import inspect
import os
import sys

import numpy as np
import pytest

from tests.conftest import make_app, make_cluster

_FROMNUMERIC = inspect.unwrap(np.sum).__code__.co_filename
#: the files whose frames are wrappers: ``numeric.py`` holds
#: ``flatnonzero`` and ``count_nonzero``, among others
WRAPPER_FILES = {
    _FROMNUMERIC,
    os.path.join(os.path.dirname(_FROMNUMERIC), "_methods.py"),
    inspect.unwrap(np.count_nonzero).__code__.co_filename,
}

#: every function of these modules is guarded
GUARDED_MODULES = ("repro.dsm.", "repro.core.ftmanager")
#: (module, function) of the app kernels that run per pair, cell or node
KERNELS = {
    ("repro.apps.water", "pair_term"),
    ("repro.apps.water_nsq", "_pair_forces"),
    ("repro.apps.water_nsq", "phase_forces"),
    ("repro.apps.water_spatial", "_forces_for_cell"),
    ("repro.apps.barnes", "phase_insert"),
    ("repro.apps.barnes", "_walk_tables"),
}


def _guarded(module, function):
    return module.startswith(GUARDED_MODULES) or (module, function) in KERNELS


def wrapper_callers(run):
    """``{"module.function:line -> wrapper"}`` of every guarded caller that
    entered a wrapper frame while ``run()`` ran."""
    found = set()

    def spy(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        # a wrapper's ``_dispatcher`` frame comes with the wrapper itself
        if (code.co_filename not in WRAPPER_FILES
                or code.co_name.endswith("_dispatcher")):
            return
        caller = frame.f_back
        module = caller.f_globals.get("__name__", "")
        if _guarded(module, caller.f_code.co_name):
            found.add(
                f"{module}.{caller.f_code.co_name}:{caller.f_lineno} -> "
                f"{os.path.basename(code.co_filename)}::{code.co_name}"
            )

    sys.setprofile(spy)
    try:
        run()
    finally:
        sys.setprofile(None)
    return found


def test_the_spy_sees_a_wrapper_called_from_a_guarded_name():
    x = np.zeros(3) + 1.0

    def pair_term():  # named after a kernel; its module is this test's
        np.flatnonzero(x) + x.sum() + np.count_nonzero(x)

    assert not wrapper_callers(pair_term)
    KERNELS.add((__name__, "pair_term"))
    try:
        found = wrapper_callers(pair_term)
    finally:
        KERNELS.discard((__name__, "pair_term"))
    assert {f.rsplit(" -> ", 1)[1] for f in found} == {
        "numeric.py::flatnonzero",
        "numeric.py::count_nonzero",
        "_methods.py::_sum",
    }


#: wide clocks (n >= VClock.ARRAY_WIDTH) with FT on, and the three
#: numeric apps at the tier-1 sizes
RUNS = [
    ("counter", 32, True),
    ("kvstore", 32, True),
    ("barnes", 4, False),
    ("water-nsq", 4, False),
    ("water-spatial", 4, False),
]


@pytest.mark.parametrize(
    "app,procs,ft", RUNS, ids=[f"{a}-{p}" for a, p, _ in RUNS]
)
def test_no_guarded_caller_enters_a_numpy_wrapper(app, procs, ft):
    cluster = make_cluster(num_procs=procs, ft=ft)
    found = wrapper_callers(lambda: cluster.run(make_app(app)))
    assert not found, "\n".join(sorted(found))
