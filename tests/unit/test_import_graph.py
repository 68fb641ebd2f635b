"""A fresh process compiles only what its run uses (DESIGN.md §5, "Cold
start").

The package ``__init__``s below resolve their re-exports on first access
(``repro.lazy``), so what an observed run, a crash sweep or the paper
harness imports does not pull in the span tracer, the invariant monitor,
the SLO timeline, the table and figure builders or the mutant table.
Every public name still resolves to its defining module's object.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

LAZY_PACKAGES = [
    "repro.observe",
    "repro.observe.invariants",
    "repro.observe.tracing",
    "repro.observe.slo",
]

#: modules (and packages, with everything under them) the default
#: imports must leave unloaded
UNUSED = [
    "repro.observe.tracing",
    "repro.observe.invariants",
    "repro.observe.slo.timeline",
    "repro.harness.tables",
    "repro.harness.figures",
    "repro.faultinject.mutants",
]


def modules_loaded_by(imports, statement=False):
    """The modules a fresh interpreter holds after ``import <imports>``
    (with ``statement``, ``imports`` is a program that prints them)."""
    code = imports if statement else (
        f"import json, sys; import {imports}; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout
    return json.loads(out)


def test_default_imports_leave_the_unused_modules_unloaded():
    loaded = modules_loaded_by(
        "repro.observe, repro.faultinject, repro.harness.experiment"
    )
    assert "repro.faultinject.campaign" in loaded  # it sees repro at all
    assert [
        m for m in loaded
        if any(m == u or m.startswith(u + ".") for u in UNUSED)
    ] == []


def test_a_cluster_loads_recovery_and_replication_when_first_needed():
    """Recovery and buddy replication are imported where a crash, a
    recovery query or a replicated run first needs them: a fresh process
    that builds and runs failure-free clusters compiles neither, and the
    crash campaign imports the overlap error it catches only in the run
    that may raise it, so ``python -m repro`` loads neither either."""
    for imports in ("repro.cluster, repro.harness.experiment",
                    "repro.faultinject", "repro.__main__"):
        loaded = modules_loaded_by(imports)
        assert "repro.core.ftmanager" in loaded, imports
        assert "repro.core.recovery" not in loaded, imports
        assert "repro.core.replica" not in loaded, imports


#: the paper apps and LU at 2-node smoke sizes
SMOKE_APPS = [
    ("barnes", {"n_bodies": 32, "steps": 1}),
    ("water-nsq", {"n_molecules": 27, "steps": 1}),
    ("water-spatial", {"n_molecules": 64, "steps": 1}),
    ("lu", {"matrix_size": 16, "block_size": 8}),
]


def test_no_paper_app_result_check_loads_numpy_testing():
    """Barnes, both Waters and LU check their results with
    ``apps.base.assert_close``: ``numpy.testing.assert_allclose`` loaded
    ``numpy.testing``, ``unittest`` and some sixty more modules into every
    process at its first check."""
    code = (
        "import json, sys\n"
        "from repro import DsmCluster, DsmConfig\n"
        "from repro.apps import make_app\n"
        f"for name, fields in {SMOKE_APPS!r}:\n"
        "    app = make_app(name, **fields)\n"
        "    DsmCluster(DsmConfig(num_procs=2)).run(app)  # checks its result\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    loaded = set(modules_loaded_by(code, statement=True))
    assert {"repro.apps.barnes", "repro.apps.lu"} <= loaded
    assert not loaded & {"numpy.testing", "unittest"}


def test_a_mutant_loads_what_it_patches_when_entered():
    """The mutant table adds itself to what ``repro.faultinject`` loads:
    Barnes and the recoverability checker come with the entry that
    patches them."""
    loaded = set(modules_loaded_by("repro.faultinject.mutants"))
    assert loaded - set(modules_loaded_by("repro.faultinject")) == {
        "repro.faultinject.mutants"
    }
    assert not loaded & {"repro.apps.barnes", "repro.observe.invariants"}


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_public_name_resolves_to_its_defining_module(name):
    package = importlib.import_module(name)
    table = package._EXPORTS
    listed = dir(package)
    for attr in package.__all__:
        value = getattr(package, attr)
        module = table[attr]
        assert value is getattr(importlib.import_module(module), attr), attr
        # a class or function was defined there (or in that subpackage)
        defined_in = getattr(value, "__module__", module)
        assert defined_in == module or defined_in.startswith(module + "."), attr
        assert attr in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")
