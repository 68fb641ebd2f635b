"""Every top-level import in ``src/repro`` is read somewhere in its module,
every name a package re-exports is imported through it by a caller, and
no test module imports another.

An ``ast`` scan stands in for a linter: a module's top-level ``import``/
``from ... import`` names must each appear as a name in the module's code,
in a quoted annotation, or in ``__all__``. Package ``__init__.py`` files
are skipped, since their imports are re-exports.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
TESTS = Path(__file__).resolve().parents[1]

#: the packages under ``src/repro``
PACKAGES = sorted(
    ".".join(init.relative_to(SRC.parent).parent.parts)
    for init in SRC.rglob("__init__.py")
)

#: where the callers of the public surface are: the program, the
#: benchmarks (the ledger included), the examples, and the code samples
#: of README.md and DESIGN.md
CALLER_DIRS = ("src", "benchmarks", "examples")
SAMPLE_DOCS = ("README.md", "DESIGN.md")


def _imported(tree):
    """``{bound name: line}`` of the module-level imports."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree):
    """Names the module reads: code, quoted annotations and ``__all__``."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.update(
                    n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                    if isinstance(n, ast.Name)
                )
    return used


def test_no_unused_top_level_imports():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used(tree)
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        unused += [
            f"{module}:{line} imports {name!r}, never read"
            for name, line in _imported(tree).items()
            if name not in used
        ]
    assert not unused, "\n".join(unused)


def test_the_scan_sees_an_unused_import():
    tree = ast.parse(
        "from typing import Dict, List\nimport os.path\n"
        "def f(x: 'Dict[int, int]') -> None:\n    return os.path.join(x)\n"
    )
    assert set(_imported(tree)) - _used(tree) == {"List"}


def _through_packages(tree):
    """``(package, name)`` for each name ``tree`` imports through a package
    of :data:`PACKAGES`: ``from package import name``, or ``alias.name``
    where ``alias`` is bound to the package by ``from parent import
    package`` or ``import package as alias``."""
    found, alias = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            for a in node.names:
                if node.module in PACKAGES:
                    found.add((node.module, a.name))
                if f"{node.module}.{a.name}" in PACKAGES:
                    alias[a.asname or a.name] = f"{node.module}.{a.name}"
        elif isinstance(node, ast.Import):
            alias.update(
                (a.asname, a.name) for a in node.names
                if a.asname and a.name in PACKAGES
            )
    found.update(
        (alias[node.value.id], node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id in alias
    )
    return found


def _python_samples(text):
    """The ``python`` code blocks of a Markdown text."""
    fence, block = None, []
    for line in text.splitlines():
        if line.startswith("```"):
            if fence == "python":
                yield "\n".join(block)
            fence = None if fence is not None else line[3:].strip()
            block = []
        elif fence is not None:
            block.append(line)


def _caller_imports():
    """Every ``(package, name)`` the callers import through a package."""
    trees = [
        ast.parse(path.read_text(), filename=str(path))
        for top in CALLER_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    trees += [
        ast.parse(sample)
        for doc in SAMPLE_DOCS
        for sample in _python_samples((ROOT / doc).read_text())
    ]
    return set().union(*map(_through_packages, trees))


def _exported(package):
    """The names ``package`` re-exports: its ``__all__`` and the lazy
    table (``_EXPORTS``) it resolves them from."""
    module = importlib.import_module(package)
    return set(getattr(module, "__all__", ())) | set(getattr(module, "_EXPORTS", ()))


def test_every_re_export_has_a_caller():
    """A package re-exports a name only while a module of the program, the
    benchmarks or the examples, or a README/DESIGN code sample imports it
    through that package; tests import from the defining module."""
    used = _caller_imports()
    unread = sorted(
        f"{package}.{name}"
        for package in PACKAGES
        for name in _exported(package)
        if (package, name) not in used
    )
    assert not unread, f"{len(unread)} re-exports no caller imports:\n" + "\n".join(unread)


def test_every_import_through_a_package_is_exported():
    """What anything, tests included, imports through a package is a
    submodule or a name the package re-exports."""
    wrong = []
    for top in (*CALLER_DIRS, "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for package, name in _through_packages(ast.parse(path.read_text())):
                if (
                    name not in _exported(package)
                    and importlib.util.find_spec(f"{package}.{name}") is None
                ):
                    wrong.append(f"{path.relative_to(ROOT)}: {package}.{name}")
    assert not wrong, "\n".join(sorted(wrong))


def test_the_census_sees_each_form_of_import():
    tree = ast.parse(
        "from repro.observe import ClusterObserver\n"
        "from repro import observe\nimport repro.observe.slo as slo\n"
        "def f():\n    from repro.observe import tracing\n"
        "    return observe.build_report, tracing.SpanTracer, slo.Objective\n"
    )
    assert _through_packages(tree) == {
        ("repro", "observe"),
        ("repro.observe", "ClusterObserver"),
        ("repro.observe", "build_report"),
        ("repro.observe", "tracing"),
        ("repro.observe.tracing", "SpanTracer"),
        ("repro.observe.slo", "Objective"),
    }
    assert list(_python_samples(
        "```bash\nfrom repro import X\n```\n```python\nfrom repro import Y\n```\n"
    )) == ["from repro import Y"]


def _test_module_imports(tree):
    """``(line, module)`` of each import of a test module in ``tree``: a
    ``tests.unit``/``tests.integration`` module, or a relative one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                yield node.lineno, "." * node.level + (node.module or "")
                continue
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[:2] in (["tests", "unit"], ["tests", "integration"]):
                yield node.lineno, name


def test_no_test_module_imports_another():
    """Helpers two test files share live in ``tests/conftest.py``,
    ``tests/pins.py``, ``tests/fuzz_app.py`` or the mutant table, never
    in a test module: importing one runs its module-level code again and
    ties the two files together."""
    found = [
        f"{path.relative_to(TESTS.parent)}:{line} imports {name}"
        for path in sorted(TESTS.rglob("test_*.py"))
        for line, name in _test_module_imports(ast.parse(path.read_text()))
    ]
    assert not found, "\n".join(found)


def test_the_scan_sees_a_test_module_import():
    tree = ast.parse(
        "import tests.conftest\nfrom tests.pins import PINS\n"
        "from tests.unit.test_x import f\nimport tests.integration.test_y\n"
        "from . import test_z\n"
    )
    assert list(_test_module_imports(tree)) == [
        (3, "tests.unit.test_x"), (4, "tests.integration.test_y"), (5, "."),
    ]
