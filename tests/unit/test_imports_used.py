"""Every top-level import in ``src/repro`` is read somewhere in its module,
and no test module imports another.

An ``ast`` scan stands in for a linter: a module's top-level ``import``/
``from ... import`` names must each appear as a name in the module's code,
in a quoted annotation, or in ``__all__``. Package ``__init__.py`` files
are skipped, since their imports are re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
TESTS = Path(__file__).resolve().parents[1]


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
