"""Lazy re-exports for package ``__init__``s (PEP 562).

A package that re-exports its submodules' public names resolves each one
on first access instead of importing every submodule up front, so a fresh
process compiles only the modules its run reaches (DESIGN.md §5, "Cold
start")::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "ClusterObserver": "repro.observe.observer",
        ...
    })

``from package import name`` and ``package.name`` work as they did; the
first import of a name loads its defining module, and the value is then
stored in the package like an eager import would have stored it.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``,
    which re-exports each name of ``table`` from the module it maps to."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        # the import statement's own path, which ``-X importtime`` reports
        # (``importlib.import_module`` bypasses it)
        __import__(module)
        value = namespace[name] = getattr(sys.modules[module], name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
