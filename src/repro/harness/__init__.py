"""Experiment harness regenerating every table and figure of §5."""

from repro.lazy import lazy_exports

_EXPERIMENT = "repro.harness.experiment"
_TABLES = "repro.harness.tables"
_FIGURES = "repro.harness.figures"

_EXPORTS = {
    "PAPER": _EXPERIMENT,
    "AppSetup": _EXPERIMENT,
    "ExperimentResult": _EXPERIMENT,
    "paper_setups": _EXPERIMENT,
    "run_base": _EXPERIMENT,
    "run_ft": _EXPERIMENT,
    "table1": _TABLES,
    "table2": _TABLES,
    "table3": _TABLES,
    "table4": _TABLES,
    "figure3": _FIGURES,
    "figure4": _FIGURES,
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "PAPER",
    "AppSetup",
    "ExperimentResult",
    "paper_setups",
    "run_base",
    "run_ft",
    "table1",
    "table2",
    "table3",
    "table4",
    "figure3",
    "figure4",
]
