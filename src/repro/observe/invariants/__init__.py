"""Online invariant monitoring: paper-bound runtime assertions plus a
bounded crash flight recorder (see ``monitor.py`` for the catalog)."""

from repro.lazy import lazy_exports

_EXPORTS = {"INVARIANTS": "repro.observe.invariants.monitor"}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
