"""Online invariant monitoring: paper-bound runtime assertions plus a
bounded crash flight recorder (see ``monitor.py`` for the catalog)."""

from repro.lazy import lazy_exports

_MONITOR = "repro.observe.invariants.monitor"
_RECORDER = "repro.observe.invariants.recorder"

_EXPORTS = {
    "INVARIANTS": _MONITOR,
    "InvariantMonitor": _MONITOR,
    "Violation": _MONITOR,
    "FlightRecorder": _RECORDER,
    "render_flight_record": _RECORDER,
    "validate_flight_record": _RECORDER,
    "write_flight_record": _RECORDER,
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "INVARIANTS",
    "InvariantMonitor",
    "Violation",
    "FlightRecorder",
    "render_flight_record",
    "validate_flight_record",
    "write_flight_record",
]
