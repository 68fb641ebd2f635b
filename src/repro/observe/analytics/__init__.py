"""Cross-artifact analytics: aggregate every pipeline's output into one
dashboard (DESIGN.md §7.3, the ``repro report`` command).

    from repro.observe.analytics import (
        discover_artifacts, load_artifact, build_dashboard, render_dashboard,
    )

    paths = discover_artifacts(["benchmarks"])
    dash = build_dashboard([load_artifact(p) for p in paths])
    print(render_dashboard(dash))
"""

from repro.observe.analytics.aggregate import (
    ARTIFACT_KINDS,
    Artifact,
    discover_artifacts,
    load_artifact,
    sniff_kind,
)
from repro.observe.analytics.dashboard import (
    build_dashboard,
    render_dashboard,
    render_html,
)

__all__ = [
    "ARTIFACT_KINDS",
    "Artifact",
    "build_dashboard",
    "discover_artifacts",
    "load_artifact",
    "render_dashboard",
    "render_html",
    "sniff_kind",
]
