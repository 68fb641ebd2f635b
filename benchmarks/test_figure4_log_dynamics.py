"""Figure 4 — stable-storage log size vs checkpoint number.

The measured curves are the FT layer's own record: every node appends
one ``FtStats.log_points`` point per checkpoint, and :func:`figure4`
aggregates the max across nodes per checkpoint number.

Shape targets from the paper: the measured log grows over the first few
checkpoints and then *flattens out* under LLT, falling below (or staying
far below) the theoretical unbounded L-bytes-per-checkpoint line, drawn
at the run's own L. At the third checkpoint the measured curve is within
1.5x of that line, and at the last one under it.
"""

from conftest import emit

from repro.harness.figures import figure4, figure4_render


def test_figure4(experiments, results_dir, benchmark):
    text = benchmark.pedantic(lambda: figure4_render(experiments), rounds=1, iterations=1)
    emit(results_dir, "figure4", text)

    data = figure4(experiments)
    for name, series in data.items():
        measured = series["measured"]
        unbounded = series["unbounded"]
        assert measured, f"{name}: no checkpoints recorded"
        if len(measured) < 3:
            continue  # too few checkpoints for a trend
        # flattening: the last step's growth is well below the first's
        first_growth = measured[1][1] - measured[0][1]
        last_growth = measured[-1][1] - measured[-2][1]
        assert last_growth < first_growth or last_growth <= 0, (
            f"{name}: log still growing at full slope "
            f"({first_growth} -> {last_growth})"
        )
        # bounded: by the third checkpoint the measured size is near the
        # theoretical no-LLT growth (the paper's observation)
        k, size = measured[min(2, len(measured) - 1)]
        theory = dict(unbounded)[k]
        assert size <= theory * 1.5, f"{name}: {size} vs unbounded {theory}"
        # and at the end it is clearly bounded
        k_end, size_end = measured[-1]
        assert size_end < dict(unbounded)[k_end] * 1.01


def test_water_spatial_self_synchronizing(experiments, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """§5.3: after start-up, Water-Spatial's per-checkpoint log additions
    stabilize (the 'self-synchronizing' effect)."""
    data = figure4(experiments)
    measured = data["water-spatial"]["measured"]
    if len(measured) < 4:
        return
    sizes = [s for _, s in measured]
    tail = sizes[2:]
    assert max(tail) - min(tail) < 0.5 * max(sizes), (
        f"tail not flat: {sizes}"
    )
