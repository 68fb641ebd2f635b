"""Property tests for the log-bucket latency percentile engine.

The engine's contract (``repro.observe.latency.engine``):

* percentile estimates are within the documented relative-error bound
  (``growth - 1``) of the exact sorted-list percentile at the same rank;
* ``merge(h1, h2)`` is indistinguishable from a histogram built from
  the concatenated samples;
* counts, min/max and every percentile are exactly insertion-order
  invariant (``sum`` is the one float-accumulation field that is not).

Verified with hypothesis where available, plus seeded wide cases.
"""

import math
import random

import pytest

from repro.observe.latency import LatencyHistogram, engine, exact_percentile
from repro.observe.latency.engine import DEFAULT_GROWTH, PERCENTILES
from repro.observe.registry import CLUSTER_NODE, MetricsRegistry

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

#: spans ns to ks — the full range of plausible virtual-time durations
durations = st.floats(
    min_value=1e-9, max_value=1e3, allow_nan=False, allow_infinity=False
)
samples = st.lists(durations, min_size=1, max_size=300)

#: the documented relative-error bound of the bucket geometry
REL_ERR = DEFAULT_GROWTH - 1.0


def fill(values, name="h", node=0):
    h = LatencyHistogram(name, node)
    for v in values:
        h.observe(v)
    return h


# ---------------------------------------------------------------------------
# error bound vs exact percentiles
# ---------------------------------------------------------------------------
@given(samples)
@settings(max_examples=200, deadline=None)
def test_percentile_within_documented_error_of_exact(values):
    h = fill(values)
    for p in PERCENTILES:
        exact = exact_percentile(values, p)
        est = h.percentile(p)
        assert est <= max(values)
        assert est >= min(values)
        # the estimate is the clamped upper bound of the exact value's
        # bucket: never more than one bucket ratio above the exact
        assert est >= exact * (1.0 - 1e-12)
        assert est <= exact * (1.0 + REL_ERR) * (1.0 + 1e-9)


def test_percentile_error_bound_seeded_wide():
    rng = random.Random(20260808)
    for scale in (1e-7, 1e-4, 1e-1, 10.0):
        values = [rng.expovariate(1.0) * scale for _ in range(5000)]
        h = fill(values)
        for p in PERCENTILES:
            exact = exact_percentile(values, p)
            est = h.percentile(p)
            assert exact * (1.0 - 1e-12) <= est
            assert est <= exact * (1.0 + REL_ERR) * (1.0 + 1e-9)


def test_exact_percentile_rank_rule():
    values = [1.0, 2.0, 3.0, 4.0]
    # rank = ceil(p/100 * n), 1-indexed
    assert exact_percentile(values, 50.0) == 2.0
    assert exact_percentile(values, 75.0) == 3.0
    assert exact_percentile(values, 76.0) == 4.0
    assert exact_percentile(values, 99.9) == 4.0
    assert exact_percentile([7.0], 50.0) == 7.0


# ---------------------------------------------------------------------------
# merge == concat
# ---------------------------------------------------------------------------
@given(samples, samples)
@settings(max_examples=150, deadline=None)
def test_merge_equals_concatenation(a, b):
    merged = LatencyHistogram.merged([fill(a), fill(b)], "m", 0)
    concat = fill(a + b, name="m")
    assert merged.buckets == concat.buckets
    assert merged.zero_count == concat.zero_count
    assert merged.count == concat.count
    assert merged.min == concat.min
    assert merged.max == concat.max
    for p in PERCENTILES:
        assert merged.percentile(p) == concat.percentile(p)
    assert merged.total == pytest.approx(concat.total)


def test_from_dict_rejects_another_geometry():
    """Every histogram shares one geometry; a record from outside the
    program written in another one is refused, not misread."""
    record = fill([1e-6, 2e-3]).to_dict()
    assert LatencyHistogram.from_dict(record).buckets == fill([1e-6, 2e-3]).buckets
    for field, value in (("growth", 2.0), ("base", 1e-6)):
        with pytest.raises(ValueError, match="geometry"):
            LatencyHistogram.from_dict({**record, field: value})


# ---------------------------------------------------------------------------
# insertion-order determinism
# ---------------------------------------------------------------------------
@given(samples, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_insertion_order_invariance(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    h1, h2 = fill(values), fill(shuffled)
    # everything except the float-accumulated sum is exactly invariant
    assert h1.buckets == h2.buckets
    assert h1.count == h2.count
    assert (h1.min, h1.max) == (h2.min, h2.max)
    for p in PERCENTILES:
        assert h1.percentile(p) == h2.percentile(p)
    assert h1.total == pytest.approx(h2.total)


def test_insertion_order_seeded_wide():
    rng = random.Random(7)
    values = [rng.lognormvariate(-8.0, 3.0) for _ in range(20000)]
    h1 = fill(values)
    backwards = fill(list(reversed(values)))
    assert h1.buckets == backwards.buckets
    assert [h1.percentile(p) for p in PERCENTILES] == [
        backwards.percentile(p) for p in PERCENTILES
    ]


# ---------------------------------------------------------------------------
# geometry and edge cases
# ---------------------------------------------------------------------------
@given(durations)
@settings(max_examples=300, deadline=None)
def test_bucket_bounds_contain_value(v):
    h = LatencyHistogram("h", 0)
    i = h.bucket_index(v)
    assert h.upper_bound(i) >= v
    if i > 0:
        assert h.upper_bound(i - 1) < v


def test_zero_and_negative_samples():
    h = LatencyHistogram("h", 0)
    h.observe(0.0)
    h.observe(-1.0)  # clamped: durations cannot be negative
    h.observe(1e-4)
    assert h.zero_count == 2
    assert h.count == 3
    assert h.min == 0.0
    assert h.percentile(50.0) == 0.0
    assert h.percentile(99.9) >= 1e-4 * (1.0 - 1e-12)


def test_empty_histogram_summary():
    h = LatencyHistogram("h", 0)
    assert h.count == 0
    assert h.percentile(50.0) == 0.0
    d = h.to_dict()
    assert d["count"] == 0 and d["buckets"] == []


def test_serialization_roundtrip():
    h = fill([1e-6, 5e-5, 5e-5, 2e-3, 0.0], name="lat.fetch", node=3)
    again = LatencyHistogram.from_dict(h.to_dict())
    assert again.buckets == h.buckets
    assert again.zero_count == h.zero_count
    assert again.count == h.count
    assert (again.min, again.max) == (h.min, h.max)
    for p in PERCENTILES:
        assert again.percentile(p) == h.percentile(p)


# ---------------------------------------------------------------------------
# registry integration
# ---------------------------------------------------------------------------
def test_registry_latency_interning_and_merge():
    reg = MetricsRegistry(lambda: 0.0, 1e-3)
    a = reg.latency("lat.fetch", 0)
    assert reg.latency("lat.fetch", 0) is a
    b = reg.latency("lat.fetch", 1)
    assert b is not a
    a.observe(1e-4)
    b.observe(2e-4)
    merged = reg.merged_latency("lat.fetch")
    assert merged.node == CLUSTER_NODE
    assert merged.count == 2
    assert "lat.fetch" in reg.latency_names()
    assert reg.merged_latency("lat.nothing") is None


# ---------------------------------------------------------------------------
# differential oracles: the kernels the bound table and the one-pass
# summary replaced, kept verbatim as references
# ---------------------------------------------------------------------------
def reference_bucket_index(h, value):
    """``bucket_index`` as it was: a log, then corrected by comparison."""
    base, growth = engine.DEFAULT_BASE, engine.DEFAULT_GROWTH
    if value <= base:
        return 0
    i = max(0, math.ceil(math.log(value / base) / math.log(growth)))
    while h.upper_bound(i) < value:
        i += 1
    while i > 0 and h.upper_bound(i - 1) >= value:
        i -= 1
    return i


def reference_percentile(h, p):
    """``percentile`` as it was: one sorted walk per call."""
    if h.count == 0:
        return 0.0
    rank = max(1, min(h.count, math.ceil(p / 100.0 * h.count)))
    cum = h.zero_count
    if cum >= rank:
        return 0.0
    for i in sorted(h.buckets):
        cum += h.buckets[i]
        if cum >= rank:
            return min(max(h.upper_bound(i), h.min), h.max)
    return h.max


def _check_bucket_index(h):
    base = engine.DEFAULT_BASE
    values = [base, base / 2, math.nextafter(base, 0.0),
              math.nextafter(base, 1.0), 1e9, 1e9 + 1.0]
    for i in range(201):
        ub = h.upper_bound(i)
        values += [ub, math.nextafter(ub, 0.0), math.nextafter(ub, math.inf)]
    rng = random.Random(19)
    values += [10.0 ** rng.uniform(-12.0, 4.0) for _ in range(20_000)]
    for v in values:
        assert h.bucket_index(v) == reference_bucket_index(h, v), v


@pytest.mark.parametrize(
    "geometry", [{}, {"base": 1e-6, "growth": 1.5}, {"base": 3e-9, "growth": 1.01}]
)
def test_bucket_index_matches_log_and_correct_reference(geometry, monkeypatch):
    # the geometry is a pair of module constants; other values are tried
    # by patching them together with a fresh bound table
    if geometry:
        monkeypatch.setattr(engine, "DEFAULT_BASE", geometry["base"])
        monkeypatch.setattr(engine, "DEFAULT_GROWTH", geometry["growth"])
        monkeypatch.setattr(engine, "_BOUNDS", [geometry["base"]])
    _check_bucket_index(LatencyHistogram("h", 0))


def test_bucket_index_oracle_catches_a_seeded_mutation(monkeypatch):
    import bisect

    monkeypatch.setattr(engine, "bisect_left", bisect.bisect_right)
    with pytest.raises(AssertionError):
        _check_bucket_index(LatencyHistogram("h", 0))


def test_bound_table_is_upper_bound_itself():
    """Entry ``i`` is the float ``upper_bound(i)`` returns, also past the
    initial table, which is what makes the bisection exact."""
    h = LatencyHistogram("h", 0)
    assert h.bucket_index(1e12) > 160
    bounds = engine._BOUNDS
    assert bounds == [h.upper_bound(i) for i in range(len(bounds))]


def _summary_cases():
    rng = random.Random(23)
    yield []
    yield [0.0, 0.0, 0.0]
    yield [3.3e-5]
    yield [-1e-18, 0.0, 1e-9, 2e-9]
    for n in (2, 10, 1000, 1001):
        yield [rng.choice((0.0, 1.0)) * rng.expovariate(1e4) for _ in range(n)]


@pytest.mark.parametrize("values", _summary_cases(), ids=lambda v: f"n{len(v)}")
def test_one_pass_summary_equals_four_percentile_walks(values):
    h = fill(values)
    expect = {
        "p50": reference_percentile(h, 50.0),
        "p90": reference_percentile(h, 90.0),
        "p99": reference_percentile(h, 99.0),
        "p999": reference_percentile(h, 99.9),
    }
    summary = h.summary()
    assert {k: summary[k] for k in expect} == expect
    d = h.to_dict()
    assert {k: d[k] for k in expect} == expect
    assert d["buckets"] == [[i, h.buckets[i]] for i in sorted(h.buckets)]
    for p in (0.0, 12.5, 50.0, 99.9, 100.0):
        assert h.percentile(p) == reference_percentile(h, p)
    with pytest.raises(ValueError, match="out of range"):
        h.percentile(100.5)
