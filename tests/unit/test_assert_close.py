"""``apps.base.assert_close`` tests what ``numpy.testing.assert_allclose``
tests: the same elements pass and fail, and a failure names how many."""

import re

import numpy as np
import numpy.testing
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import assert_close


def verdict(check, got, want, rtol, atol):
    """``None`` when ``check`` passes, else its ``AssertionError`` text."""
    try:
        check(got, want, rtol=rtol, atol=atol)
    except AssertionError as exc:
        return str(exc)
    return None


def mismatched(text):
    """The ``(mismatched, total)`` counts a failure message names."""
    m = re.search(r"(\d+) of (\d+) elements", text) or re.search(
        r"Mismatched elements: (\d+) / (\d+)", text
    )
    return int(m.group(1)), int(m.group(2))


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 400),
    st.sampled_from([(1e-9, 1e-12), (1e-9, 1e-10), (1e-6, 1e-8), (0.0, 1e-3)]),
)
@settings(max_examples=200)
def test_random_arrays_pass_and_fail_with_numpy_testing(seed, n, tol):
    rtol, atol = tol
    rng = np.random.default_rng(seed)
    want = rng.normal(0, 10.0 ** rng.integers(-6, 6), n)
    # errors spread around the bound: some elements in, some out
    bound = atol + rtol * np.abs(want)
    got = want + bound * rng.uniform(-2, 2, n) * (rng.random(n) < 0.3)
    mine = verdict(assert_close, got, want, rtol, atol)
    ref = verdict(numpy.testing.assert_allclose, got, want, rtol, atol)
    assert (mine is None) == (ref is None), (mine, ref)
    if ref is not None:
        assert mismatched(mine) == mismatched(ref)


nan, inf = float("nan"), float("inf")
up = np.nextafter

EDGES = [
    # (name, got, want, rtol, atol, passes)
    ("exactly at rtol * |want|", [1.25], [1.0], 0.25, 0.0, True),
    ("one ulp above it", [up(1.25, 2.0)], [1.0], 0.25, 0.0, False),
    ("exactly at atol", [0.5], [0.0], 0.0, 0.5, True),
    ("one ulp above atol", [up(0.5, 1.0)], [0.0], 0.0, 0.5, False),
    ("atol + rtol * |want|", [-2.75], [-2.0], 0.25, 0.25, True),
    ("NaN against NaN", [1.0, nan], [1.0, nan], 1e-9, 0.0, True),
    ("NaN against a number", [nan], [1.0], 1e-9, 0.0, False),
    ("a number against NaN", [1.0], [nan], 1e-9, 0.0, False),
    ("same-sign infinities", [inf, -inf], [inf, -inf], 1e-9, 0.0, True),
    ("opposite-sign infinities", [inf], [-inf], 1e-9, 0.0, False),
    ("infinity against a number", [inf], [1e308], 1e-9, 0.0, False),
    ("a shape mismatch", [1.0, 1.0, 1.0], [1.0, 1.0], 1e-9, 0.0, False),
]


@pytest.mark.parametrize(
    "got,want,rtol,atol,passes",
    [e[1:] for e in EDGES],
    ids=[e[0] for e in EDGES],
)
def test_edges_as_numpy_testing_judges_them(got, want, rtol, atol, passes):
    got, want = np.array(got), np.array(want)
    ref = verdict(numpy.testing.assert_allclose, got, want, rtol, atol)
    mine = verdict(assert_close, got, want, rtol, atol)
    assert (ref is None) == passes, ref
    assert (mine is None) == passes, mine


def test_a_failure_names_the_count_and_the_largest_errors():
    want = np.zeros(384)
    got = want.copy()
    got[:96] = np.linspace(1.0, 2.0, 96)
    text = verdict(assert_close, got, want, 1e-9, 1e-12)
    assert "96 of 384 elements" in text
    assert "largest absolute error 2" in text
    assert "largest relative error inf" in text
    text = verdict(assert_close, np.array([1.5, 4.0]), np.array([1.0, 2.0]), 0, 0)
    assert "2 of 2 elements" in text
    assert "largest absolute error 2," in text
    assert "largest relative error 1" in text
    assert "shapes differ: (3,) != (2,)" in verdict(
        assert_close, np.ones(3), np.ones(2), 0, 0
    )
