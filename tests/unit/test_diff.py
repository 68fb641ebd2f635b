"""Unit + property tests for the diff engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.diff import (
    RUN_HEADER_BYTES,
    Diff,
    _scatter_index,
    apply_diff,
    compute_diff,
)

PAGE = 256


def page(vals=0):
    return np.full(PAGE, vals, dtype=np.uint8)


def test_identical_pages_empty_diff():
    d = compute_diff(page(3), page(3))
    assert d.empty
    assert d.size_bytes == 0
    assert d.payload_bytes == 0


def test_single_byte_change():
    twin, cur = page(), page()
    cur[10] = 7
    d = compute_diff(twin, cur)
    assert d.runs == ((10, b"\x07"),)
    assert d.payload_bytes == 1
    assert d.size_bytes == 1 + RUN_HEADER_BYTES


def test_runs_are_maximal_and_sorted():
    twin, cur = page(), page()
    cur[5:8] = 1
    cur[20:22] = 2
    cur[0] = 3
    d = compute_diff(twin, cur)
    offsets = [o for o, _ in d.runs]
    assert offsets == sorted(offsets) == [0, 5, 20]
    assert [len(b) for _, b in d.runs] == [1, 3, 2]


def test_edge_runs():
    twin, cur = page(), page()
    cur[0] = 1
    cur[-1] = 2
    d = compute_diff(twin, cur)
    assert d.runs[0][0] == 0
    assert d.runs[-1][0] == PAGE - 1


def test_whole_page_changed():
    d = compute_diff(page(0), page(255))
    assert len(d.runs) == 1
    assert d.payload_bytes == PAGE


def test_apply_roundtrip_simple():
    twin, cur = page(), page()
    cur[33:40] = 9
    d = compute_diff(twin, cur)
    target = twin.copy()
    apply_diff(target, d)
    assert np.array_equal(target, cur)


def test_apply_out_of_bounds_rejected():
    d = Diff(((250, b"\x01" * 10),))
    with pytest.raises(ValueError):
        apply_diff(page(), d)
    for runs in (((0, b"a"), (250, b"\x01" * 10)), ((-1, b"a"), (9, b"b"))):
        with pytest.raises(ValueError, match=r"diff run \[(250|-1),"):
            apply_diff(page(), Diff(runs))


def test_shape_and_dtype_validation():
    with pytest.raises(ValueError):
        compute_diff(np.zeros(10, np.uint8), np.zeros(11, np.uint8))
    with pytest.raises(TypeError):
        compute_diff(np.zeros(8, np.float64), np.zeros(8, np.float64))


# -- properties ---------------------------------------------------------

bytes_pages = st.binary(min_size=PAGE, max_size=PAGE).map(
    lambda b: np.frombuffer(b, dtype=np.uint8).copy()
)


@given(bytes_pages, bytes_pages)
@settings(max_examples=200)
def test_diff_apply_roundtrip(twin, cur):
    d = compute_diff(twin, cur)
    out = twin.copy()
    apply_diff(out, d)
    assert np.array_equal(out, cur)


@given(bytes_pages, bytes_pages)
def test_diff_minimality(twin, cur):
    """Every byte in the diff actually differs at run boundaries."""
    d = compute_diff(twin, cur)
    for off, data in d.runs:
        assert twin[off] != data[0]
        assert twin[off + len(data) - 1] != data[-1]
    # bytes between runs are equal
    covered = np.zeros(PAGE, dtype=bool)
    for off, data in d.runs:
        covered[off : off + len(data)] = True
    assert np.array_equal(twin[~covered], cur[~covered])


@given(bytes_pages, bytes_pages, bytes_pages)
@settings(max_examples=100)
def test_concurrent_disjoint_diffs_commute(base, a, b):
    """Diffs writing disjoint byte ranges apply in any order to the same
    result — the property multi-writer HLRC relies on."""
    # construct disjoint writes from a and b onto base
    cur_a = base.copy()
    cur_a[: PAGE // 2] = a[: PAGE // 2]
    cur_b = base.copy()
    cur_b[PAGE // 2 :] = b[PAGE // 2 :]
    da = compute_diff(base, cur_a)
    db = compute_diff(base, cur_b)
    out1 = base.copy()
    apply_diff(out1, da)
    apply_diff(out1, db)
    out2 = base.copy()
    apply_diff(out2, db)
    apply_diff(out2, da)
    assert np.array_equal(out1, out2)


@given(bytes_pages, bytes_pages)
def test_size_model_consistent(twin, cur):
    d = compute_diff(twin, cur)
    assert d.size_bytes == d.payload_bytes + RUN_HEADER_BYTES * len(d.runs)
    assert d.payload_bytes == sum(len(b) for _, b in d.runs)


@given(
    st.integers(1, 300), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1)
)
@settings(max_examples=200)
def test_mask_payload_is_the_runs_back_to_back(n_runs, at_start, at_end, seed):
    """``compute_diff`` gathers a multi-run payload with the ``!=`` mask;
    that is the runs' bytes in run order, i.e. what the index
    ``apply_diff`` scatters with would have gathered."""
    size = 4096
    rng = np.random.default_rng(seed)
    # 2 * n_runs distinct cuts: run k is [cuts[2k], cuts[2k + 1]), so runs
    # are non-empty and never adjacent, and at 300 runs many are one byte
    cuts = np.sort(rng.choice(size + 1, size=2 * n_runs, replace=False))
    if at_start:
        cuts[0] = 0
    if at_end:
        cuts[-1] = size
    starts, lengths = cuts[0::2], cuts[1::2] - cuts[0::2]
    twin = rng.integers(0, 256, size, dtype=np.uint8)
    cur = twin.copy()
    for lo, n in zip(starts, lengths):
        cur[lo : lo + n] ^= rng.integers(1, 256, n, dtype=np.uint8)
    d = compute_diff(twin, cur)
    assert d.offsets.tolist() == starts.tolist()
    assert d.lengths.tolist() == lengths.tolist()
    assert d.payload == cur[_scatter_index(starts, lengths)].tobytes()
    out = twin.copy()
    apply_diff(out, d)
    assert np.array_equal(out, cur)


def test_out_of_bounds_runs_rejected_from_array_repr():
    d = Diff(((PAGE - 2, b"abcd"),))  # run extends past the page end
    with pytest.raises(ValueError):
        apply_diff(page(0), d)


# -- the kernels against the NumPy-wrapper versions they replaced ----------


def _reference_scatter_index(offsets, lengths):
    bounds = np.cumsum(lengths)
    starts = np.concatenate((bounds[:1] * 0, bounds[:-1]))
    return np.arange(int(bounds[-1])) + np.repeat(offsets - starts, lengths)


def reference_compute_diff(twin, page):
    neq = twin != page
    if not neq.any():
        return Diff(())
    padded = np.concatenate(([False], neq, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    return Diff(
        (s, page[s:e].tobytes()) for s, e in zip(edges[0::2], edges[1::2])
    )


def reference_apply_diff(page, diff):
    offsets, lengths = diff.offsets, diff.lengths
    if len(offsets) == 1:
        off = int(offsets[0])
        page[off : off + int(lengths[0])] = np.frombuffer(diff.payload, np.uint8)
    elif len(offsets):
        page[_reference_scatter_index(offsets, lengths)] = np.frombuffer(
            diff.payload, np.uint8
        )


@st.composite
def page_pairs(draw):
    """A twin and a page differing where ``flip`` says, by a nonzero xor."""
    n = draw(st.sampled_from([1, 2, 64, PAGE, 4096]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    twin = rng.integers(0, 256, n, dtype=np.uint8)
    flip = np.zeros(n, dtype=bool)
    kind = draw(st.sampled_from(["none", "one", "edges", "all", "ones", "random"]))
    if kind == "one":
        flip[draw(st.integers(0, n - 1))] = True
    elif kind == "edges":  # runs that touch byte 0 and the last byte
        flip[: draw(st.integers(1, n))] = True
        flip[n - draw(st.integers(1, n)) :] = True
    elif kind == "all":
        flip[:] = True
    elif kind == "ones":  # every other byte: the most one-byte runs
        flip[draw(st.integers(0, 1)) :: 2] = True
    elif kind == "random":
        flip = rng.random(n) < draw(st.floats(0, 1))
    return twin, twin ^ (flip * rng.integers(1, 256, n, dtype=np.uint8))


@given(page_pairs())
@settings(max_examples=300)
def test_kernels_match_the_reference_kernels(pair):
    twin, cur = pair
    got, want = compute_diff(twin, cur), reference_compute_diff(twin, cur)
    for d in (got, want):  # the kernel and ``Diff(runs)``: one representation
        assert d.edges.dtype == np.int32 and not d.edges.flags.writeable
    assert got.edges.tolist() == want.edges.tolist()
    assert got.payload == want.payload
    assert got == want and hash(got) == hash(want)
    out, ref_out = twin.copy(), twin.copy()
    apply_diff(out, got)
    reference_apply_diff(ref_out, want)
    assert np.array_equal(out, ref_out) and np.array_equal(out, cur)
    if len(got.offsets) > 1:
        assert np.array_equal(
            _scatter_index(got.offsets, got.lengths),
            _reference_scatter_index(want.offsets, want.lengths),
        )


# -- one edge buffer per diff ------------------------------------------


def _retained_bytes(d):
    """``sys.getsizeof`` over the diff and every distinct object it keeps
    alive: its slots' values and any array a view of them rests on."""
    import sys

    seen, stack = {}, [d]
    stack += [getattr(d, name) for name in Diff.__slots__]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or obj is None:
            continue
        seen[id(obj)] = sys.getsizeof(obj)
        if isinstance(obj, np.ndarray):
            stack.append(obj.base)
    return sum(seen.values())


#: the per-diff overhead that does not grow with its runs: the ``Diff``
#: object and the headers of its two ``bytes`` buffers (114 B; keeping
#: the edges as an ``ndarray`` would add ~80 B of array header)
FIXED_BYTES = 128


@pytest.mark.parametrize("k", [1, 8, 64])
def test_a_diff_retains_its_payload_eight_bytes_a_run_and_a_fixed_header(k):
    """A diff used to keep an ``int64`` edge array alive through its
    ``offsets`` view, a separate ``lengths`` array and a run-tuple cache:
    three arrays, 24 bytes a run and 545 bytes of headers, for a record
    the wire and the log cost at 8 bytes a run."""
    twin = np.zeros(4096, dtype=np.uint8)
    cur = twin.copy()
    for r in range(k):
        cur[r * 64 : r * 64 + 5] = r + 1
    d = compute_diff(twin, cur)
    assert len(d.offsets) == k and d.payload_bytes == 5 * k
    assert _retained_bytes(d) <= d.payload_bytes + 8 * k + FIXED_BYTES
    built = Diff(d.runs)
    assert _retained_bytes(built) <= d.payload_bytes + 8 * k + FIXED_BYTES


@given(bytes_pages, bytes_pages)
def test_derived_views_agree_with_the_run_tuples(twin, cur):
    d = compute_diff(twin, cur)
    runs = d.runs
    assert d.offsets.tolist() == [o for o, _ in runs]
    assert d.lengths.tolist() == [len(b) for _, b in runs]
    assert d.payload == b"".join(b for _, b in runs)
    again = Diff(runs)  # the tuples round-trip to the same diff
    assert again.runs == runs
    assert again.edges.tolist() == d.edges.tolist()
    assert again == d and hash(again) == hash(d)
    if runs:  # another byte, or the same bytes one position on, differ
        off, data = runs[-1]
        assert Diff(runs[:-1] + ((off, bytes([data[0] ^ 1]) + data[1:]),)) != d
        assert Diff(runs[:-1] + ((off + 1, data),)) != d
