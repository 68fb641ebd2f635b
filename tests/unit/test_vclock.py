"""Unit + property tests for vector timestamps."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dsm.vclock import MAX_COMPONENT, VClock, vmax, vmin

clocks = st.lists(st.integers(0, 50), min_size=4, max_size=4).map(VClock)


def test_zero_and_basics():
    z = VClock.zero(3)
    assert len(z) == 3
    assert z[0] == 0
    assert z == VClock((0, 0, 0))
    assert hash(z) == hash(VClock((0, 0, 0)))


def test_negative_component_rejected():
    with pytest.raises(ValueError):
        VClock((1, -1))


@pytest.mark.parametrize("w", [8, 128])
def test_a_component_past_int32_is_rejected_not_wrapped(w):
    """Wide clocks store ``int32``: every constructor and update holds a
    component to ``MAX_COMPONENT`` at every width, so none wraps."""
    top = MAX_COMPONENT
    z = VClock.zero(w)
    over = [0] * w
    over[3] = top + 1
    for make in (
        lambda: VClock(over),
        lambda: VClock.from_array(np.array(over, dtype=np.int64)),
        lambda: z.with_component(3, top + 1),
        lambda: z.with_components({1: 2, 3: top + 1}),
        lambda: z.with_component(3, top).bump(3),
    ):
        with pytest.raises(ValueError):
            make()
    edge = z.with_component(3, top)
    assert edge[3] == top and int(edge.as_array()[3]) == top
    assert edge == VClock.from_array(np.array(edge.v)) == VClock(edge.v)
    assert edge.join(z.with_component(2, top)).v[2:4] == (top, top)


def test_leq_and_lt():
    a = VClock((1, 2, 3))
    b = VClock((1, 3, 3))
    assert a.leq(b) and not b.leq(a)
    assert a.lt(b) and not a.lt(a)
    assert a.leq(a)


def test_concurrent():
    a = VClock((1, 0))
    b = VClock((0, 1))
    assert a.concurrent(b) and b.concurrent(a)
    assert not a.concurrent(a)


def test_join_meet():
    a = VClock((1, 5, 2))
    b = VClock((3, 0, 2))
    assert a.join(b) == VClock((3, 5, 2))
    assert a.meet(b) == VClock((1, 0, 2))


def test_bump_and_with_component():
    a = VClock((1, 1))
    assert a.bump(0) == VClock((2, 1))
    assert a.bump(1).bump(1) == VClock((1, 3))
    assert a.with_component(0, 9) == VClock((9, 1))
    assert a.with_components({1: 4, 0: 9}) == VClock((9, 4))
    with pytest.raises(IndexError):
        a.bump(5)
    with pytest.raises(IndexError):
        a.with_components({2: 1})
    with pytest.raises(ValueError):
        a.with_components({0: -1})


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        VClock((1,)).leq(VClock((1, 2)))


def test_vmin_vmax():
    cs = [VClock((1, 5)), VClock((3, 2)), VClock((2, 2))]
    assert vmin(cs) == VClock((1, 2))
    assert vmax(cs) == VClock((3, 5))
    with pytest.raises(ValueError):
        vmin([])


def test_immutability():
    a = VClock((1, 2))
    b = a.bump(0)
    assert a == VClock((1, 2))
    assert b == VClock((2, 2))


# -- properties ---------------------------------------------------------


@given(clocks, clocks)
def test_join_is_lub(a, b):
    j = a.join(b)
    assert a.leq(j) and b.leq(j)


@given(clocks, clocks)
def test_meet_is_glb(a, b):
    m = a.meet(b)
    assert m.leq(a) and m.leq(b)


@given(clocks, clocks, clocks)
def test_join_associative_commutative(a, b, c):
    assert a.join(b) == b.join(a)
    assert a.join(b).join(c) == a.join(b.join(c))


@given(clocks, clocks)
def test_partial_order_antisymmetry(a, b):
    if a.leq(b) and b.leq(a):
        assert a == b


@given(clocks, clocks, clocks)
def test_leq_transitive(a, b, c):
    if a.leq(b) and b.leq(c):
        assert a.leq(c)


@given(clocks, clocks)
def test_exactly_one_relation(a, b):
    relations = [a.lt(b), b.lt(a), a == b, a.concurrent(b)]
    assert sum(relations) == 1


@given(clocks, st.integers(0, 3))
def test_bump_strictly_increases(a, i):
    assert a.lt(a.bump(i))


@given(clocks, clocks)
def test_sum_is_linear_extension(a, b):
    # componentwise-sum ordering respects the partial order strictly:
    # the replay driver sorts diffs by it
    if a.lt(b):
        assert sum(a.v) < sum(b.v)


# -- lattice laws across representation widths --------------------------
#
# Widths straddle VClock.ARRAY_WIDTH so both the tuple path and the
# vectorized array path (and their interaction through lazy conversion)
# are exercised by the same laws.

LAW_WIDTHS = [2, 8, 64, 256]

_wide_pair = st.sampled_from(LAW_WIDTHS).flatmap(
    lambda w: st.tuples(
        st.just(w),
        st.lists(st.integers(0, 50), min_size=w, max_size=w),
        st.lists(st.integers(0, 50), min_size=w, max_size=w),
    )
)


@given(_wide_pair)
def test_lattice_laws_at_all_widths(wab):
    w, va, vb = wab
    a, b = VClock(va), VClock(vb)
    j, m = a.join(b), a.meet(b)
    # join/meet match the componentwise reference at every width
    assert j.v == tuple(map(max, va, vb))
    assert m.v == tuple(map(min, va, vb))
    # lub / glb laws
    assert a.leq(j) and b.leq(j)
    assert m.leq(a) and m.leq(b)
    # commutativity and absorption
    assert j == b.join(a) and m == b.meet(a)
    assert a.join(m) == a and a.meet(j) == a
    # leq agrees with the tuple reference
    assert a.leq(b) == all(x <= y for x, y in zip(va, vb))
    # zero is the bottom element
    assert VClock.zero(w).leq(a)
    assert VClock.zero(w).join(a) == a


@given(_wide_pair)
def test_array_and_tuple_representations_agree(wab):
    import numpy as np

    w, va, vb = wab
    a_t = VClock(va)  # tuple-backed
    a_a = VClock.from_array(np.array(va, dtype=np.int64))  # array-backed
    b = VClock(vb)
    assert a_t == a_a and hash(a_t) == hash(a_a)
    assert a_a.v == tuple(va)
    assert a_t.leq(b) == a_a.leq(b)
    assert a_t.join(b) == a_a.join(b)
    assert a_t.meet(b) == a_a.meet(b)
    assert a_a.bump(w - 1) == a_t.bump(w - 1)
    assert a_a.with_component(0, 7) == a_t.with_component(0, 7)
    # the batched form is the one-at-a-time form folded, on both backings
    updates = {w - 1: vb[w - 1], 0: 7}
    want = a_t.with_component(w - 1, vb[w - 1]).with_component(0, 7)
    assert a_a.with_components(updates) == want
    assert a_t.with_components(updates) == want
    assert a_a.v == tuple(va)  # immutable: the source is untouched
    assert list(a_a.as_array()) == list(va)


@given(_wide_pair)
def test_vmin_vmax_match_folds_at_all_widths(wab):
    w, va, vb = wab
    a, b, z = VClock(va), VClock(vb), VClock.zero(w)
    assert vmax([a, b, z]) == a.join(b)
    assert vmin([a, b, a]) == a.meet(b)


def test_wide_operand_interning():
    """Dominated join/meet return an operand (no allocation) on both paths."""
    for w in LAW_WIDTHS:
        lo = VClock((1,) * w)
        hi = VClock((2,) * w)
        assert hi.join(lo) is hi
        assert lo.join(hi) is hi
        assert lo.meet(hi) is lo
        assert hi.meet(lo) is lo


# -- wire encoding -------------------------------------------------------
#
# A reference codec: a stamp is sent dense (4 B per component) or as a
# bitmap of its nonzero components followed by those components,
# whichever is shorter; the one format bit travels outside the stamp.

ENCODING_WIDTHS = [1, 2, 8, 16, 64, 128, 256]


def _encode(v):
    """``(sparse?, bytes)`` of the shorter lossless form of ``v``."""
    dense = b"".join(x.to_bytes(4, "little") for x in v)
    bitmap = bytearray((len(v) + 7) // 8)
    for i, x in enumerate(v):
        if x:
            bitmap[i // 8] |= 1 << (i % 8)
    sparse = bytes(bitmap) + b"".join(x.to_bytes(4, "little") for x in v if x)
    return (True, sparse) if len(sparse) < len(dense) else (False, dense)


def _decode(is_sparse, data, n):
    if not is_sparse:
        return tuple(int.from_bytes(data[4 * i : 4 * i + 4], "little")
                     for i in range(n))
    nbitmap = (n + 7) // 8
    values = iter(
        int.from_bytes(data[k : k + 4], "little")
        for k in range(nbitmap, len(data), 4)
    )
    return tuple(
        next(values) if data[i // 8] >> (i % 8) & 1 else 0 for i in range(n)
    )


@pytest.mark.parametrize("w", ENCODING_WIDTHS)
@pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_wire_bytes_is_the_shorter_lossless_encoding(w, density):
    import random

    import numpy as np

    rng = random.Random(w * 1000 + int(density * 100))
    v = tuple(rng.randint(1, 2**31) if rng.random() < density else 0
              for _ in range(w))
    is_sparse, data = _encode(v)
    assert _decode(is_sparse, data, w) == v
    assert VClock(v).wire_bytes() == len(data)
    assert VClock.from_array(np.array(v, dtype=np.int64)).wire_bytes() == len(data)
    # a clock built by updates is sized from its own components
    built = VClock.zero(w).with_components({i: x for i, x in enumerate(v) if x})
    assert built == VClock(v) and built.wire_bytes() == len(data)


@pytest.mark.parametrize("w", ENCODING_WIDTHS)
def test_zero_clock_costs_its_bitmap(w):
    assert VClock.zero(w).wire_bytes() == (w + 7) // 8
    full = VClock((1,) * w)
    assert full.wire_bytes() == 4 * w  # dense: the bitmap would add
