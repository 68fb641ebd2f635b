"""Unit + property tests for application helpers and numerics."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import barnes
from repro.apps.barnes import (
    EMPTY,
    LEAF,
    NODE_W,
    Allocator,
    BarnesConfig,
    _Tree,
    plummer_bodies,
    reference_barnes,
)
from repro.apps.base import _golden, block_partition, golden
from repro.apps.lu import LuConfig, _factor_diag, _initial_matrix, reference_lu
from repro.apps.water import _initial_conditions
from repro.apps.water_nsq import _pair_forces, reference_water_nsq
from repro.apps.water_spatial import (
    WaterSpatialConfig,
    _cell_forces,
    _cell_of,
    _neighbors,
    reference_water_spatial,
)
from repro.faultinject.mutants import MUTANTS
from repro.harness.experiment import paper_setups


# -- the app table --------------------------------------------------------


def test_make_app_maps_the_generic_knobs_per_app():
    from repro.apps import APPS, make_app

    for name, spec in APPS.items():
        defaults = spec.app.Config()
        app = make_app(name, **spec.fields(steps=7, size=96, rate=1234.0))
        assert isinstance(app, spec.app) and type(app.cfg) is spec.app.Config
        assert getattr(app.cfg, spec.size_field) == 96
        assert app.cfg.steps == (7 if spec.has_steps else defaults.steps)
        if spec.has_rate:
            assert app.cfg.rate == 1234.0
        assert make_app(name).cfg == defaults  # unset knobs keep the defaults
    assert [n for n, s in APPS.items() if not s.has_steps] == ["lu"]
    assert [n for n, s in APPS.items() if s.has_rate] == ["session"]


# -- block_partition ------------------------------------------------------


@given(st.integers(0, 200), st.integers(1, 16))
def test_block_partition_covers_exactly(n_items, n_procs):
    parts = [block_partition(n_items, n_procs, p) for p in range(n_procs)]
    flat = [i for part in parts for i in part]
    assert flat == list(range(n_items))


@given(st.integers(0, 200), st.integers(1, 16))
def test_block_partition_balanced(n_items, n_procs):
    sizes = [len(block_partition(n_items, n_procs, p)) for p in range(n_procs)]
    assert max(sizes) - min(sizes) <= 1


# -- water-spatial cells -----------------------------------------------------


def test_cell_of_in_range():
    rng = np.random.default_rng(0)
    pos = rng.uniform(0, 1, (100, 3))
    cells = _cell_of(pos, 4)
    assert ((cells >= 0) & (cells < 64)).all()


def test_neighbors_contains_self_and_wraps():
    nb = _neighbors(0, 4)
    assert 0 in nb
    assert len(nb) == 27  # distinct with wrap-around at c=4
    # wrap: cell 0's neighbourhood includes the far corner
    assert (3 * 16 + 3 * 4 + 3) in nb


def test_neighbors_small_grid_dedupes():
    nb = _neighbors(0, 2)
    assert len(nb) == 8  # 2^3 cells total, all are neighbours


# -- the water system --------------------------------------------------------


#: sha256 of each water golden output at ``paper_setups("smoke")`` sizes,
#: recorded on the commit before the two apps shared one water module
WATER_SHA256 = {
    "water-nsq": (
        reference_water_nsq,
        "1c643d5ff2579b00f8485973b3d38c386251c2431f7659f2e911750ea1360450",
    ),
    "water-spatial": (
        reference_water_spatial,
        "61948fa2f881bd7aff371b8bdefe4a805fa392f3c2a17072bb61a840bc8b61b3",
    ),
}


@pytest.mark.parametrize("name", sorted(WATER_SHA256))
def test_reference_water_output_is_pinned_bitwise(name):
    model, sha = WATER_SHA256[name]
    cfg = next(s for s in paper_setups("smoke") if s.name == name).make_app().cfg
    assert hashlib.sha256(model(cfg).tobytes()).hexdigest() == sha


def test_cell_forces_equal_all_pairs_forces():
    """Cells at least a cutoff wide see every pair within the cutoff, so
    Water-Spatial's decomposition computes Water-Nsquared's forces (up to
    the order of summation)."""
    cfg = WaterSpatialConfig(n_molecules=64, cells_per_side=4, cutoff=0.25)
    pos, _vel = _initial_conditions(cfg)
    pairs, npairs = _pair_forces(pos, 0, cfg.n_molecules, cfg.cutoff)
    assert npairs > cfg.n_molecules  # the cutoff is not vacuous
    np.testing.assert_allclose(_cell_forces(cfg, pos), pairs, rtol=1e-12, atol=1e-15)


# -- Barnes octree properties ------------------------------------------------


def build_into(nodes, cfg, pos, order, skip_every=0):
    """Build the octree of ``order`` in the pool ``nodes`` as it is
    (stale records stay); with ``skip_every`` the allocator leaves every
    so-manieth id unused, as the app's chunked allocation does.
    Returns the tree, its root and the number of ids handed out."""
    tree = _Tree(nodes, cfg)
    sub = pos[list(order)]
    lo, hi = sub.min(axis=0), sub.max(axis=0)
    center = (lo + hi) / 2
    half = float((hi - lo).max() / 2 * 1.01 + 1e-9)
    counter = [0]

    def take():
        counter[0] += 1
        if skip_every and counter[0] % skip_every == 0:
            counter[0] += 1
        return counter[0]

    alloc = Allocator(pos, take)
    root = take()
    tree.init_internal(root, center[0], center[1], center[2], half)
    for b in order:
        tree.insert(root, b, pos[b], alloc)
    tree.compute_com(root, pos)
    return tree, root, counter[0] + 1


def build_tree(cfg, pos, order):
    nodes = np.zeros(cfg.nodes_cap() * NODE_W)
    tree, root, _used = build_into(nodes, cfg, pos, order)
    return tree, root


def leaf_depths(tree, root):
    from repro.apps.barnes import F_BODY, F_CHILD0, F_TYPE

    out = {}
    stack = [(root, 1)]
    while stack:
        nd, d = stack.pop()
        rec = tree.nodes[nd]
        if rec[F_TYPE] == 1.0:
            out[int(rec[F_BODY])] = d
        elif rec[F_TYPE] == 2.0:
            for o in range(8):
                c = int(rec[F_CHILD0 + o])
                if c >= 0:
                    stack.append((c, d + 1))
    return out


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 1000))
def test_octree_shape_is_insertion_order_independent(seed):
    """The canonical-octree property the distributed build relies on."""
    cfg = BarnesConfig(n_bodies=24, seed=seed % 7 + 1)
    pos, _ = plummer_bodies(cfg)
    rng = np.random.default_rng(seed)
    order1 = list(range(cfg.n_bodies))
    order2 = list(rng.permutation(cfg.n_bodies))
    t1, r1 = build_tree(cfg, pos, order1)
    t2, r2 = build_tree(cfg, pos, order2)
    assert leaf_depths(t1, r1) == leaf_depths(t2, r2)


def test_octree_mass_conserved():
    cfg = BarnesConfig(n_bodies=32)
    pos, _ = plummer_bodies(cfg)
    tree, root = build_tree(cfg, pos, range(cfg.n_bodies))
    from repro.apps.barnes import F_MASS

    assert tree.nodes[root][F_MASS] == pytest.approx(cfg.n_bodies)


def test_octree_force_far_field_matches_direct():
    """With theta=0 the BH force equals the direct sum."""
    cfg = BarnesConfig(n_bodies=16, theta=0.0)
    pos, _ = plummer_bodies(cfg)
    tree, root = build_tree(cfg, pos, range(cfg.n_bodies))
    eps2 = cfg.softening**2
    accs, _ = tree.forces(root, (0, 7, 15), pos)
    for b, acc in zip((0, 7, 15), accs):
        direct = np.zeros(3)
        for j in range(cfg.n_bodies):
            if j == b:
                continue
            d = pos[j] - pos[b]
            r2 = d @ d + eps2
            direct += d / (r2 * np.sqrt(r2))
        np.testing.assert_allclose(acc, direct, rtol=1e-9)


# -- Barnes force kernel: bit-level ------------------------------------------


def scalar_force_on(tree, root, body, p):
    """The per-body scalar loop ``_Tree.forces`` replaced, verbatim: the
    differential oracle for the kernel's accelerations and counts."""
    cfg = tree.cfg
    nd = tree.nodes
    types = nd[:, barnes.F_TYPE].tolist()
    bodies = nd[:, barnes.F_BODY].tolist()
    masses = nd[:, barnes.F_MASS].tolist()
    halves = nd[:, barnes.F_HALF].tolist()
    com = np.ascontiguousarray(nd[:, barnes.F_MX : barnes.F_MZ + 1])
    children = (
        nd[:, barnes.F_CHILD0 : barnes.F_CHILD0 + 8].astype(np.int64).tolist()
    )
    dmat = com - p
    r2s = (
        np.matmul(dmat[:, None, :], dmat[:, :, None]).ravel()
        + cfg.softening**2
    ).tolist()
    ds = dmat.tolist()
    sqrt = math.sqrt
    ax = ay = az = 0.0
    interactions = 0
    stack = [root]
    theta2 = cfg.theta**2
    while stack:
        node = stack.pop()
        ty = types[node]
        mass = masses[node]
        if ty == EMPTY or mass <= 0.0:
            continue
        r2 = r2s[node]
        if ty == LEAF:
            if bodies[node] != body:
                s = r2 * sqrt(r2)
                dx, dy, dz = ds[node]
                ax += mass * dx / s
                ay += mass * dy / s
                az += mass * dz / s
                interactions += 1
            continue
        size = 2.0 * halves[node]
        if size * size < theta2 * r2:
            s = r2 * sqrt(r2)
            dx, dy, dz = ds[node]
            ax += mass * dx / s
            ay += mass * dy / s
            az += mass * dz / s
            interactions += 1
        else:
            # push high octant first so octant 0 pops first, exactly
            # like the original descending-range loop
            for c in reversed(children[node]):
                if c >= 0:
                    stack.append(c)
    return np.array((ax, ay, az)), interactions


FORCE_SHAPES = [  # (n_bodies, theta); the seed is the position in the list
    (1, 0.6), (2, 0.6), (3, 0.0), (16, 0.0), (16, 0.3), (24, 0.6), (24, 1.0),
    (33, 0.6), (40, 0.6), (40, 0.8), (57, 0.9), (64, 0.0), (64, 0.6),
    (64, 1.5), (96, 0.4), (96, 0.6), (128, 0.6), (128, 0.7), (160, 0.5),
    (160, 0.6),
]


def force_cases():
    """``(name, pool, cfg, pos, root, used)`` over seeded Plummer spheres."""
    for seed, (n, theta) in enumerate(FORCE_SHAPES, start=1):
        cfg = BarnesConfig(n_bodies=n, theta=theta, seed=seed)
        pos, _ = plummer_bodies(cfg)
        nodes = np.zeros(cfg.nodes_cap() * NODE_W)
        _tree, root, used = build_into(nodes, cfg, pos, range(n))
        yield f"n={n} theta={theta}", nodes, cfg, pos, root, used
    # a pool a larger tree was built in before: stale records beyond the
    # allocated ids and, because this allocator skips ids as the app's
    # chunked one does, between them; bodies 20.. are not in the tree
    cfg = BarnesConfig(n_bodies=96, seed=5)
    pos, _ = plummer_bodies(cfg)
    nodes = np.zeros(cfg.nodes_cap() * NODE_W)
    _tree, _root, before = build_into(nodes, cfg, pos, range(96))
    _tree, root, used = build_into(nodes, cfg, pos, range(20), skip_every=3)
    recs = nodes.reshape(-1, NODE_W)
    assert used < before and recs[used:before, barnes.F_MASS].all()
    holes = recs[3:used:3, barnes.F_CHILD0 : barnes.F_CHILD0 + 8]
    assert (holes >= used).any()  # a stale child id beyond the slice
    yield "stale pool", nodes, cfg, pos, root, used


def check_kernel_against_scalar(nodes, cfg, pos, root, used):
    """Whole pool and allocated prefix; all bodies at once, one at a
    time and in ragged blocks: the scalar loop's bits and counts."""
    bodies = list(range(len(pos)))
    whole = _Tree(nodes, cfg)
    want = [scalar_force_on(whole, root, b, pos[b]) for b in bodies]
    want_acc = np.array([a for a, _ in want])
    want_counts = [c for _, c in want]
    parts = [bodies] + [
        bodies[k : k + width]
        for k in range(0, len(bodies), 7)
        for width in (1, 5)
    ]
    for pool in (nodes, nodes[: used * NODE_W]):
        tree = _Tree(pool, cfg)
        for part in parts:
            acc, counts = tree.forces(root, part, pos)
            assert counts == [want_counts[b] for b in part]
            assert np.array_equal(
                acc.view(np.uint64), want_acc[part].view(np.uint64)
            )
    return sum(want_counts)


def test_force_kernel_is_bit_identical_to_the_scalar_loop():
    cases = list(force_cases())
    assert len(cases) > 20
    interactions = 0
    for name, *case in cases:
        try:
            interactions += check_kernel_against_scalar(*case)
        except AssertionError as exc:
            raise AssertionError(f"{name}: not the scalar loop's bits") from exc
    assert interactions > 50_000  # the comparison was not of empty sums


def test_force_kernel_with_no_bodies_and_with_a_dead_root():
    cfg = BarnesConfig(n_bodies=8)
    pos, _ = plummer_bodies(cfg)
    tree, root = build_tree(cfg, pos, range(8))
    acc, counts = tree.forces(root, [], pos)
    assert acc.shape == (0, 3) and counts == []
    empty = _Tree(np.zeros(4 * NODE_W), cfg)
    acc, counts = empty.forces(1, [0, 1], pos)
    assert acc.shape == (2, 3) and not acc.any() and counts == [0, 0]
    assert scalar_force_on(empty, 1, 0, pos[0])[1] == 0


def test_force_oracle_catches_a_reassociated_sum():
    """``np.sum`` adds the same terms in another order: the last bits
    move, ``check_result``'s rtol=1e-9 passes it, the oracle must not."""
    _name, *case = next(c for c in force_cases() if c[0] == "n=40 theta=0.6")
    nodes, cfg, pos, root, _used = case
    check_kernel_against_scalar(*case)
    exact, _ = _Tree(nodes, cfg).forces(root, range(40), pos)
    with MUTANTS["pairwise_sum"]():
        with pytest.raises(AssertionError):
            check_kernel_against_scalar(*case)
        mutant, counts = _Tree(nodes, cfg).forces(root, range(40), pos)
    np.testing.assert_allclose(mutant, exact, rtol=1e-9, atol=1e-12)
    assert not np.array_equal(mutant, exact) and min(counts) > 8


#: the ledger's ``paper8`` Barnes size (``harness/experiment.py``) and the
#: sha256 of its golden output at seed 42, recorded on the commit before
#: the collect-then-evaluate kernel
HARNESS_BARNES = dict(
    n_bodies=160, steps=16, force_cost=30e-6, insert_cost=10e-6, com_cost=2e-6
)
HARNESS_BARNES_SHA256 = (
    "3eb7f226e4c861f8ef048b461fa3ba92a527b76a21e4e96e030c5c30b4a2bb07"
)


def test_reference_barnes_output_is_pinned_bitwise():
    out = reference_barnes(BarnesConfig(seed=42, **HARNESS_BARNES))
    assert hashlib.sha256(out.tobytes()).hexdigest() == HARNESS_BARNES_SHA256


# -- the golden-output helper ------------------------------------------------


@pytest.fixture
def model_calls(monkeypatch):
    """Configs ``reference_barnes`` was called with, from an empty table."""
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return reference_barnes(cfg)

    monkeypatch.setattr(barnes, "reference_barnes", counted)
    _golden.cache_clear()
    yield calls
    _golden.cache_clear()


def run_small_barnes(**cfg):
    from tests.conftest import make_app, make_cluster

    app = make_app("barnes", **{"n_bodies": 32, "steps": 1, **cfg})
    cluster = make_cluster(2)
    cluster.run(app)  # checks the result once
    return app, cluster


def test_golden_model_is_integrated_once_per_config(model_calls):
    app, cluster = run_small_barnes()
    assert len(model_calls) == 1
    app.check_result(cluster)
    run_small_barnes()  # an equal config in another app object
    assert len(model_calls) == 1
    for n, change in enumerate(({"theta": 0.5}, {"seed": 7}, {"steps": 2}), 2):
        run_small_barnes(**change)
        assert len(model_calls) == n
    want = golden(barnes.reference_barnes, app.cfg)
    assert len(model_calls) == 4 and not want.flags.writeable
    with pytest.raises(ValueError):
        want[0] = 0.0


def test_golden_hit_still_compares_the_result(model_calls):
    app, cluster = run_small_barnes()
    snapshot = cluster.shared_snapshot
    cluster.shared_snapshot = lambda region: snapshot(region) + 1e-6
    with pytest.raises(AssertionError):
        app.check_result(cluster)
    assert len(model_calls) == 1


def test_golden_model_failure_is_not_cached(model_calls):
    bad = BarnesConfig(seed=80036015, **HARNESS_BARNES)
    for calls in (1, 2):
        with pytest.raises(RuntimeError, match="octree depth cap exceeded"):
            golden(barnes.reference_barnes, bad)
        assert len(model_calls) == calls
    assert _golden.cache_info().currsize == 0


def test_golden_table_is_bounded(model_calls):
    bound = _golden.cache_info().maxsize
    assert 0 < bound <= 16
    for seed in range(bound + 3):
        cfg = BarnesConfig(n_bodies=4, steps=1, seed=seed)
        golden(barnes.reference_barnes, cfg)
        assert _golden.cache_info().currsize <= bound
    assert len(model_calls) == bound + 3


# -- LU helpers ---------------------------------------------------------------


def test_factor_diag_is_lu():
    rng = np.random.default_rng(1)
    a = rng.uniform(-1, 1, (8, 8)) + 8 * np.eye(8)
    orig = a.copy()
    _factor_diag(a)
    l = np.tril(a, -1) + np.eye(8)
    u = np.triu(a)
    np.testing.assert_allclose(l @ u, orig, rtol=1e-10)


def test_lu_config_validation():
    with pytest.raises(ValueError):
        LuConfig(matrix_size=10, block_size=4).n_blocks


def test_plummer_sorted_by_radius():
    pos, vel = plummer_bodies(BarnesConfig(n_bodies=64))
    r = np.einsum("ij,ij->i", pos, pos)
    assert (np.diff(r) >= 0).all()
    assert vel.shape == (64, 3)


# ---------------------------------------------------------------------------
# session app: one memoised request table per (config, pid)
# ---------------------------------------------------------------------------
def _unmemoised_requests(cfg, pid):
    """The scheme the request table replaced: a fresh arrival generator
    per incarnation, two generators per request, NumPy scalars
    throughout."""
    from repro.apps import session as s

    n = cfg.steps * cfg.requests_per_step
    arrivals = np.cumsum(
        np.random.default_rng((cfg.seed, pid, s._ARRIVAL_STREAM))
        .exponential(1.0 / cfg.rate, size=n)
    )
    cdf = s._zipf_cdf(cfg)
    out = []
    for r in range(n):
        rng = np.random.default_rng((cfg.seed, pid, s._REQUEST_STREAM, r))
        u_user, u_aff, u_key, u_rw = rng.random(4)
        user = int(u_user * cfg.n_users) % cfg.n_users
        if u_aff < cfg.session_affinity:
            home = np.random.default_rng(
                (cfg.seed, pid, s._ARRIVAL_STREAM, user)
            )
            key = int(np.searchsorted(cdf, home.random()))
        else:
            key = int(np.searchsorted(cdf, u_key))
        out.append((float(arrivals[r]), min(key, cfg.n_keys - 1),
                    bool(u_rw < cfg.read_fraction)))
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 255), st.integers(1, 4),
       st.integers(1, 8), st.sampled_from([0.0, 0.6, 1.0]))
def test_session_cached_draws_equal_fresh_generator_draws(
    seed, pid, steps, per_step, affinity
):
    from repro.apps import session as s

    cfg = s.SessionConfig(
        seed=seed, steps=steps, requests_per_step=per_step,
        session_affinity=affinity,
    )
    want = _unmemoised_requests(cfg, pid)
    for _ in range(2):  # a miss, then a hit
        got = s.request_table(cfg, pid)
        assert list(got) == want
        assert all(type(a) is float and type(k) is int and type(rd) is bool
                   for a, k, rd in got)


def test_session_request_params_match_the_unmemoised_scheme():
    """The request table against the scheme it replaced, bit for bit,
    arrival times included; two seeds never share a cache entry;
    ``expected_total`` is what it always was."""
    from repro.apps import session as s

    seen = {}
    for seed in (42, 43):
        cfg = s.SessionConfig(seed=seed)
        for pid in range(4):
            got = s.request_table(cfg, pid)
            assert list(got) == _unmemoised_requests(cfg, pid)
            for r, request in enumerate(got):
                seen[seed, pid, r] = request
    assert any(seen[42, p, r] != seen[43, p, r] for (_, p, r) in seen)
    # default config, 4 processes: pinned before the memo existed
    assert s.SessionApp().expected_total(4) == 105.0


def test_session_draw_caches_are_bounded():
    from repro.apps import session as s

    assert 0 < s._TABLE_CACHE <= 256  # a few MB of tuples at most
    assert s._request_table.cache_info().maxsize == s._TABLE_CACHE
