"""Unit + property tests for application helpers and numerics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.barnes import (
    NODE_W,
    Allocator,
    BarnesConfig,
    _Tree,
    plummer_bodies,
)
from repro.apps.base import block_partition
from repro.apps.lu import LuConfig, _factor_diag, _initial_matrix, reference_lu
from repro.apps.water_spatial import WaterSpatialConfig, _cell_of, _neighbors


# -- the app table --------------------------------------------------------


def test_make_app_maps_the_generic_knobs_per_app():
    from repro.apps import APPS, make_app

    for name, spec in APPS.items():
        defaults = spec.config()
        app = make_app(name, steps=7, size=96, rate=1234.0)
        assert isinstance(app, spec.app) and type(app.cfg) is spec.config
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


# -- Barnes octree properties ------------------------------------------------


def build_tree(cfg, pos, order):
    nodes = np.zeros(cfg.nodes_cap() * NODE_W)
    tree = _Tree(nodes, cfg)
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    center = (lo + hi) / 2
    half = float((hi - lo).max() / 2 * 1.01 + 1e-9)
    counter = [0]

    def take():
        counter[0] += 1
        return counter[0]

    alloc = Allocator(pos)
    alloc.take = take
    root = take()
    tree.init_internal(root, center[0], center[1], center[2], half)
    for b in order:
        tree.insert(root, b, pos[b], alloc)
    tree.compute_com(root, pos)
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
    for b in (0, 7, 15):
        acc, _ = tree.force_on(root, b, pos[b])
        direct = np.zeros(3)
        for j in range(cfg.n_bodies):
            if j == b:
                continue
            d = pos[j] - pos[b]
            r2 = d @ d + eps2
            direct += d / (r2 * np.sqrt(r2))
        np.testing.assert_allclose(acc, direct, rtol=1e-9)


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
# session app: memoised request draws
# ---------------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 255), st.integers(0, 10_000))
def test_session_cached_draws_equal_fresh_generator_draws(seed, pid, r):
    from repro.apps import session as s

    fresh = np.random.default_rng((seed, pid, s._REQUEST_STREAM, r)).random(4)
    for _ in range(2):  # a miss, then a hit
        assert s._request_draws(seed, pid, r) == tuple(fresh)
    home = np.random.default_rng((seed, pid, s._ARRIVAL_STREAM, r)).random()
    for _ in range(2):
        assert s._home_draw(seed, pid, r) == home


def test_session_request_params_match_the_unmemoised_scheme():
    """The whole of ``_request_params`` against the scheme it replaced
    (two generators per request, NumPy scalars throughout); two seeds
    never share a cache entry; ``expected_total`` is what it always was."""
    from repro.apps import session as s

    def reference(cfg, cdf, pid, r):
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
        return user, min(key, cfg.n_keys - 1), bool(u_rw < cfg.read_fraction)

    seen = {}
    for seed in (42, 43):
        cfg = s.SessionConfig(seed=seed)
        cdf = s._zipf_cdf(cfg)
        for pid in range(4):
            for r in range(cfg.steps * cfg.requests_per_step):
                got = s._request_params(cfg, cdf, pid, r)
                assert got == reference(cfg, cdf, pid, r)
                seen[seed, pid, r] = got
    assert any(seen[42, p, r] != seen[43, p, r] for (_, p, r) in seen)
    # default config, 4 processes: pinned before the memo existed
    assert s.SessionApp().expected_total(4) == 105.0


def test_session_draw_caches_are_bounded():
    from repro.apps import session as s

    assert 0 < s._DRAW_CACHE <= 1 << 16  # a few MB of tuples at most
    for cache in (s._request_draws, s._home_draw):
        assert cache.cache_info().maxsize == s._DRAW_CACHE
