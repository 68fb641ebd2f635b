"""Unit tests for regions, page tables and home assignment."""

import pytest

from repro.dsm.config import DsmConfig
from repro.dsm.pages import PageId, RegionSet, SharedRegion


def cfg(**kw):
    return DsmConfig(**{"num_procs": 4, "page_size": 64, **kw})


def test_region_geometry():
    r = SharedRegion(0, "r", num_elements=20, dtype="float64", config=cfg())
    # 20 * 8 = 160 bytes -> 3 pages of 64
    assert r.num_pages == 3
    assert r.nbytes == 192
    assert r.elems_per_page == 8


def test_pages_for_range():
    r = SharedRegion(0, "r", 24, "float64", cfg())
    assert list(r.pages_for_range(0, 1)) == [0]
    assert list(r.pages_for_range(7, 8)) == [0]
    assert list(r.pages_for_range(8, 9)) == [1]
    assert list(r.pages_for_range(0, 8)) == [0]
    assert list(r.pages_for_range(7, 9)) == [0, 1]
    assert list(r.pages_for_range(0, 24)) == [0, 1, 2]
    assert list(r.pages_for_range(5, 5)) == []
    for lo, hi in ((24, 25), (-1, 3), (20, 25)):
        with pytest.raises(IndexError):
            r.pages_for_range(lo, hi)


def test_page_slice():
    r = SharedRegion(0, "r", 24, "float64", cfg())
    assert r.page_slice(1) == (64, 128)


def test_round_robin_homes():
    r = SharedRegion(0, "r", 64, "float64", cfg())  # 8 pages
    assert [r.home_of(i) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]
    assert r.pages_homed_at(1) == [1, 5]


def test_region_set_allocation_and_seal():
    rs = RegionSet(cfg())
    a = rs.allocate("a", 16)
    b = rs.allocate("b", 8, dtype="int64")
    assert a.region_id == 0 and b.region_id == 1
    assert len(rs) == 2
    assert rs.total_bytes == a.nbytes + b.nbytes
    rs.seal()
    with pytest.raises(RuntimeError):
        rs.allocate("c", 4)


def test_region_set_page_ids_and_homes():
    rs = RegionSet(cfg())
    a = rs.allocate("a", 16)  # 2 pages
    assert [a.page_id(i) for i in range(2)] == [PageId(0, 0), PageId(0, 1)]
    assert rs.home_of(PageId(0, 1)) == 1
    assert PageId(0, 0) in rs.pages_homed_at(0)


def test_small_region_still_one_page():
    r = SharedRegion(0, "tiny", 1, "float64", cfg())
    assert r.num_pages == 1


def test_bad_page_size_rejected():
    with pytest.raises(ValueError):
        DsmConfig(page_size=100)  # not multiple of 8
    with pytest.raises(ValueError):
        DsmConfig(page_size=4)


def test_config_validation():
    with pytest.raises(ValueError):
        DsmConfig(num_procs=0)
    # the home placement and the barrier manager are constants, not knobs
    for constant in ("home_policy", "barrier_manager"):
        with pytest.raises(TypeError):
            DsmConfig(**{constant: 0})
    c = DsmConfig(num_procs=4)
    assert c.lock_manager(6) == 2
