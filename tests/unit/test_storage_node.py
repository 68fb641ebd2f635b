"""Unit tests for the disk/stable-storage and CPU-accounting models."""

import pytest

from repro.sim.engine import Engine
from repro.sim.node import CpuCosts, CpuModel, TimeBucket, TimeStats
from repro.sim.storage import CheckpointStore, Disk, DiskConfig


# -- disk ----------------------------------------------------------------


def test_write_cost_model():
    d = Disk(DiskConfig(seek_time=10e-3, write_bandwidth=10e6))
    assert d.write_cost(0) == 0.0
    assert d.write_cost(-5) == 0.0
    assert d.write_cost(10_000_000) == pytest.approx(10e-3 + 1.0)
    # traffic is charged where the write happens, not by the disk
    assert (d.bytes_written, d.write_time) == (0, 0.0)


def test_disk_read():
    d = Disk(DiskConfig(seek_time=1e-3, read_bandwidth=1e6))
    assert d.read_cost(0) == 0.0
    assert d.read_cost(2000) == pytest.approx(3e-3)


# -- checkpoint store ------------------------------------------------------


def test_store_put_get_delete():
    s = CheckpointStore(0)
    s.put(("ckpt", 1), {"x": 1}, size=100)
    s.put(("log", 2), "data", size=50)
    assert ("ckpt", 1) in s
    assert s.get(("ckpt", 1)) == {"x": 1}
    assert s.used_bytes == 150
    assert s.delete(("log", 2)) == 50
    assert s.used_bytes == 100
    assert ("log", 2) not in s


def test_store_negative_size_rejected():
    s = CheckpointStore(0)
    with pytest.raises(ValueError):
        s.put("k", "v", size=-1)


# -- time accounting ---------------------------------------------------------


def test_time_stats_buckets():
    ts = TimeStats()
    ts.add(TimeBucket.COMPUTE, 2.0)
    ts.add(TimeBucket.LOCK_WAIT, 1.0)
    assert ts.total == 3.0
    assert ts.fraction(TimeBucket.COMPUTE) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        ts.add(TimeBucket.COMPUTE, -1.0)


def test_time_stats_merge_and_dict():
    a, b = TimeStats(), TimeStats()
    a.add(TimeBucket.COMPUTE, 1.0)
    b.add(TimeBucket.COMPUTE, 2.0)
    b.add(TimeBucket.OVERHEAD, 1.0)
    m = a.merged(b)
    assert m.seconds[TimeBucket.COMPUTE] == 3.0
    assert m.as_dict()["overhead"] == 1.0


def test_time_buckets_hash_by_identity_and_nothing_reads_the_value():
    """``TimeStats`` is a dict keyed by members and charged on every
    access; the keys' order is insertion order and a copy that went
    through a checkpoint (pickle, deep copy) is keyed by the same
    singletons."""
    import copy
    import pickle

    assert TimeBucket.__hash__ is object.__hash__
    order = [
        "compute", "page_wait", "lock_wait", "barrier_wait", "overhead",
        "log_ckpt",
    ]
    assert list(TimeStats().as_dict()) == order
    ts = TimeStats()
    for k, bucket in enumerate(TimeBucket, start=1):
        ts.add(bucket, k / 8)
    state = {"step": 3, "stats": ts, "bucket": TimeBucket.LOG_CKPT}
    for restored in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
        assert restored["bucket"] is TimeBucket.LOG_CKPT
        back = restored["stats"]
        assert all(a is b for a, b in zip(back.seconds, TimeBucket))
        assert back.as_dict() == ts.as_dict()
        assert list(back.merged(ts).as_dict()) == order
        back.add(TimeBucket.OVERHEAD, 1.0)  # still the live keys
        assert back.seconds[TimeBucket.OVERHEAD] == ts.seconds[TimeBucket.OVERHEAD] + 1.0


def test_cpu_handler_debt_drains_to_overhead():
    eng = Engine()
    cpu = CpuModel()
    cpu.accrue_handler(5e-6)
    cpu.accrue_handler(3e-6)

    def proc():
        yield from cpu.drain_debt()

    eng.spawn(proc())
    eng.run()
    assert eng.now == pytest.approx(8e-6)
    assert cpu.stats.seconds[TimeBucket.OVERHEAD] == pytest.approx(8e-6)
    assert cpu.handler_debt == 0.0


def test_cpu_charge_advances_time():
    eng = Engine()
    cpu = CpuModel()

    def proc():
        yield from cpu.charge(TimeBucket.COMPUTE, 1e-3)
        yield from cpu.charge(TimeBucket.LOG_CKPT, 0.0)  # zero charge ok

    eng.spawn(proc())
    eng.run()
    assert eng.now == pytest.approx(1e-3)
    assert cpu.stats.seconds[TimeBucket.COMPUTE] == pytest.approx(1e-3)


def test_negative_costs_rejected():
    cpu = CpuModel()
    with pytest.raises(ValueError):
        cpu.accrue_handler(-1.0)


# ----------------------------------------------------------------------
# commit markers (two-phase stable-storage writes)
# ----------------------------------------------------------------------


def test_begin_put_leaves_key_pending_until_commit():
    store = CheckpointStore(0)
    store.begin_put("k", "v", 10)
    assert "k" in store and store.is_pending("k")
    assert store.pending_keys() == ["k"] and store.committed_keys() == []
    store.commit_put("k")
    assert not store.is_pending("k")
    assert store.pending_keys() == [] and store.committed_keys() == ["k"]
    store.begin_put("torn", "v", 10)
    assert store.discard_pending() == 1  # the torn one only
    assert store.keys() == ["k"] and store.discard_pending() == 0


def test_plain_put_and_delete_clear_pending():
    store = CheckpointStore(0)
    store.begin_put("a", 1, 4)
    store.put("a", 2, 4)  # atomic overwrite commits implicitly
    assert not store.is_pending("a")
    store.begin_put("b", 1, 4)
    assert store.delete("b") == 4
    assert store.pending_keys() == []


def test_commit_put_unknown_key_raises():
    store = CheckpointStore(0)
    with pytest.raises(KeyError):
        store.commit_put("missing")
