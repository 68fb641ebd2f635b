"""Unit tests for the network model."""

import pytest

from repro.sim.engine import Engine
from repro.sim.network import Network, NetworkConfig


def make_net(n=3, **cfg):
    eng = Engine()
    net = Network(eng, n, NetworkConfig(**cfg))
    inbox = {i: [] for i in range(n)}
    for i in range(n):
        net.register(i, lambda src, msg, i=i: inbox[i].append((src, msg)))
    return eng, net, inbox


def test_delivery_and_latency():
    eng, net, inbox = make_net(latency=10e-6, bandwidth=100e6)
    net.send(0, 1, "hello", size=1000, category="x")
    eng.run()
    assert inbox[1] == [(0, "hello")]
    assert eng.now == pytest.approx(10e-6 + 1000 / 100e6)


def test_fifo_per_channel_even_when_sizes_differ():
    eng, net, inbox = make_net(latency=10e-6, bandwidth=1e6)
    # big message first: takes 1ms; small one would overtake without FIFO
    net.send(0, 1, "big", size=1000, category="x")
    net.send(0, 1, "small", size=1, category="x")
    eng.run()
    assert [m for _, m in inbox[1]] == ["big", "small"]


def test_fifo_when_the_clamped_time_rounds_down():
    """The second send's arrival is clamped to the first's, but
    ``now + (arrival - now)`` rounds one ulp below it at this ``now``:
    the delivery may not overtake (kvstore seed 5, 4 nodes, replicated,
    delivered a ReplicaUpdate ahead of a PageFetchReply this way)."""
    eng, net, inbox = make_net(latency=20e-6, bandwidth=100e6)
    for t, name, size in ((2.056e-05, "first", 4106), (2.088e-05, "second", 1)):
        eng.schedule(t, lambda name=name, size=size: net.send(
            0, 1, name, size=size, category="x"))
    eng.run()
    assert [m for _, m in inbox[1]] == ["first", "second"]


def test_channels_are_independent():
    eng, net, inbox = make_net(latency=10e-6, bandwidth=1e6)
    net.send(0, 1, "big", size=100000, category="x")
    net.send(0, 2, "small", size=1, category="x")
    seen = []
    eng.schedule(1e-3, lambda: seen.append((bool(inbox[1]), bool(inbox[2]))))
    eng.run()
    assert seen == [(False, True)]


def test_loopback_rejected():
    eng, net, _ = make_net()
    with pytest.raises(ValueError):
        net.send(1, 1, "x", size=10, category="x")


def test_bad_sizes_rejected():
    eng, net, _ = make_net()
    with pytest.raises(ValueError):
        net.send(0, 1, "x", size=-1, category="x")
    with pytest.raises(ValueError):
        net.send(0, 1, "x", size=10, category="x", ft_bytes=11)


def test_traffic_accounting_by_category():
    eng, net, _ = make_net()
    net.send(0, 1, "a", size=100, category="lock")
    net.send(0, 2, "b", size=200, category="page", ft_bytes=20)
    net.send(1, 2, "c", size=50, category="lock", ft_bytes=5)
    eng.run()
    t = net.traffic
    assert t.total_bytes == 350
    assert t.total_msgs == 3
    assert t.bytes_by_category["lock"] == 150
    assert t.bytes_by_category["page"] == 200
    assert t.msgs_by_category["lock"] == 2
    assert t.ft_bytes == 25
    assert t.base_bytes == 325
    assert t.ft_overhead_percent() == pytest.approx(100 * 25 / 325)


def test_ft_overhead_zero_when_no_traffic():
    eng, net, _ = make_net()
    assert net.traffic.ft_overhead_percent() == 0.0


def test_register_out_of_range():
    eng = Engine()
    net = Network(eng, 2)
    with pytest.raises(ValueError):
        net.register(5, lambda s, m: None)


def test_unregistered_destination_raises():
    eng = Engine()
    net = Network(eng, 2)
    net.send(0, 1, "x", size=1, category="x")
    with pytest.raises(RuntimeError, match="no handler"):
        eng.run()
