"""End-to-end observation of an FT run: registry contents + run report."""

import gc

import pytest

from repro.observe import (
    ClusterObserver,
    MetricsRegistry,
    build_report,
    render_report,
    validate_report,
    write_jsonl,
)
from repro.observe.latency.engine import LatencyHistogram
from repro.observe.registry import CLUSTER_NODE
from repro.observe.report import load_jsonl
from tests.conftest import make_app, make_cluster


def observed_run(num_procs=4, interval=1e-3):
    cluster = make_cluster(num_procs, ft=True)
    observer = ClusterObserver(cluster, interval=interval, sample_on_barrier=True)
    result = cluster.run(make_app("counter"))
    observer.sample()
    return cluster, observer, result


def test_key_series_track_the_run():
    cluster, observer, result = observed_run()
    reg = observer.registry

    # per-node log sizes: final sample equals the FT layer's live state
    for host in cluster.hosts:
        vol = reg.get_series("ft.log_volatile_bytes", host.pid)
        assert vol, f"p{host.pid}: no volatile-log series"
        assert vol[-1][1] == host.ft.logs.diff.volatile_bytes
        assert vol[-1][0] == result.wall_time  # final snapshot at end of run
        ckpts = reg.get_series("ft.checkpoints_taken", host.pid)
        assert ckpts[-1][1] == host.ft.stats.checkpoints_taken

    # diff traffic: monotone per node, final value matches protocol stats
    for host in cluster.hosts:
        pts = reg.get_series("dsm.diff_bytes_sent", host.pid)
        vals = [v for _, v in pts]
        assert vals == sorted(vals)
        assert vals[-1] == host.proto.stats.diff_bytes_sent

    # cluster-wide traffic gauge ends at the run totals
    total = reg.get_series("net.total_bytes", CLUSTER_NODE)
    assert total[-1][1] == result.traffic.total_bytes
    # in-flight channel gauges drain to zero by the end of the run
    assert reg.get_series("sim.channel_msgs_inflight", CLUSTER_NODE)[-1][1] == 0

    # figure-4 series: one point per checkpoint, x = checkpoint number,
    # equal to the FT layer's own record (what figure4 reads)
    assert any(host.ft.stats.checkpoints_taken for host in cluster.hosts)
    for host in cluster.hosts:
        if host.ft.stats.checkpoints_taken:
            pts = reg.get_series("ft.log_disk_bytes", host.pid)
            assert [x for x, _ in pts] == list(range(1, len(pts) + 1))
            assert pts == [list(p) for p in host.ft.stats.log_points]

    # wait distributions saw every barrier crossing
    for host in cluster.hosts:
        h = reg.latencies_by_name("lat.barrier")[host.pid]
        assert h.count == host.proto.stats.barriers


def test_report_roundtrip_from_real_run(tmp_path):
    _cluster, observer, result = observed_run()
    report = build_report(
        observer.registry, {"app": "counter", "procs": 4, "ft": True}, result=result
    )
    assert validate_report(report) == []

    path = tmp_path / "observe_counter.jsonl"
    write_jsonl(str(path), report)
    again = load_jsonl(str(path))
    assert validate_report(again) == []
    assert again["header"]["app"] == "counter"
    assert again["summary"]["virtual_time"] == result.wall_time
    assert again["series"] == report["series"]

    text = render_report(again)
    assert "repro observe — counter on 4 simulated nodes" in text
    assert "log size (volatile) vs virtual time" in text
    assert "latency percentiles (virtual time)" in text
    assert "synchronization waits" not in text


@pytest.fixture(scope="module")
def serving():
    """The observed serving crash run the pins below read: the observer,
    and the report built twice, the second time with the SLO verdict
    evaluated from the first, as ``repro observe`` does."""
    from repro import DsmCluster, DsmConfig
    from repro.apps.session import SessionApp, SessionConfig
    from repro.core import FtConfig, LogOverflowPolicy
    from repro.observe import evaluate_report_slos, parse_slo

    cfg = SessionConfig(
        steps=6, requests_per_step=8, n_keys=128, n_stripes=8, n_users=16,
        rate=600.0, seed=42,
    )

    def cluster():
        return DsmCluster(
            config=DsmConfig(num_procs=4),
            ft=True,
            ft_config=FtConfig(replicate=True),
            policy_factory=lambda pid, fp: LogOverflowPolicy(0.1, fp),
        )

    t_free = cluster().run(SessionApp(cfg)).wall_time
    crashed = cluster()
    observer = ClusterObserver(
        crashed, interval=1e-3, sample_on_barrier=True, window_s=1e-3
    )
    crashed.schedule_crash(3, 0.5 * t_free)
    result = crashed.run(SessionApp(cfg))
    observer.sample()
    meta = {"app": "session", "procs": 4}

    def build(slos=None):
        return build_report(
            observer.registry, meta, result=result,
            recoveries=observer.recovery_records, slos=slos,
        )

    report = build()
    slos = evaluate_report_slos(report, [parse_slo("p99(lat.request)<100ms")])
    report = build(slos)
    assert (result.crashes, result.recoveries) == (1, 1)
    return observer, report


def test_serving_report_bytes_are_pinned(serving, tmp_path):
    """Every byte the observed serving path writes, recorded at PR 18's
    HEAD (before the columnar registry): sampled series,
    ``lat``/``wlat`` records, the recovery, the SLO verdict built from the
    first report, the summary. Nothing here is re-recorded for a change
    that only reads the run.

    Re-recorded once, at PR 20, which changes the run: self-grants live in
    the rel/acq logs, so ``ft.rel_log_entries``, ``ft.trim_rel_entries``
    and ``ft.replica_bytes`` (and the byte totals above them) count them,
    and the recovery handshake ships their twins, 1.92 us longer — every
    barrier-triggered sample after the live switch is stamped that much
    later. All other sampled values are the ones recorded at PR 18.

    The ``render_report`` pin and the round trip were recorded at PR 20's
    HEAD, before a report's series became views of the registry's columns:
    the text rendered from the live report and from the loaded file.

    Re-recorded at schema 4, which drops the fixed-bucket wait
    histograms: the JSONL is the previous pin's bytes without its 12
    ``hist`` lines and with ``schema`` 4 (475,293 -> 473,058 bytes), the
    text the previous pin's without its "synchronization waits" table
    (15,907 -> 15,095 bytes).

    Re-recorded when the registry began keeping one cluster histogram per
    (op class, window) in place of per-node windows merged at report time
    (473,058 -> 468,533 bytes). The JSONL moved in three ways only:
    ``sum``/``mean`` of 15 of the 251 ``wlat`` records in their last bits
    (the table adds across nodes in time order, the merge added node
    sums); 96 -> 91 series (the 4 ``ft.ckpt_times`` and 1
    ``ft.recovery_total_s`` nobody read); ``slo`` ``per_window`` rows
    carry ``window``/``bad``/``burn`` only. The text did not move.

    Re-recorded when the barrier manager's second barrier log went and a
    recovering node began restoring its barrier log from its peers'
    (468,533 -> 468,580 bytes; text 15,095 -> 15,096). The manager's
    handshake reply and replica images carry each episode once: the
    handshake takes 276.3 us, not 276.6, every sample after it moves in
    its last bits, the replica-bytes plot tops out at 1.27e+04, not
    1.3e+04, and ``ft_bytes`` falls 82,332 -> 82,140. The restored
    episodes add 64 B to the recovered p3's full sync to p0 and are
    trimmed by p3's next LLT pass (``ft.trim_bar_entries``).

    Re-recorded when grantors began logging exact stamps and only a
    provisional grant draws an AcqAck (468,580 -> 471,074 bytes; text
    15,096 -> 15,151). The run sends no AcqAck and no ``rel_fix`` op, and
    p3's live switch makes peers re-send only the requests it manages:
    1,583 -> 1,335 messages, ``ft_bytes`` 82,140 -> 75,180, virtual time
    133.037 -> 132.619 ms, 140 -> 139 samples. Shorter lock handoffs move
    requests between the 1 ms windows: 251 -> 262 ``wlat`` records.

    Re-recorded when stamps went on the wire in their sparse form where
    shorter, a diff began carrying its interval only, and replica and
    recovery payloads were sized from their own stamps, not from 8-node
    ones (471,074 -> 470,825 bytes; text length unchanged). Message
    counts hold (1,335); bytes fall 202,070 -> 176,383, ``ft_bytes``
    75,180 -> 52,161, virtual time 132.619 -> 132.606 ms; the sampled
    byte series and the samples' timestamps move with them."""
    import hashlib

    observer, report = serving
    assert report["summary"]["samples"] == 139
    assert (len(report["series"]), len(report["wlats"])) == (91, 262)
    path = tmp_path / "serve.jsonl"
    write_jsonl(str(path), report)
    data = path.read_bytes()
    assert len(data) == 470_825
    assert hashlib.sha256(data).hexdigest() == (
        "54460f4126fb4cfc66990d3959dd4a743833d25195fce05d13f2ee0358d86c4d"
    )
    loaded = load_jsonl(str(path))
    assert loaded["series"] == report["series"]
    for text in (render_report(report), render_report(loaded)):
        assert len(text.encode()) == 15_151
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8687955a056ec63c16af86e15a2236dce4c471331e83fb83928e14220a562daf"
        )


def _window_histograms(registry):
    """Latency histograms held by the registry other than its per-(op
    class, node) totals, wherever they are kept: a walk over the
    registry's own containers and histograms."""
    totals = {
        id(h) for name in registry.latency_names()
        for h in registry.latencies_by_name(name).values()
    }
    seen, stack, found = set(), [registry], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or not isinstance(
            obj, (MetricsRegistry, LatencyHistogram, dict, list, tuple)
        ):
            continue
        seen.add(id(obj))
        found += isinstance(obj, LatencyHistogram) and id(obj) not in totals
        stack.extend(gc.get_referents(obj))
    return found


def test_one_histogram_per_op_class_and_window(serving):
    """The registry holds exactly one histogram per ``wlat`` record: no
    node keeps windows of its own (per-node windows held 472 here)."""
    observer, report = serving
    assert _window_histograms(observer.registry) == len(report["wlats"]) == 262
