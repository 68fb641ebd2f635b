"""End-to-end observation of an FT run: registry contents + run report."""

from repro.observe import (
    CLUSTER_NODE,
    ClusterObserver,
    build_report,
    load_jsonl,
    render_report,
    validate_report,
    write_jsonl,
)
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

    # figure-4 series: one point per checkpoint, x = checkpoint number
    for host in cluster.hosts:
        if host.ft.stats.checkpoints_taken:
            pts = reg.get_series("ft.log_disk_bytes", host.pid)
            assert [x for x, _ in pts] == list(range(1, len(pts) + 1))

    # wait histograms saw every barrier crossing
    for host in cluster.hosts:
        h = reg.histograms_by_name("dsm.barrier_wait_s")[host.pid]
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
    assert "synchronization waits" in text
