"""Tests for the analysis helpers: tables, plots, metrics, and the
Figure-7 stages read off :func:`repro.obs.critical_path`."""

import pytest

from repro.analysis import (
    format_series_table,
    format_table,
    interpolate_half_bandwidth,
    logx_plot,
    size_reaching,
)
from repro.workloads import SweepSeries
from repro.workloads.pingpong import PingPongResult


def make_series(label, points):
    s = SweepSeries(label)
    for nbytes, mbps in points:
        one_way = nbytes * 8 / (mbps * 1e6) * 1e9 if mbps else 1.0
        s.points.append(PingPongResult(nbytes=nbytes, repeats=1, rtt_ns=2 * one_way))
    return s


def test_format_table_alignment_and_floats():
    out = format_table(["a", "long-header"], [(1, 2.5), (333, 4.0)])
    lines = out.splitlines()
    assert "a" in lines[0] and "long-header" in lines[0]
    assert "2.5" in out and "4.0" in out
    # All rows equal width.
    widths = {len(line) for line in lines}
    assert len(widths) == 1


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [(1,)])


def test_format_table_title():
    out = format_table(["x"], [(1,)], title="T")
    assert out.splitlines()[0] == "T"


def test_series_table_requires_common_grid():
    s1 = make_series("one", [(10, 1.0), (100, 2.0)])
    s2 = make_series("two", [(10, 1.0), (999, 2.0)])
    with pytest.raises(ValueError):
        format_series_table([s1, s2])
    with pytest.raises(ValueError):
        format_series_table([])


def test_series_table_contents():
    s1 = make_series("one", [(10, 1.0), (100, 2.0)])
    s2 = make_series("two", [(10, 3.0), (100, 4.0)])
    out = format_series_table([s1, s2])
    assert "one" in out and "two" in out and "100" in out


def test_logx_plot_renders_markers_and_legend():
    s = make_series("clic", [(10, 100.0), (1000, 300.0), (100000, 500.0)])
    out = logx_plot([s], width=40, height=10)
    assert "o clic" in out
    assert out.count("o") >= 3  # three plotted points (plus legend char)
    assert "1e3" in out


def test_logx_plot_validates_input():
    with pytest.raises(ValueError):
        logx_plot([])
    s = make_series("zero", [(0, 1.0)])
    with pytest.raises(ValueError):
        logx_plot([s])


def test_half_bandwidth_interpolation():
    sizes = [10, 100, 1_000, 10_000]
    mbps = [10.0, 40.0, 90.0, 100.0]
    half = interpolate_half_bandwidth(sizes, mbps)  # target 50
    assert 100 < half < 1_000
    # Already above half at the first point.
    assert interpolate_half_bandwidth([10, 100], [60.0, 100.0]) == 10.0
    with pytest.raises(ValueError):
        interpolate_half_bandwidth([], [])


def test_size_reaching():
    sizes = [10, 100, 1_000]
    mbps = [10.0, 50.0, 100.0]
    assert size_reaching(sizes, mbps, 50.0) == pytest.approx(100.0)
    assert size_reaching(sizes, mbps, 500.0) is None
    mid = size_reaching(sizes, mbps, 75.0)
    assert 100 < mid < 1_000


def test_timeline_extraction_from_real_trace():
    from repro.cluster import Cluster
    from repro.config import granada2003
    from repro.obs import critical_path, fig7_stages, records_of, spans_of
    from repro.protocols.clic import ClicEndpoint

    cluster = Cluster(granada2003(trace=True))
    p0, p1 = cluster.nodes[0].spawn(), cluster.nodes[1].spawn()
    ep0, ep1 = ClicEndpoint(p0, 1), ClicEndpoint(p1, 1)

    def a(proc):
        yield from ep0.send(1, 1400)

    def b(proc):
        yield from ep1.recv()

    p0.run(a)
    done = p1.run(b)
    cluster.env.run(done)
    pkt = cluster.trace.filter(event="driver_tx")[0].detail["pkt"]
    path = critical_path(spans_of(cluster.tracer), records_of(cluster.trace),
                         pkt, "node0", "node1")
    stages = fig7_stages(path)
    names = [name for name, _, _ in stages]
    assert "NIC DMA + flight" in names
    assert path.total_us > 0
    # Stages are contiguous, ordered, and span the whole path.
    for first, second in zip(stages, stages[1:]):
        assert first[2] == second[1]
        assert first[1] <= first[2]
    assert stages[0][1] == path.segments[0].start_ns
    assert stages[-1][2] == path.segments[-1].end_ns


def test_timeline_missing_packet_raises():
    from repro.obs import critical_path

    with pytest.raises(ValueError, match="missing"):
        critical_path([], [], 999, "node0", "node1")


def _span(id, scope, name, start, end, **attrs):
    return {"id": id, "scope": scope, "name": name, "start_ns": float(start),
            "end_ns": float(end), "parent": None, "attrs": attrs}


def _record(time, source, event, **detail):
    return {"time": float(time), "source": source, "event": event,
            "detail": detail}


def _synthetic_trace(irq_times, direct=False):
    """Minimal span and record dicts with every Figure-7 anchor for
    packet 7: its frame is drained at 25.0 by the irq opened at 20.0
    whenever one is listed in ``irq_times``."""
    spans = [
        _span(1, "node0.kernel", "syscall", 0, 50, label="clic_send"),
        _span(2, "node0.clic", "clic_send", 1, 4),
        _span(3, "node0.nic0", "nic_tx", 5, 8),
        _span(4, "node1.nic0", "nic_rx", 9, 9.5),
    ]
    for i, t in enumerate(irq_times):
        spans.append(_span(10 + i, "node1.eth0", "irq", t, t + 1, direct=direct))
    spans += [
        _span(20, "node1.eth0", "rx_frame", 22, 25, pkt=7),
        _span(21, "node1.clic", "clic_rx", 27, 33, pkt=7, direct=direct),
    ]
    records = [
        _record(0, "node0.kernel", "syscall_enter", label="clic_send"),
        _record(5, "node0.eth0", "driver_tx", pkt=7),
    ]
    records += [_record(t, "node1.eth0", "irq_begin") for t in irq_times]
    records += [
        _record(25, "node1.eth0", "driver_rx", pkt=7, t0=22.0),
        _record(30, "node1.clic", "module_rx", pkt=7),
        _record(40, "node1.kernel", "wake", label="recv:1"),
    ]
    return spans, records


def test_timeline_picks_latest_irq_begin_before_driver_rx():
    """Regression: the guard used to be a tautology (r.time <= r.time)
    and with coalesced interrupts any earlier irq_begin could win."""
    from repro.obs import critical_path, fig7_stages

    spans, records = _synthetic_trace(irq_times=[10.0, 20.0, 35.0])
    stages = fig7_stages(critical_path(spans, records, 7, "node0", "node1"))
    assert stages[2] == ("receiver: driver interrupt (NIC->system copy)", 20.0, 25.0)
    # The 20.0 irq (latest at or before driver_rx@25.0) anchors the
    # stage — not 10.0 (earlier) and not 35.0 (after the drain).
    assert stages[1] == ("NIC DMA + flight", 5.0, 20.0)
    assert stages[3] == ("bottom halves -> CLIC_MODULE", 25.0, 30.0)
    assert stages[4] == ("CLIC_MODULE copy to user + wake", 30.0, 40.0)


def test_direct_timeline_picks_latest_irq_begin_before_driver_rx():
    """The direct Figure 8(b) variant anchors on the same interrupt as
    the stock path: the latest one at or before the frame's driver_rx,
    not the receiver's first interrupt."""
    from repro.obs import critical_path, fig7_stages

    spans, records = _synthetic_trace(irq_times=[10.0, 20.0, 35.0], direct=True)
    path = critical_path(spans, records, 7, "node0", "node1")
    assert path.direct
    assert fig7_stages(path) == [
        ("sender: syscall + CLIC_MODULE + driver", 0.0, 5.0),
        ("NIC DMA + flight", 5.0, 20.0),
        ("receiver: driver interrupt (direct DMA)", 20.0, 25.0),
        ("CLIC_MODULE direct call + copy + wake", 25.0, 40.0),
    ]


def test_timeline_no_irq_before_driver_rx_raises():
    from repro.obs import critical_path

    spans, records = _synthetic_trace(irq_times=[35.0])  # only after driver_rx
    with pytest.raises(ValueError, match="irq"):
        critical_path(spans, records, 7, "node0", "node1")
