"""Tests for the measurement workloads and sweep utilities."""

import pytest

from repro.cluster import Cluster
from repro.config import granada2003
from repro.experiments.common import sweep_pingpong
from repro.workloads import (
    SweepSeries,
    clic_pair,
    netpipe_sizes,
    pingpong,
    stream,
)


def test_netpipe_sizes_log_grid():
    sizes = netpipe_sizes(1, 3, points_per_decade=1)
    assert sizes == [10, 100, 1000]
    sizes = netpipe_sizes(1, 2, points_per_decade=3)
    assert sizes[0] == 10 and sizes[-1] == 100
    assert sizes == sorted(set(sizes))


def test_netpipe_sizes_validation():
    with pytest.raises(ValueError):
        netpipe_sizes(3, 1)
    with pytest.raises(ValueError):
        netpipe_sizes(1, 2, points_per_decade=0)


def test_pingpong_rtt_increases_with_size():
    small = pingpong(Cluster(granada2003()), clic_pair(), 100, repeats=1, warmup=1)
    large = pingpong(Cluster(granada2003()), clic_pair(), 100_000, repeats=1, warmup=1)
    assert large.rtt_ns > small.rtt_ns
    assert large.bandwidth_mbps > small.bandwidth_mbps


def test_pingpong_result_fields():
    r = pingpong(Cluster(granada2003()), clic_pair(), 1_000, repeats=2, warmup=0)
    d = r.as_dict()
    assert d["nbytes"] == 1_000
    assert d["one_way_us"] == pytest.approx(d["rtt_us"] / 2)
    assert r.one_way_ns == r.rtt_ns / 2


def test_stream_bandwidth_exceeds_pingpong():
    """Pipelining pays: stream bandwidth > ping-pong at equal size."""
    n = 16_384
    pp = pingpong(Cluster(granada2003()), clic_pair(), n, repeats=1, warmup=1)
    st = stream(Cluster(granada2003()), clic_pair(), n, messages=16)
    assert st.bandwidth_mbps > pp.bandwidth_mbps


def test_sweep_series_helpers():
    series = sweep_pingpong("clic", granada2003, clic_pair,
                            sizes=[100, 10_000, 1_000_000])
    assert series.label == "clic"
    assert series.sizes == [100, 10_000, 1_000_000]
    assert series.asymptote() == series.mbps[-1]
    assert series.at(10_000).nbytes == 10_000
    with pytest.raises(KeyError):
        series.at(555)
    half = series.half_bandwidth_size()
    assert half in series.sizes
    # Monotone rising curve for these sizes.
    assert series.mbps == sorted(series.mbps)


def test_sweep_series_is_a_sequence():
    from repro.workloads.pingpong import PingPongResult

    series = SweepSeries("s")
    assert len(series) == 0 and list(series) == []
    a = PingPongResult(nbytes=100, repeats=1, rtt_ns=10_000)
    b = PingPongResult(nbytes=200, repeats=1, rtt_ns=12_000)
    series.add(a)
    series.add(b)
    assert len(series) == 2
    assert list(series) == [a, b]
    assert series.at(200) is b
    # Direct appends to ``points`` (legacy callers) are indexed lazily.
    c = PingPongResult(nbytes=300, repeats=1, rtt_ns=14_000)
    series.points.append(c)
    assert series.at(300) is c
    assert len(series) == 3


def test_sweep_pingpong_parallel_matches_serial():
    """A config-based sweep is pure data, so a pooled run must return
    the exact series a serial run does."""
    sizes = [100, 10_000]
    serial = sweep_pingpong("clic", granada2003, clic_pair, sizes)
    pooled = sweep_pingpong("clic", granada2003, clic_pair, sizes, jobs=2)
    assert [p.rtt_ns for p in serial] == [p.rtt_ns for p in pooled]
    assert serial.mbps == pooled.mbps
