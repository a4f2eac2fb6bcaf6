"""Integration tests for the TCP/IP baseline stack."""

import pytest

from repro.cluster import Cluster
from repro.config import MTU_JUMBO, MTU_STANDARD, granada2003
from repro.faults import FaultPlan
from repro.protocols.tcpip import TcpIpStack


def make_cluster(**kw):
    return Cluster(granada2003(**kw))


def run_pair(cluster, body_a, body_b):
    p0 = cluster.nodes[0].spawn("a")
    p1 = cluster.nodes[1].spawn("b")
    done_a = p0.run(body_a)
    done_b = p1.run(body_b)
    cluster.env.run(cluster.env.all_of([done_a, done_b]))
    return done_a.value, done_b.value, (p0, p1)


def test_tcp_stream_transfers_bytes():
    cluster = make_cluster()
    socks = {}

    def a(proc):
        yield from socks["a"].send(100_000)
        return "sent"

    def b(proc):
        got = yield from socks["b"].recv(100_000)
        return got

    p0 = cluster.nodes[0].spawn()
    p1 = cluster.nodes[1].spawn()
    socks["a"], socks["b"] = TcpIpStack.connect_pair(p0, p1)
    da, db = p0.run(a), p1.run(b)
    cluster.env.run(cluster.env.all_of([da, db]))
    assert db.value == 100_000


def test_tcp_segments_to_mss():
    cluster = make_cluster(mtu=MTU_STANDARD)
    p0 = cluster.nodes[0].spawn()
    p1 = cluster.nodes[1].spawn()
    sa, sb = TcpIpStack.connect_pair(p0, p1)

    def a(proc):
        yield from sa.send(10_000)

    def b(proc):
        yield from sb.recv(10_000)

    da, db = p0.run(a), p1.run(b)
    cluster.env.run(cluster.env.all_of([da, db]))
    mss = 1500 - 40
    expected = -(-10_000 // mss)
    assert sa.conn.counters.get("segments_tx") == expected


def test_tcp_bidirectional():
    cluster = make_cluster()
    p0 = cluster.nodes[0].spawn()
    p1 = cluster.nodes[1].spawn()
    sa, sb = TcpIpStack.connect_pair(p0, p1)

    def a(proc):
        yield from sa.send(5_000)
        got = yield from sa.recv(7_000)
        return got

    def b(proc):
        got = yield from sb.recv(5_000)
        yield from sb.send(7_000)
        return got

    da, db = p0.run(a), p1.run(b)
    cluster.env.run(cluster.env.all_of([da, db]))
    assert da.value == 7_000
    assert db.value == 5_000


def test_tcp_multiple_connections_demux():
    cluster = make_cluster()
    p0 = cluster.nodes[0].spawn()
    p1 = cluster.nodes[1].spawn()
    s1a, s1b = TcpIpStack.connect_pair(p0, p1)
    s2a, s2b = TcpIpStack.connect_pair(p0, p1)

    def a(proc):
        yield from s1a.send(1_000)
        yield from s2a.send(2_000)

    def b(proc):
        two = yield from s2b.recv(2_000)
        one = yield from s1b.recv(1_000)
        return (one, two)

    da, db = p0.run(a), p1.run(b)
    cluster.env.run(cluster.env.all_of([da, db]))
    assert db.value == (1_000, 2_000)


def test_tcp_recv_blocks_until_enough_bytes():
    cluster = make_cluster()
    p0 = cluster.nodes[0].spawn()
    p1 = cluster.nodes[1].spawn()
    sa, sb = TcpIpStack.connect_pair(p0, p1)
    times = {}

    def a(proc):
        yield from sa.send(1_000)
        yield proc.env.timeout(500_000)
        times["second_send"] = proc.env.now
        yield from sa.send(1_000)

    def b(proc):
        yield from sb.recv(2_000)
        times["recv_done"] = proc.env.now

    da, db = p0.run(a), p1.run(b)
    cluster.env.run(cluster.env.all_of([da, db]))
    assert times["recv_done"] > times["second_send"]


def test_tcp_reliability_under_loss():
    cluster = Cluster(granada2003(mtu=MTU_STANDARD), faults=FaultPlan.uniform(0.03))
    p0 = cluster.nodes[0].spawn()
    p1 = cluster.nodes[1].spawn()
    sa, sb = TcpIpStack.connect_pair(p0, p1)

    def a(proc):
        yield from sa.send(200_000)

    def b(proc):
        got = yield from sb.recv(200_000)
        return got

    da, db = p0.run(a), p1.run(b)
    cluster.env.run(cluster.env.all_of([da, db]))
    assert db.value == 200_000
    assert sa.conn.counters.get("segments_retx") > 0


def test_tcp_duplicate_conn_id_rejected():
    cluster = make_cluster()
    stack = cluster.nodes[0].tcp
    stack.tcp.connect(1, conn_id=77)
    with pytest.raises(ValueError):
        stack.tcp.connect(1, conn_id=77)


def test_tcp_headers_count_on_wire():
    cluster = make_cluster(mtu=MTU_STANDARD)
    p0 = cluster.nodes[0].spawn()
    p1 = cluster.nodes[1].spawn()
    sa, sb = TcpIpStack.connect_pair(p0, p1)

    def a(proc):
        yield from sa.send(1_460)  # exactly one MSS

    def b(proc):
        yield from sb.recv(1_460)

    da, db = p0.run(a), p1.run(b)
    cluster.env.run(cluster.env.all_of([da, db]))
    # One data frame with 1460 + 20 (TCP) + 20 (IP) payload bytes.
    nic = cluster.nodes[0].nics[0]
    assert nic.counters.get("tx_bytes") >= 1_500


def test_udp_datagram_roundtrip():
    cluster = make_cluster()
    p0 = cluster.nodes[0].spawn()
    p1 = cluster.nodes[1].spawn()
    ua = TcpIpStack.udp_socket(p0, port=53)
    ub = TcpIpStack.udp_socket(p1, port=53)

    def a(proc):
        yield from ua.sendto(1, 4_000)

    def b(proc):
        msg = yield from ub.recvfrom()
        return (msg.nbytes, msg.src_node)

    da, db = p0.run(a), p1.run(b)
    cluster.env.run(cluster.env.all_of([da, db]))
    assert db.value == (4_000, 0)


def test_udp_fragments_over_mtu():
    cluster = make_cluster(mtu=MTU_STANDARD)
    p0 = cluster.nodes[0].spawn()
    p1 = cluster.nodes[1].spawn()
    ua = TcpIpStack.udp_socket(p0, port=5)
    ub = TcpIpStack.udp_socket(p1, port=5)

    def a(proc):
        yield from ua.sendto(1, 60_000)

    def b(proc):
        msg = yield from ub.recvfrom()
        return msg.nbytes

    da, db = p0.run(a), p1.run(b)
    cluster.env.run(cluster.env.all_of([da, db]))
    assert db.value == 60_000
    assert cluster.nodes[0].tcp.ip.counters.get("fragments_tx") > 1


def test_udp_nonblocking_recv():
    cluster = make_cluster()
    p1 = cluster.nodes[1].spawn()
    ub = TcpIpStack.udp_socket(p1, port=9)

    def b(proc):
        msg = yield from ub.recvfrom(block=False)
        return msg

    db = p1.run(b)
    assert cluster.env.run(db) is None


def test_udp_loss_is_not_recovered():
    """UDP gives no reliability — drops stay dropped (paper §3.2(a))."""
    cluster = Cluster(granada2003(mtu=MTU_STANDARD), faults=FaultPlan.uniform(1.0))
    p0 = cluster.nodes[0].spawn()
    p1 = cluster.nodes[1].spawn()
    ua = TcpIpStack.udp_socket(p0, port=5)
    ub = TcpIpStack.udp_socket(p1, port=5)
    got = []

    def a(proc):
        yield from ua.sendto(1, 1_000)

    def b(proc):
        msg = yield from ub.recvfrom()
        got.append(msg)

    p0.run(a)
    p1.run(b)
    cluster.env.run(until=50e6)
    assert got == []
