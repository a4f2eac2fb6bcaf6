"""End-to-end randomized traffic: the whole-stack conservation property.

The shared ``seeded_rng`` fixture drives random message matrices (sizes,
tags, node pairs, with and without frame loss) through the full
simulated cluster; every message must arrive exactly once with the
right size and tag, and byte counters must balance.  Each trial is a
deterministic function of the test's seed, which pytest prints on
failure.
"""

import pytest

from repro.cluster import Cluster
from repro.config import MTU_STANDARD, granada2003
from repro.faults import FaultPlan
from repro.protocols.clic import ClicEndpoint

SIZES = [0, 1, 37, 512, 1480, 1500, 4096, 9000, 20_000]


def _random_messages(rng, max_msgs=8, num_nodes=3):
    count = int(rng.integers(1, max_msgs + 1))
    return [
        (int(rng.integers(0, num_nodes)), int(rng.integers(0, num_nodes)),
         int(rng.choice(SIZES)))
        for _ in range(count)
    ]


@pytest.mark.parametrize("trial", range(15))
def test_property_random_traffic_delivered_exactly_once(seeded_rng, trial):
    msgs = _random_messages(seeded_rng(trial))
    cluster = Cluster(granada2003(mtu=MTU_STANDARD, num_nodes=3))
    received = []
    # Unique tags so we can match deliveries to sends.
    plan = [(src, dst, n, tag) for tag, (src, dst, n) in enumerate(msgs)]
    by_receiver = {}
    for src, dst, n, tag in plan:
        by_receiver.setdefault(dst, []).append((src, n, tag))

    endpoints = {}

    def sender_body(node_id, items):
        def body(proc):
            ep = endpoints[("tx", node_id)]
            for dst, n, tag in items:
                yield from ep.send(dst, n, tag=tag)
            for dst in {d for d, _, _ in items}:
                yield from ep.flush(dst)

        return body

    def receiver_body(node_id, expected):
        def body(proc):
            ep = endpoints[("rx", node_id)]
            for _ in expected:
                msg = yield from ep.recv()
                received.append((msg.src_node, node_id, msg.nbytes, msg.tag))

        return body

    by_sender = {}
    for src, dst, n, tag in plan:
        by_sender.setdefault(src, []).append((dst, n, tag))

    for node_id in range(3):
        proc_tx = cluster.nodes[node_id].spawn()
        proc_rx = cluster.nodes[node_id].spawn()
        endpoints[("tx", node_id)] = ClicEndpoint(proc_tx, port=50)
        endpoints[("rx", node_id)] = ClicEndpoint(proc_rx, port=50)

    # NOTE: tx and rx endpoints share port 50 per node, so a sender's own
    # receiver could match... avoid by only receiving what's destined here.
    done = []
    for node_id in range(3):
        tx_items = by_sender.get(node_id, [])
        rx_items = by_receiver.get(node_id, [])
        p_tx = endpoints[("tx", node_id)].proc
        p_rx = endpoints[("rx", node_id)].proc
        done.append(p_tx.run(sender_body(node_id, tx_items)))
        done.append(p_rx.run(receiver_body(node_id, rx_items)))
    cluster.env.run(cluster.env.all_of(done))

    assert sorted(received) == sorted(
        (src, dst, n, tag) for src, dst, n, tag in plan
    )


@pytest.mark.parametrize("trial", range(6))
def test_property_reliable_under_random_loss(seeded_rng, trial):
    rng = seeded_rng(trial)
    sizes = [int(rng.integers(1, 30_001)) for _ in range(int(rng.integers(1, 5)))]
    loss_pct = float(rng.choice([0.02, 0.05, 0.1]))
    cluster = Cluster(granada2003(mtu=MTU_STANDARD), faults=FaultPlan.uniform(loss_pct))
    got = []

    def a(proc):
        ep = ClicEndpoint(proc, 7)
        for i, n in enumerate(sizes):
            yield from ep.send(1, n, tag=i)
        yield from ep.flush(1)

    def b(proc):
        ep = ClicEndpoint(proc, 7)
        for _ in sizes:
            msg = yield from ep.recv()
            got.append((msg.tag, msg.nbytes))

    p0 = cluster.nodes[0].spawn()
    p1 = cluster.nodes[1].spawn()
    d0, d1 = p0.run(a), p1.run(b)
    cluster.env.run(cluster.env.all_of([d0, d1]))
    assert sorted(got) == sorted(enumerate(sizes))
