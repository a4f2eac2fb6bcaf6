"""Cluster-level fault injection: the ISSUE's acceptance scenarios.

Covers the wiring from a :class:`FaultPlan` through links, switch and
NICs, the offered/delivered accounting split, and the two headline
resilience behaviours: a link outage *shorter* than the retry budget is
survived losslessly with RTO backoff, and one that *exceeds* the budget
kills the peer consistently for both the sender (``DeliveryFailed``) and
the aliveness machinery.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.config import LinkParams, granada2003
from repro.faults import (ChannelFaults, FaultPlan, LinkFaultSpec, OutageWindow,
                          SwitchBlackout)
from repro.hw import Channel
from repro.hw.nic.frames import EtherType, Frame, MacAddress
from repro.protocols.clic import ClicControl
from repro.protocols.reliability import DeliveryFailed
from repro.workloads import clic_pair, pingpong, stream


def _cfg(**clic_overrides):
    cfg = granada2003(mtu=1500)
    if clic_overrides:
        node = replace(cfg.node, clic=replace(cfg.node.clic, **clic_overrides))
        cfg = cfg.with_node(node)
    return cfg


def _sum(cluster, suffix):
    return sum(
        inst.value
        for name, inst in cluster.metrics.items()
        if name.endswith(suffix)
    )


# -- offered vs delivered accounting (channel counter split) -----------------
def test_channel_offered_equals_delivered_plus_lost():
    from repro.sim import Environment

    env = Environment()
    chan = Channel(env, LinkParams(),
                   faults=ChannelFaults(LinkFaultSpec(loss_rate=0.3),
                                        rng=np.random.default_rng(3)))
    received = []
    chan.connect(received.append)

    def body():
        for _ in range(200):
            frame = Frame(src=MacAddress(1), dst=MacAddress(2),
                          ethertype=EtherType.CLIC, payload_bytes=1000)
            yield from chan.transmit(frame)

    env.run(env.process(body()))
    env.run()  # drain in-flight propagation
    c = chan.counters
    assert c.get("frames_offered") == 200
    assert c.get("frames") == len(received)
    assert c.get("frames_offered") == c.get("frames") + c.get("frames_lost")
    assert c.get("bytes_offered") == c.get("bytes") + c.get("bytes_lost")
    assert c.get("frames_lost") > 0  # the loss model did fire


# -- corruption is delivered, then dropped by the NIC CRC --------------------
def test_corruption_counted_as_nic_crc_drops():
    cluster = Cluster(_cfg(), faults=FaultPlan.corruption(0.05))
    res = stream(cluster, clic_pair(), 16_384, messages=24)
    assert res.nbytes_total == 16_384 * 24  # reliability hides the damage
    cluster.env.run()  # drain trailing (possibly corrupted) acks
    corrupted = _sum(cluster, ".corrupted")
    crc_drops = sum(
        nic.counters.get("rx_crc_drops")
        for node in cluster.nodes for nic in node.nics
    )
    assert corrupted > 0
    # Every corrupt frame dies at the receiving NIC's CRC check.  A frame
    # crossing two faulty channels (up-link, then switch, then down-link)
    # can draw corruption twice — two injection events, one CRC drop — so
    # drops may trail the event count by those rare double hits.
    double_hits = corrupted - crc_drops
    assert crc_drops > 0
    assert 0 <= double_hits <= 0.05 * corrupted + 2


# -- switch egress blackouts -------------------------------------------------
def test_switch_blackout_drops_frames_and_is_survived():
    plan = FaultPlan(switch_blackouts=(
        SwitchBlackout(window=OutageWindow(200_000.0, 2_200_000.0), node=1, channel=0),
    ))
    cluster = Cluster(_cfg(), faults=plan)
    res = stream(cluster, clic_pair(), 16_384, messages=16)
    assert res.nbytes_total == 16_384 * 16
    assert cluster.switch.counters.get("blackout_drops") > 0
    assert cluster.metrics.counter("faults.blackouts_started").value == 1


# -- link outage shorter than the retry budget -------------------------------
def test_outage_within_retry_budget_is_survived_losslessly():
    """A 10 ms dark link mid-pingpong: the sender must ride it out on
    RTO backoff and finish with nothing lost and the peer still alive.

    Budget: RTO floors at 5 ms and doubles per retry (3 s cap), so 16
    retries cover well over 10 ms of darkness.
    """
    plan = FaultPlan.link_outage(300_000.0, 10_300_000.0, node=0, channel=0)
    cluster = Cluster(_cfg(max_retries=16), faults=plan)
    res = pingpong(cluster, clic_pair(), 4096, repeats=6, warmup=1)
    assert res.rtt_ns > 0  # all 7 round trips completed

    module = cluster.nodes[0].clic
    assert not module.peer_is_dead(1)
    assert _sum(cluster, ".outage_drops") > 0  # the outage really bit
    assert _sum(cluster, ".timeouts") > 0      # ... and cost RTO stalls
    sender = module._senders[1]
    assert sender.rto is not None and sender.rto.samples > 0
    # Backoff was exercised during the stall and reset by recovery.
    assert sender.counters.get("timeouts") >= 1
    assert sender.rto.backoff == 1.0


def test_outage_exceeding_budget_kills_peer_consistently():
    """When the darkness outlives the retry budget the sender raises
    DeliveryFailed AND the aliveness verdict agrees the peer is down."""
    plan = FaultPlan.link_outage(300_000.0, 60_000_000_000.0, node=0, channel=0)
    cluster = Cluster(_cfg(), faults=plan)  # default budget ~8 s of backoff
    ctl = [ClicControl(node) for node in cluster.nodes]
    outcome = {}

    def tx(proc):
        try:
            # Larger than the sliding window, so the producer blocks on
            # window space and feels the retry exhaustion directly.
            yield from cluster.nodes[0].clic.send(1, port=5, nbytes=2_000_000)
            outcome["sent"] = True
        except DeliveryFailed as exc:
            outcome["error"] = str(exc)

    def probe(proc):
        yield cluster.env.timeout(20_000_000_000.0)  # well past exhaustion
        outcome["alive"] = yield from ctl[0].is_alive(1)

    cluster.nodes[0].spawn("tx").run(tx)
    done = cluster.nodes[0].spawn("probe").run(probe)
    cluster.env.run(done)

    assert "sent" not in outcome
    assert "retries" in outcome["error"]
    module = cluster.nodes[0].clic
    assert module.peer_is_dead(1)
    assert outcome["alive"] is False  # short-circuits on the shared verdict
    assert ctl[0].peer_down(1)
    assert _sum(cluster, ".peers_dead") == 1


def test_watch_declares_peer_dead_on_ping_loss():
    """The other road to the same verdict: consecutive lost aliveness
    probes, with no data traffic at all."""
    plan = FaultPlan.link_outage(1_000_000.0, 30_000_000_000.0, node=1, channel=0)
    cluster = Cluster(_cfg(), faults=plan)
    ctl = [ClicControl(node) for node in cluster.nodes]

    watcher = cluster.env.process(
        ctl[0].watch(1, interval_ns=50_000_000.0, timeout_ns=10_000_000.0,
                     loss_threshold=3)
    )
    cluster.env.run(watcher)
    assert cluster.nodes[0].clic.peer_is_dead(1)
    assert ctl[0].counters.get("watch_misses") >= 3
    with pytest.raises(DeliveryFailed):
        cluster.env.run(
            cluster.nodes[0].spawn("late").run(
                lambda proc: cluster.nodes[0].clic.send(1, port=1, nbytes=64)
            )
        )


def test_outage_spans_and_counters_emitted():
    plan = FaultPlan.link_outage(1_000.0, 2_000.0, node=0, channel=0)
    cluster = Cluster(_cfg(), faults=plan)
    cluster.env.run(until=5_000.0)
    assert cluster.metrics.counter("faults.outages_started").value == 2  # up + down
