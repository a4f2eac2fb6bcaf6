"""Unit tests for Ethernet framing, links, and the switch."""

import pytest

from repro.config import LinkParams
from repro.hw import Channel, Link, Switch
from repro.hw.nic.frames import (
    BROADCAST,
    EtherType,
    Frame,
    MacAddress,
    frame_time_ns,
    max_payload,
    wire_bytes,
)
from repro.sim import Environment, RngStreams

LINK = LinkParams()


def make_frame(nbytes, dst=MacAddress(2), src=MacAddress(1)):
    return Frame(src=src, dst=dst, ethertype=EtherType.CLIC, payload_bytes=nbytes)


def test_wire_bytes_includes_all_overheads():
    f = make_frame(1500)
    # 8 preamble + 14 mac + 1500 + 4 crc + 12 ifg
    assert wire_bytes(f, LINK) == 8 + 14 + 1500 + 4 + 12


def test_wire_bytes_pads_to_min_frame():
    f = make_frame(0)
    # mac frame would be 18 < 64 -> padded; plus preamble and ifg
    assert wire_bytes(f, LINK) == 8 + 64 + 12


def test_frame_time_gigabit():
    f = make_frame(1500)
    t = frame_time_ns(f, LINK)
    assert t == pytest.approx(wire_bytes(f, LINK) * 8)  # 1 Gb/s = 1 bit/ns


def test_max_payload_matches_mtu():
    assert max_payload(1500) == 1500
    assert max_payload(9000) == 9000
    with pytest.raises(ValueError):
        max_payload(0)


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        make_frame(-1)


def test_mac_address_str_and_broadcast():
    assert str(BROADCAST) == "ff:ff:ff:ff:ff:ff"
    assert BROADCAST.is_broadcast
    assert not MacAddress(3).is_broadcast
    assert "02:00" in str(MacAddress(3))


def test_channel_delivers_after_serialization_and_propagation():
    env = Environment()
    chan = Channel(env, LINK, "c")
    arrivals = []
    chan.connect(lambda f: arrivals.append((f.frame_id, env.now)))
    f = make_frame(1500)

    def send(env):
        yield from chan.transmit(f)
        return env.now

    sent_at = env.run(env.process(send(env)))
    env.run()
    assert sent_at == pytest.approx(frame_time_ns(f, LINK))
    assert arrivals[0][1] == pytest.approx(sent_at + LINK.propagation_ns)


def test_channel_serializes_back_to_back_frames():
    env = Environment()
    chan = Channel(env, LINK, "c")
    arrivals = []
    chan.connect(lambda f: arrivals.append(env.now))

    def send(env):
        yield from chan.transmit(make_frame(1500))

    env.process(send(env))
    env.process(send(env))
    env.run()
    one = frame_time_ns(make_frame(1500), LINK)
    assert arrivals[0] == pytest.approx(one + LINK.propagation_ns)
    assert arrivals[1] == pytest.approx(2 * one + LINK.propagation_ns)


def test_channel_requires_sink():
    env = Environment()
    chan = Channel(env, LINK)

    def send(env):
        yield from chan.transmit(make_frame(10))

    with pytest.raises(RuntimeError):
        env.run(env.process(send(env)))


def test_channel_loss_injection_drops_frames():
    from repro.faults import ChannelFaults, LinkFaultSpec

    env = Environment()
    rng = RngStreams(1).stream("loss")
    chan = Channel(env, LINK,
                   faults=ChannelFaults(LinkFaultSpec(loss_rate=1.0), rng=rng))
    arrivals = []
    chan.connect(lambda f: arrivals.append(f))

    def send(env):
        yield from chan.transmit(make_frame(100))

    env.process(send(env))
    env.run()
    assert arrivals == []
    assert chan.counters.get("frames_lost") == 1


def test_channel_loss_requires_rng():
    from repro.faults import ChannelFaults, LinkFaultSpec

    env = Environment()
    with pytest.raises(ValueError):
        Channel(env, LINK,
                faults=ChannelFaults(LinkFaultSpec(loss_rate=0.5), rng=None))


def build_switched_pair(env):
    """Two endpoints (sink lists) behind a switch; returns tx channels."""
    switch = Switch(env, LINK)
    inboxes = {1: [], 2: [], 3: []}
    tx_chans = {}
    for node in (1, 2, 3):
        mac = MacAddress(node)
        to_switch = Channel(env, LINK, f"n{node}->sw")
        from_switch = Channel(env, LINK, f"sw->n{node}")
        port = switch.attach(from_switch, mac)
        to_switch.connect(switch.ingress(port))
        from_switch.connect(lambda f, n=node: inboxes[n].append(f))
        tx_chans[node] = to_switch
    return switch, tx_chans, inboxes


def test_switch_forwards_unicast_to_correct_port():
    env = Environment()
    switch, tx, inboxes = build_switched_pair(env)

    def send(env):
        yield from tx[1].transmit(make_frame(500, dst=MacAddress(2), src=MacAddress(1)))

    env.process(send(env))
    env.run()
    assert len(inboxes[2]) == 1
    assert inboxes[1] == [] and inboxes[3] == []
    assert switch.counters.get("forwarded") == 1


def test_switch_broadcast_fans_out_to_all_other_ports():
    env = Environment()
    switch, tx, inboxes = build_switched_pair(env)

    def send(env):
        yield from tx[1].transmit(make_frame(500, dst=BROADCAST, src=MacAddress(1)))

    env.process(send(env))
    env.run()
    assert len(inboxes[2]) == 1 and len(inboxes[3]) == 1
    assert inboxes[1] == []


def test_switch_unknown_destination_counted_dropped():
    env = Environment()
    switch, tx, inboxes = build_switched_pair(env)

    def send(env):
        yield from tx[1].transmit(make_frame(100, dst=MacAddress(99)))

    env.process(send(env))
    env.run()
    assert switch.counters.get("unknown_dst") == 1
    assert all(not v for v in inboxes.values())


def test_switch_rejects_duplicate_mac():
    env = Environment()
    switch = Switch(env, LINK)
    c1 = Channel(env, LINK)
    c2 = Channel(env, LINK)
    switch.attach(c1, MacAddress(7))
    with pytest.raises(ValueError):
        switch.attach(c2, MacAddress(7))


def test_switch_store_and_forward_latency():
    env = Environment()
    switch, tx, inboxes = build_switched_pair(env)
    f = make_frame(1500, dst=MacAddress(2))

    def send(env):
        yield from tx[1].transmit(f)

    env.process(send(env))
    env.run()
    wire = frame_time_ns(f, LINK)
    # serialize to switch + propagation + forward + serialize out + propagation
    expected = wire + LINK.propagation_ns + switch.forward_ns + wire + LINK.propagation_ns
    # inbox records on arrival; we can't see timestamps there -> re-run with sink capture
    env2 = Environment()
    switch2, tx2, _ = build_switched_pair(env2)
    times = []
    # Rebind node 2 sink to record time
    switch2.ports[1].egress._sink = lambda fr: times.append(env2.now)

    def send2(env):
        yield from tx2[1].transmit(make_frame(1500, dst=MacAddress(2)))

    env2.process(send2(env2))
    env2.run()
    assert times[0] == pytest.approx(expected)


def test_full_duplex_link_directions_independent():
    env = Environment()
    link = Link(env, LINK, "l")
    t_a, t_b = [], []
    link.a_to_b.connect(lambda f: t_a.append(env.now))
    link.b_to_a.connect(lambda f: t_b.append(env.now))

    def send(env, chan):
        yield from chan.transmit(make_frame(9000))

    env.process(send(env, link.a_to_b))
    env.process(send(env, link.b_to_a))
    env.run()
    # Both directions complete at the same time: no shared serialization.
    assert t_a[0] == pytest.approx(t_b[0])


# -- adversarial delivery on the wire ----------------------------------------
def _faulted_channel(env, spec, seed=7, tracer=None):
    from repro.faults import ChannelFaults

    rng = RngStreams(seed).stream("loss.test")
    return Channel(env, LINK, "c", faults=ChannelFaults(spec, rng=rng),
                   tracer=tracer)


def test_channel_duplication_delivers_extra_copies():
    from repro.faults import Duplication, LinkFaultSpec

    env = Environment()
    chan = _faulted_channel(env, LinkFaultSpec(duplicate=Duplication(rate=1.0)))
    arrivals = []
    chan.connect(lambda f: arrivals.append(f.frame_id))

    def send(env):
        yield from chan.transmit(make_frame(100))

    env.process(send(env))
    env.run()
    assert len(arrivals) == 2  # original + 1 forced copy
    assert chan.counters.get("frames_offered") == 1
    assert chan.counters.get("frames_duplicated") == 1
    assert chan.counters.get("frames") == 2  # every delivered copy counts
    # conservation: offered + duplicated == delivered + lost
    assert (chan.counters.get("frames_offered")
            + chan.counters.get("frames_duplicated")
            == chan.counters.get("frames") + chan.counters.get("frames_lost"))


def test_channel_jitter_can_reorder_frames():
    """With jitter ~ the serialization time, some successor overtakes a
    jittered frame over a long enough burst."""
    from repro.faults import DelayJitter, LinkFaultSpec

    env = Environment()
    one = frame_time_ns(make_frame(1500), LINK)
    spec = LinkFaultSpec(jitter=DelayJitter(rate=0.5, max_delay_ns=4 * one))
    chan = _faulted_channel(env, spec)
    arrivals = []
    chan.connect(lambda f: arrivals.append(f.payload))

    def send(env, n):
        yield from chan.transmit(
            Frame(src=MacAddress(1), dst=MacAddress(2),
                  ethertype=EtherType.CLIC, payload_bytes=1500, payload=n))

    def burst(env):
        for n in range(40):
            yield from send(env, n)

    env.process(burst(env))
    env.run()
    assert sorted(arrivals) == list(range(40))  # nothing lost
    assert arrivals != sorted(arrivals)  # ...but not in order
    assert chan.counters.get("frames_lost") == 0


def test_wire_drop_and_dup_journey_hops():
    from types import SimpleNamespace

    from repro.faults import Duplication, LinkFaultSpec

    class _JourneyLog:
        """Minimal journey index standing in for the cluster tracer's."""

        def __init__(self):
            self.hops = []

        def hop(self, payload, hop, scope, **detail):
            self.hops.append((hop, detail))

    env = Environment()
    log = _JourneyLog()
    spec = LinkFaultSpec(loss_rate=0.5, duplicate=Duplication(rate=1.0))
    chan = _faulted_channel(env, spec, tracer=SimpleNamespace(journeys=log))
    chan.connect(lambda f: None)

    def burst(env):
        for _ in range(30):
            yield from chan.transmit(make_frame(100))

    env.process(burst(env))
    env.run()
    kinds = {h for h, _ in log.hops}
    assert kinds == {"wire_drop", "wire_dup"}
    drop_reasons = {d["reason"] for h, d in log.hops if h == "wire_drop"}
    assert drop_reasons == {"lost"}
    assert all(d["copies"] >= 2 for h, d in log.hops if h == "wire_dup")


def test_congestion_stretches_serialization_and_adds_latency():
    from repro.faults import CongestionWindow, LinkFaultSpec, OutageWindow
    from repro.faults import ChannelFaults

    env = Environment()
    one = frame_time_ns(make_frame(1500), LINK)
    spike = CongestionWindow(window=OutageWindow(0.0, 10 * one),
                             bandwidth_factor=4.0, extra_latency_ns=2_000.0)
    chan = Channel(env, LINK, "c",
                   faults=ChannelFaults(LinkFaultSpec(congestion=(spike,)), rng=None))
    arrivals = []
    chan.connect(lambda f: arrivals.append(env.now))

    def send(env):
        yield from chan.transmit(make_frame(1500))
        return env.now

    done = env.run(env.process(send(env)))
    env.run()
    # the wire is held 4x longer, and delivery picks up the queueing delay
    assert done == pytest.approx(4 * one)
    assert arrivals[0] == pytest.approx(4 * one + LINK.propagation_ns + 2_000.0)


def test_congestion_over_leaves_timing_untouched():
    from repro.faults import ChannelFaults, CongestionWindow, LinkFaultSpec, OutageWindow

    env = Environment()
    spike = CongestionWindow(window=OutageWindow(0.0, 1.0), bandwidth_factor=8.0)
    chan = Channel(env, LINK, "c",
                   faults=ChannelFaults(LinkFaultSpec(congestion=(spike,)), rng=None))
    arrivals = []
    chan.connect(lambda f: arrivals.append(env.now))
    one = frame_time_ns(make_frame(1500), LINK)

    def send(env):
        yield env.timeout(100.0)  # past the spike
        yield from chan.transmit(make_frame(1500))

    env.process(send(env))
    env.run()
    assert arrivals[0] == pytest.approx(100.0 + one + LINK.propagation_ns)
