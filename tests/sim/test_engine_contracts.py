"""Event-budget contracts of the exact engine.

Releases, nowait puts and clean wire deliveries are on every frame's
path; each test pins how many events one of them may cost, and that
the cheaper form keeps the ordering of the event-based one.
"""

import pytest

from repro.config import LinkParams
from repro.hw import Channel
from repro.hw.nic.frames import EtherType, Frame, MacAddress
from repro.obs import MetricsRegistry
from repro.sim import Counters, Environment, Resource, SimulationError, Store


def test_release_schedules_no_event():
    env = Environment(profile=True)
    res = Resource(env)
    req = res.request()
    env.run()
    scheduled = env.profiler.events_scheduled
    rel = res.release(req)
    assert env.profiler.events_scheduled == scheduled
    assert env.peek() == float("inf")
    assert rel.processed and rel.ok and rel.value is req


def test_yielded_release_resumes_at_the_same_instant():
    env = Environment()
    res = Resource(env)
    log = []

    def holder():
        req = res.request()
        yield req
        yield env.timeout(5)
        yield res.release(req)
        log.append(("released", env.now))

    def waiter():
        with res.request() as req:
            yield req
            log.append(("granted", env.now))

    env.process(holder())
    env.process(waiter())
    env.run()
    assert log == [("released", 5), ("granted", 5)]


def _wake_order(put):
    """Log of two getters woken by ``put`` between two same-time events."""
    env = Environment()
    store = Store(env)
    log = []

    def getter(name):
        item = yield store.get()
        log.append((name, item, env.now))

    def producer():
        yield env.timeout(5)
        env.timeout(0).callbacks.append(lambda _: log.append(("before", None, env.now)))
        put(store, "a")
        put(store, "b")
        env.timeout(0).callbacks.append(lambda _: log.append(("after", None, env.now)))

    env.process(getter("g1"))
    env.process(getter("g2"))
    env.process(producer())
    env.run()
    return log


def test_put_nowait_wakes_getters_like_put():
    expected = [("before", None, 5), ("g1", "a", 5), ("g2", "b", 5), ("after", None, 5)]
    assert _wake_order(lambda store, item: store.put(item)) == expected
    assert _wake_order(lambda store, item: store.put_nowait(item)) == expected


def test_put_nowait_raises_on_a_full_store():
    env = Environment()
    store = Store(env, capacity=1, name="ring")
    store.put_nowait(1)
    with pytest.raises(SimulationError, match="ring"):
        store.put_nowait(2)
    assert store.items == [1]


def test_clean_link_delivery_costs_one_event():
    env = Environment(profile=True)
    channel = Channel(env, LinkParams(), name="c")
    seen = {}
    channel.connect(lambda frame: seen.setdefault("sink", env.profiler.events_processed))
    frame = Frame(src=MacAddress(1), dst=MacAddress(2),
                  ethertype=EtherType.CLIC, payload_bytes=1500)

    def sender():
        yield from channel.transmit(frame)
        seen["sent"] = env.profiler.events_processed
        yield env.event()  # park without scheduling anything

    env.process(sender())
    env.run()
    assert seen["sink"] - seen["sent"] == 1


def test_counters_reset_then_add_recreates_the_counter():
    registry = MetricsRegistry()
    counters = Counters(registry=registry, prefix="n.")
    counters.add("x", 2)
    counters.reset()
    assert registry.peek("n.x") is None
    counters.add("x")
    assert counters["x"] == 1
    assert registry.peek("n.x").value == 1
