"""Event-budget contracts of the exact engine.

Uncontended grants, releases, nowait puts and clean wire deliveries are
on every frame's path; each test pins how many events one of them may
cost, and that the cheaper form keeps the ordering of the event-based
one.
"""

import pytest

from repro.config import CpuParams, LinkParams, MemoryParams
from repro.hw import PRIO_IRQ, PRIO_USER, Channel, Cpu, MemoryBus
from repro.hw.nic.frames import EtherType, Frame, MacAddress
from repro.obs import MetricsRegistry
from repro.sim import (Counters, Environment, PreemptiveResource, PriorityResource,
                       Resource, SimulationError, Store)


@pytest.mark.parametrize("cls", [Resource, PriorityResource, PreemptiveResource])
def test_request_on_a_free_resource_is_granted_inline(cls):
    env = Environment(profile=True)
    res = cls(env)
    req = res.request()
    assert req.processed and req.ok and req.value is res
    assert res.users == [req] and req.usage_since == 0
    assert env.profiler.events_scheduled == 0
    assert env.peek() == float("inf")


def test_contended_requests_queue_and_wake_in_priority_then_fifo_order():
    env = Environment()
    plain, prio = Resource(env), PriorityResource(env)
    log = []

    def waiter(res, tag, **kw):
        req = res.request(**kw)
        assert not req.triggered  # queued behind the holder
        yield req
        log.append((tag, env.now))
        yield env.timeout(1)
        yield res.release(req)

    def holder():
        held = plain.request(), prio.request()
        for tag, kw in (("p1", {}), ("p2", {})):
            env.process(waiter(plain, tag, **kw))
        for tag, priority in (("late5", 5), ("urgent", 2), ("later5", 5)):
            env.process(waiter(prio, tag, priority=priority))
        yield env.timeout(10)
        for res, req in zip((plain, prio), held):
            res.release(req)
            assert env.peek() == env.now  # a queued grant is an event

    env.process(holder())
    env.run()
    assert log == [("p1", 10), ("urgent", 10), ("p2", 11), ("late5", 11),
                   ("later5", 12)]


def test_preempting_an_inline_granted_cpu_holder_charges_its_duration():
    env = Environment()
    cpu = Cpu(env, CpuParams())
    done = {}

    def work(tag, start, duration, priority):
        yield env.timeout(start)
        yield from cpu.execute(duration, priority, label=tag)
        done[tag] = env.now

    env.process(work("user", 0, 1000, PRIO_USER))
    env.process(work("irq", 300, 200, PRIO_IRQ))
    env.run(until=1)
    (holder,) = cpu._res.users
    assert holder.processed and holder.priority == PRIO_USER
    env.run()
    assert done == {"irq": 500, "user": 1200}
    assert cpu.busy.total_busy == 1200
    assert cpu.counters["preemptions"] == 1
    assert cpu.counters["work.user"] == 1000 and cpu.counters["work.irq"] == 200


def test_memory_bus_grant_stays_scheduled():
    env = Environment(profile=True)
    bus = MemoryBus(env, MemoryParams())._bus
    req = bus.request()
    assert req.triggered and not req.processed
    assert env.profiler.events_scheduled == 1 and env.peek() == 0
    env.run()
    assert req.processed and bus.users == [req]


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
