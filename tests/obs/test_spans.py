"""Span-layer tests: parenting, lookups, null path, and determinism."""

import pytest

from repro.obs import NULL_SPAN, Tracer
from repro.sim import Environment, Trace, TraceRecord


def make_tracer(enabled=True):
    env = Environment()
    trace = Trace(enabled=enabled)
    return env, trace, Tracer(env, trace)


def test_spans_nest_within_one_process():
    env, trace, tracer = make_tracer()

    def proc():
        outer = tracer.begin("node0.kernel", "syscall", label="send")
        inner = tracer.begin("node0.clic", "clic_send")
        yield env.timeout(10)
        inner.end()
        yield env.timeout(5)
        outer.end()

    env.process(proc(), name="p")
    env.run()
    outer, inner = tracer.find(name="syscall")[0], tracer.find(name="clic_send")[0]
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert inner.start_ns == 0 and inner.end_ns == 10
    assert outer.duration_ns == 15
    # Spans live on the tracer only: nothing is mirrored into the trace.
    assert len(trace) == 0


def test_concurrent_processes_do_not_cross_parent():
    """A span opened by one sim process must never parent a span opened
    by another process that merely runs while the first sleeps."""
    env, trace, tracer = make_tracer()

    def sleeper():
        span = tracer.begin("node0.kernel", "syscall")
        yield env.timeout(100)
        span.end()

    def interloper():
        yield env.timeout(50)
        span = tracer.begin("node0.eth0", "irq")
        yield env.timeout(10)
        span.end()

    env.process(sleeper(), name="a")
    env.process(interloper(), name="b")
    env.run()
    irq = tracer.find(name="irq")[0]
    assert irq.parent_id is None  # not the sleeping process's syscall


def test_disabled_tracer_returns_null_span():
    env, trace, tracer = make_tracer(enabled=False)
    span = tracer.begin("x", "y")
    assert span is NULL_SPAN
    span.annotate(a=1).end()
    tracer.instant("x", "z")
    assert tracer.spans == []
    assert len(trace) == 0
    # With no trace at all the tracer is off too.
    bare = Tracer(env)
    assert not bare.enabled and bare.begin("x", "y") is NULL_SPAN


def test_span_double_end_raises_and_open_spans():
    env, trace, tracer = make_tracer()
    span = tracer.begin("s", "n")
    assert tracer.open_spans == [span]
    span.end()
    assert tracer.open_spans == []
    with pytest.raises(ValueError, match="twice"):
        span.end()
    with pytest.raises(ValueError, match="open"):
        tracer.begin("s", "m").duration_ns


def test_lookups_and_containing():
    env, trace, tracer = make_tracer()

    def proc():
        a = tracer.begin("node1.eth0", "irq")
        yield env.timeout(10)
        tracer.instant("node1.eth0", "driver_rx", pkt=7)
        a.end()
        yield env.timeout(10)
        b = tracer.begin("node1.eth0", "irq")
        yield env.timeout(10)
        b.end()

    env.process(proc(), name="p")
    env.run()
    assert len(tracer.find(scope="node1.eth0", name="irq")) == 2
    assert tracer.find(scope_prefix="node1", name="irq")[0].start_ns == 0
    assert tracer.first(name="nonexistent") is None
    # The owned trace contains the instant, stored there once.
    assert tracer.trace is trace
    assert trace.records == [TraceRecord(10, "node1.eth0", "driver_rx", {"pkt": 7})]


def test_same_seed_runs_are_byte_identical():
    """Two identical fig7 captures must produce identical span streams
    and byte-identical Chrome exports (determinism acceptance check)."""
    from repro.experiments import fig7
    from repro.obs import chrome_trace_json, records_of, spans_of

    def one_run():
        cluster, path, done = fig7.capture(direct_rx=False)
        spans = spans_of(cluster.tracer)
        return spans, chrome_trace_json(spans, records_of(cluster.trace))

    spans_1, chrome_1 = one_run()
    spans_2, chrome_2 = one_run()
    assert spans_1 == spans_2
    assert chrome_1 == chrome_2
    assert len(spans_1) > 0
