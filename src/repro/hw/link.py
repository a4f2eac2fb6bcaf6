"""Point-to-point Gigabit Ethernet links.

A :class:`Link` is full duplex: two independent :class:`Channel`\\ s, one
per direction.  Each channel serializes frames at the line rate
(including preamble, CRC padding and inter-frame gap) and delivers them
to its sink after the propagation delay.  Fault injection (loss, burst
loss, corruption, outages — see :mod:`repro.faults`) exercises the
protocols' reliability machinery.

Counter semantics: ``frames_offered``/``bytes_offered`` count everything
serialized onto the wire (one per transmit, however many copies result);
``frames``/``bytes`` count what is actually *delivered* to the sink —
every copy (corrupted frames are delivered — the receiving NIC's CRC
check drops them); ``frames_lost``/``bytes_lost`` count drops from loss
models and outages; ``frames_duplicated``/``bytes_duplicated`` count the
*extra* copies a duplication fault produced.  Offered + duplicated =
delivered + lost, always.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Generator, Optional

from ..config import LinkParams
from ..faults import ChannelFaults, FrameVerdict
from ..sim import BusyTracker, Counters, Environment, Resource
from .nic.frames import Frame, frame_time_ns

__all__ = ["Channel", "Link"]


class Channel:
    """One direction of a link: serialize, propagate, deliver."""

    def __init__(
        self,
        env: Environment,
        params: LinkParams,
        name: str = "chan",
        faults: Optional[ChannelFaults] = None,
        tracer=None,
    ):
        self.env = env
        self.params = params
        self.name = name
        self._wire = Resource(env, capacity=1, name=name)
        self._sink: Optional[Callable[[Frame], None]] = None
        self.busy = BusyTracker()
        self.counters = Counters()
        #: optional :class:`repro.obs.Tracer`; only its ``journeys``
        #: attribute is consulted (for wire drop / duplicate events)
        self.tracer = tracer
        #: per-frame fault verdicts (None = a clean wire)
        self.faults = faults

    def _journeys(self):
        return self.tracer.journeys if self.tracer is not None else None

    @property
    def idle(self) -> bool:
        """True when nothing is serializing or queued for the wire.

        The flow-mode engine consults this before advancing a train (or
        an express ack) analytically past the wire: any in-progress or
        queued transmission forces the exact resource-contended path so
        ordering can never invert.
        """
        return not self._wire.users and not self._wire.queue

    def connect(self, sink: Callable[[Frame], None]) -> None:
        """Attach the receiving endpoint (called once per channel)."""
        if self._sink is not None:
            raise RuntimeError(f"channel {self.name} already connected")
        self._sink = sink

    def transmit(self, frame: Frame) -> Generator:
        """Serialize ``frame`` onto the wire (the caller waits for that),
        then deliver it to the sink after propagation."""
        if self._sink is None:
            raise RuntimeError(f"channel {self.name} has no sink")
        duration = frame_time_ns(frame, self.params)
        if frame.train_frames > 1:
            # Flow-mode train, cut-through timing: the train is paced by
            # the slower upstream stage (host PCI DMA serializes the k
            # frames before the wire ever sees them), so in the exact
            # simulation the wire overlaps with that pacing and adds only
            # one frame's serialization to the tail latency.  Holding the
            # wire k frame-times here would stack latency the pipelined
            # packet model does not have; hold one frame time instead.
            # (Utilization under-reports by (k-1)/k per train — a
            # documented flow-mode approximation.)
            duration /= frame.train_frames
        if self.faults is not None:
            # Congestion collapses effective bandwidth: the wire is held
            # for a multiple of the healthy serialization time, so every
            # queued successor is pushed out too (the spike cascades).
            duration *= self.faults.congestion_factor(self.env.now)
        with self._wire.request() as grant:
            yield grant
            self.busy.acquire(self.env.now)
            try:
                yield self.env.timeout(duration)
            finally:
                self.busy.release(self.env.now)
        k = frame.train_frames
        self.counters.add("frames_offered", k)
        self.counters.add("bytes_offered", frame.payload_bytes)
        sink = self._sink
        if k > 1 or self.faults is None:
            # Clean delivery: one timer hands the frame to the sink.  A
            # flow-mode train only formed because the controller proved
            # both directions quiet over its horizon (no stochastic
            # models, no outage/congestion window), so its verdict is
            # DELIVER with no extras — skip the per-frame draw.
            self.counters.add("frames", k)
            self.counters.add("bytes", frame.payload_bytes)
            self.env.call_later(self.params.propagation_ns,
                                lambda: sink(frame))
            return
        decision = self.faults.decide(self.env.now)
        journeys = self._journeys()
        if decision.dropped:
            self.counters.add("frames_lost")
            self.counters.add("bytes_lost", frame.payload_bytes)
            if journeys is not None:
                journeys.hop(frame.payload, "wire_drop", "wire", link=self.name,
                             reason=decision.verdict.value)
            return
        if decision.verdict is FrameVerdict.CORRUPT:
            # Deliver a damaged copy (a broadcast frame object is shared
            # across egress ports — never corrupt the shared instance).
            frame = replace(frame, corrupted=True)
            self.counters.add("frames_corrupted")
        delay = (
            self.params.propagation_ns
            + decision.extra_delay_ns
            + self.faults.congestion_latency_ns(self.env.now)
        )
        if decision.copies > 1:
            self.counters.add("frames_duplicated", decision.copies - 1)
            self.counters.add("bytes_duplicated",
                              frame.payload_bytes * (decision.copies - 1))
            if journeys is not None:
                journeys.hop(frame.payload, "wire_dup", "wire", link=self.name,
                             copies=decision.copies)
        for _ in range(decision.copies):
            self.counters.add("frames")
            self.counters.add("bytes", frame.payload_bytes)
            self.env.call_later(delay, lambda: sink(frame))

    def utilization(self) -> float:
        """Busy fraction of this direction since time zero."""
        now = self.env.now
        if now <= 0:
            return 0.0
        return self.busy.busy_time(now) / now


class Link:
    """A full-duplex link between two endpoints, A and B."""

    def __init__(
        self,
        env: Environment,
        params: LinkParams,
        name: str = "link",
    ):
        self.env = env
        self.params = params
        self.name = name
        self.a_to_b = Channel(env, params, f"{name}.a2b")
        self.b_to_a = Channel(env, params, f"{name}.b2a")
