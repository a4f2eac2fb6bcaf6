"""The network interface card.

Models an SMC9462TX / 3C996-T-class Gigabit Ethernet adapter:

* **tx**: the driver posts descriptors into a bounded tx ring; the NIC's
  transmit pump DMAs the bytes across PCI as *bus master* (directly from
  user pages when the descriptor is scatter/gather — the paper's 0-copy
  path #2 — or from kernel staging memory otherwise), charges firmware
  per-frame processing, and serializes the frame onto the link;
* **rx**: arriving frames occupy bounded on-card buffer slots (overflow
  drops are counted — this is what the protocols' reliability layer must
  survive); the coalescer asserts the host IRQ; by default the *driver*
  then moves each frame to host memory across PCI inside the interrupt
  context — exactly the 15 µs receive stage of the paper's Figure 7(a);
* **push mode** (``rx_deliver="push"``): the NIC itself DMAs arriving
  frames straight to pre-posted host buffers and invokes a host callback
  per frame — the modified-driver behaviour GAMMA relies on and the
  completion-queue behaviour VIA relies on;
* optional **fragmentation offload** (paper §2, declined for CLIC to
  preserve driver portability; implemented here as the paper's
  future-work option): descriptors larger than the MTU are split into
  MTU-sized frames by NIC firmware, and received fragments of one packet
  are reassembled on-card before being handed to the host.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional

from typing import TYPE_CHECKING

from ...config import LinkParams, NicParams
from ...obs import MetricsRegistry, Tracer
from ...sim import Counters, Environment, Event, Store
from ..pci import PciBus

if TYPE_CHECKING:  # pragma: no cover - import cycle: link.py needs frames.py
    from ..link import Channel
from .frames import (EtherType, Frame, MacAddress, max_payload,
                     payload_time_ns, split_train)
from .interrupts import InterruptCoalescer

__all__ = ["TxDescriptor", "RxFrame", "Nic"]

_desc_ids = itertools.count(1)


@dataclass(slots=True)
class TxDescriptor:
    """One transmit request handed to the NIC by the driver."""

    dst: MacAddress
    ethertype: int
    payload_bytes: int
    payload: Any = None
    #: scatter/gather straight from user memory (0-copy) vs kernel staging
    from_user_memory: bool = False
    #: event succeeded when the (last) frame has left the NIC
    on_wire: Optional[Event] = None
    desc_id: int = field(default_factory=lambda: next(_desc_ids))
    #: flow-mode batch width: this descriptor stands for ``k`` equal-size
    #: frames (``payload_bytes`` is the train total; see repro.sim.flowmode)
    train_frames: int = 1


@dataclass(slots=True)
class RxFrame:
    """A received frame waiting in (or delivered from) the NIC."""

    frame: Frame
    arrived_at: float
    #: set once the bytes sit in host memory
    in_host_memory: bool = False


class Nic:
    """A Gigabit Ethernet adapter on one node's PCI bus."""

    def __init__(
        self,
        env: Environment,
        params: NicParams,
        link_params: LinkParams,
        pci: PciBus,
        mac: MacAddress,
        name: str = "nic",
        rx_deliver: str = "irq-pull",
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if rx_deliver not in ("irq-pull", "push"):
            raise ValueError(f"unknown rx_deliver mode {rx_deliver!r}")
        self.env = env
        self.params = params
        self.link_params = link_params
        self.pci = pci
        self.mac = mac
        self.name = name
        self.rx_deliver = rx_deliver
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(env)
        self.counters = Counters(registry=self.metrics, prefix=f"{name}.")
        #: per-frame PCI DMA labels, built once
        self._tx_label = f"{name}.tx"
        self._rx_label = f"{name}.rx"
        self._rxpush_label = f"{name}.rxpush"
        #: frames waiting on-card for the driver (high-water via gauge)
        self._rx_depth_gauge = self.metrics.gauge(f"{name}.rx_buffer_depth")

        self._tx_ring: Store = Store(env, capacity=params.tx_ring_slots, name=f"{name}.txring")
        self._rx_buffer: List[RxFrame] = []  # bounded by rx_ring_slots
        #: rx-buffer occupancy in *frame* units (a flow-mode train entry
        #: occupies ``train_frames`` ring descriptors) — equals
        #: ``len(_rx_buffer)`` whenever no train is buffered
        self._rx_occ = 0
        #: ring descriptors claimed by frames still in rx processing
        #: (admitted, not yet in ``_rx_buffer``) — coincident arrivals
        #: (duplicated/jittered frames) must not overshoot the ring
        self._rx_claimed = 0
        #: highest rx-buffer occupancy ever observed (overrun accounting)
        self.rx_buffer_peak = 0
        self._tx_channel: Optional["Channel"] = None

        #: host-side IRQ trampoline, installed by the driver
        self.irq_callback: Optional[Callable[[], None]] = None
        #: push-mode per-frame host callback (GAMMA/VIA)
        self.push_callback: Optional[Callable[[RxFrame], None]] = None

        self.coalescer = InterruptCoalescer(env, params, self._assert_irq, name=f"{name}.coalesce")
        #: on-card tx FIFO: decouples host-side DMA from wire serialization
        self._tx_fifo: Store = Store(env, capacity=params.tx_fifo_frames, name=f"{name}.txfifo")
        env.process(self._tx_pump(), name=f"{name}.txpump")
        env.process(self._wire_pump(), name=f"{name}.wirepump")

        # On-NIC reassembly state for fragmentation offload.
        self._reassembly: dict = {}
        #: NIC-resident collective engine (lazily built; None until the
        #: MPI layer opts in — the rx fast path stays a None check)
        self._collective = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def collective_engine(self):
        """The on-card collective engine, built on first use."""
        if self._collective is None:
            from .collective import CollectiveEngine

            self._collective = CollectiveEngine(self)
        return self._collective

    def attach_tx(self, channel: "Channel") -> None:
        """Connect the NIC's transmit side to a link channel."""
        if self._tx_channel is not None:
            raise RuntimeError(f"{self.name} tx already attached")
        self._tx_channel = channel

    def receive_frame(self, frame: Frame) -> None:
        """Link-side entry point: a frame has fully arrived (channel sink)."""
        k = frame.train_frames
        self.counters.add("rx_frames", k)
        self.counters.add("rx_bytes", frame.payload_bytes)
        journeys = self.tracer.journeys
        if frame.corrupted:
            # Ethernet CRC check in NIC hardware: a damaged frame never
            # reaches the host — the reliability layer must retransmit.
            self.counters.add("rx_crc_drops", k)
            if journeys is not None:
                journeys.hop(frame.payload, "nic_drop", self.name, reason="crc")
            return
        per_payload = frame.payload_bytes // k if k > 1 else frame.payload_bytes
        if per_payload > self.params.effective_mtu():
            # Jumbo interoperability (paper §2: "both communicating
            # computers have to use Jumbo frames"): an oversized frame is
            # dropped by a standard-MTU receiver.
            self.counters.add("rx_oversize_drops", k)
            if journeys is not None:
                journeys.hop(frame.payload, "nic_drop", self.name, reason="oversize")
            return
        if self._collective is not None and self._collective.match(frame):
            # Collective frames are combined/forwarded on-card: they
            # never take a ring slot, never feed the coalescer, and
            # never raise an IRQ — the host only sees the completion.
            self._collective.on_frame(frame)
            return
        if k > 1 and self._rx_occ + self._rx_claimed + k > self.params.rx_ring_slots:
            # Mid-flight ring shortfall: the train cannot occupy k slots
            # as one unit, so materialize it and admit frame by frame —
            # partial admission and per-frame drops stay exact.
            for sub in split_train(frame):
                self._admit(sub, journeys)
            return
        self._admit(frame, journeys)

    def _admit(self, frame: Frame, journeys) -> None:
        """Ring admission for one (possibly train) frame; counts drops."""
        k = frame.train_frames
        if self._rx_occ + self._rx_claimed + k > self.params.rx_ring_slots:
            self.counters.add("rx_drops", k)
            if journeys is not None:
                journeys.hop(frame.payload, "nic_drop", self.name, reason="overflow")
            return
        if journeys is not None:
            journeys.hop(frame.payload, "nic_rx", self.name,
                         nbytes=frame.payload_bytes)
        self._rx_claimed += k  # hardware claims the descriptor(s) at arrival
        rx = RxFrame(frame=frame, arrived_at=self.env.now)
        span = self.tracer.begin_detached(self.name, "nic_rx",
                                          nbytes=frame.payload_bytes)
        if self.rx_deliver == "push":
            self.env.process(self._rx_process(rx, span), name=f"{self.name}.rx")
        else:
            # Firmware processing is one delay before synchronous work.
            self.env.call_later(self.params.frame_processing_ns * k,
                                lambda: self._rx_firmware_done(rx, span))

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------
    def tx_ring_space(self) -> int:
        """Free descriptor slots (the driver checks before posting)."""
        return self.params.tx_ring_slots - len(self._tx_ring.items)

    def try_post_tx(self, desc: TxDescriptor) -> bool:
        """Post a descriptor if the ring has room; False when full.

        The *driver* indicates to the protocol module whether the send is
        possible right now (paper §3.1) — when not, CLIC stages the data
        in system memory and retries later.
        """
        if self.tx_ring_space() <= 0:
            self.counters.add("tx_ring_full")
            return False
        self._effective_mtu_check(desc)
        self._tx_ring.put_nowait(desc)
        return True

    def post_tx(self, desc: TxDescriptor):
        """Blocking post: event that triggers once the descriptor is queued."""
        self._effective_mtu_check(desc)
        return self._tx_ring.put(desc)

    def _effective_mtu_check(self, desc: TxDescriptor) -> None:
        mtu = self.params.effective_mtu()
        nbytes = desc.payload_bytes
        if desc.train_frames > 1:
            # A train is k equal-size frames: the MTU bound applies to
            # each constituent frame, not the batch total.
            nbytes //= desc.train_frames
        if nbytes > mtu and not self.params.supports_fragmentation:
            raise ValueError(
                f"descriptor of {desc.payload_bytes} B exceeds MTU {mtu} and "
                f"{self.name} has no fragmentation offload — the protocol "
                "module must fragment in software"
            )

    def _tx_pump(self) -> Generator:
        while True:
            desc: TxDescriptor = yield self._tx_ring.get()
            span = self.tracer.begin(self.name, "nic_tx", nbytes=desc.payload_bytes)
            if desc.train_frames > 1:
                k = desc.train_frames
                per_frame = desc.payload_bytes // k
                flow = self.env.flow
                route = (flow.hop_route(self, desc.dst)
                         if flow is not None else None)
                if (route is not None and desc.on_wire is None
                        and not self._tx_fifo.items and route.hop_clear()):
                    # Analytic fast path.  Pay the *head* frame's DMA
                    # inline (the PCI grant paces back-to-back trains
                    # exactly as k per-frame transfers would) and hold
                    # the bus for the remaining k-1 frames in the
                    # background — utilization and inter-train cadence
                    # stay exact, while the train's head reaches the
                    # destination at the pipelined (cut-through) time
                    # instead of after k serial hop charges.  The
                    # receive side then drains the k frames with the
                    # fully simulated ring/IRQ machinery, overlapping
                    # the background DMA just as the exact per-packet
                    # schedule does.
                    yield from self.pci.dma(per_frame, priority=2,
                                            label=self._tx_label)
                    self.env.process(
                        self.pci.dma(desc.payload_bytes - per_frame,
                                     priority=2, label=self._tx_label,
                                     transactions=k - 1),
                        name=f"{self.name}.txdma",
                    )
                    yield self.env.timeout(self.params.frame_processing_ns)
                    frame = Frame(
                        src=self.mac,
                        dst=desc.dst,
                        ethertype=desc.ethertype,
                        payload_bytes=desc.payload_bytes,
                        payload=desc.payload,
                        train_frames=k,
                    )
                    if desc.from_user_memory:
                        self.counters.add("tx_zero_copy", k)
                    self.counters.add("tx_frames", k)
                    self.counters.add("tx_bytes", desc.payload_bytes)
                    latency = (
                        payload_time_ns(per_frame, route.up.params)
                        + route.up.params.propagation_ns
                        + route.forward_ns
                        + payload_time_ns(per_frame, route.down.params)
                        + route.down.params.propagation_ns
                    )
                    self.env.call_later(
                        latency, lambda f=frame, r=route: r.complete_hop(f)
                    )
                    span.end(frames=k, analytic=True)
                    continue
                # Exact-resource train path: one bus-master burst charging
                # k descriptor setups + the batch bytes, k frames' worth of
                # firmware processing, and a single batched FIFO entry —
                # closed-form equal to k back-to-back per-frame passes.
                yield from self.pci.dma(desc.payload_bytes, priority=2,
                                        label=self._tx_label,
                                        transactions=k)
                yield self.env.timeout(self.params.frame_processing_ns * k)
                frame = Frame(
                    src=self.mac,
                    dst=desc.dst,
                    ethertype=desc.ethertype,
                    payload_bytes=desc.payload_bytes,
                    payload=desc.payload,
                    train_frames=k,
                )
                yield self._tx_fifo.put((frame, desc.on_wire))
                if desc.from_user_memory:
                    self.counters.add("tx_zero_copy", k)
                span.end(frames=k)
                continue
            # Bus-master DMA: fetch the payload (plus headers) across PCI.
            yield from self.pci.dma(desc.payload_bytes, priority=2, label=self._tx_label)
            journeys = self.tracer.journeys
            if journeys is not None:
                journeys.hop(desc.payload, "nic_dma", self.name,
                             nbytes=desc.payload_bytes)
            mtu = self.params.effective_mtu()
            if desc.payload_bytes <= mtu:
                pieces = [(desc.payload_bytes, desc.payload, True)]
            else:
                # Fragmentation offload: firmware splits into MTU frames.
                pieces = []
                remaining = desc.payload_bytes
                while remaining > 0:
                    take = min(mtu, remaining)
                    remaining -= take
                    pieces.append((take, desc.payload, remaining == 0))
                self.counters.add("tx_offload_fragmented")
            last_idx = len(pieces) - 1
            for idx, (nbytes, payload, last) in enumerate(pieces):
                yield self.env.timeout(self.params.frame_processing_ns)
                frame = Frame(
                    src=self.mac,
                    dst=desc.dst,
                    ethertype=desc.ethertype,
                    payload_bytes=nbytes,
                    payload=payload,
                )
                if len(pieces) > 1:
                    frame.payload = _FragmentMarker(desc.desc_id, payload, last=last, total=desc.payload_bytes)
                on_wire = desc.on_wire if idx == last_idx else None
                yield self._tx_fifo.put((frame, on_wire))
            if desc.from_user_memory:
                self.counters.add("tx_zero_copy")
            span.end(frames=len(pieces))

    def _wire_pump(self) -> Generator:
        """Drain the on-card FIFO onto the wire (overlaps host DMA)."""
        while True:
            frame, on_wire = yield self._tx_fifo.get()
            yield from self._tx_channel.transmit(frame)
            journeys = self.tracer.journeys
            if journeys is not None:
                journeys.hop(frame.payload, "wire", self.name,
                             nbytes=frame.payload_bytes)
            self.counters.add("tx_frames", frame.train_frames)
            self.counters.add("tx_bytes", frame.payload_bytes)
            if on_wire is not None:
                on_wire.succeed(self.env.now)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _rx_process(self, rx: RxFrame, span) -> Generator:
        """Push mode: firmware processing, then the DMA to host memory."""
        k = rx.frame.train_frames
        yield self.env.timeout(self.params.frame_processing_ns * k)
        if not self._rx_firmware_done(rx, span):
            return
        # NIC pushes straight to host memory, then tells the host.
        yield from self.pci.dma(rx.frame.payload_bytes, priority=2, label=self._rxpush_label)
        rx.in_host_memory = True
        self._rx_claimed -= k  # descriptor recycled after the push
        if self.push_callback is not None:
            self.push_callback(rx)
        span.end(pushed=True)

    def _rx_firmware_done(self, rx: RxFrame, span) -> bool:
        """Receive tail once firmware processing is over.

        Runs on-card reassembly of offload fragments, then (irq-pull
        mode) moves the frame onto the ring and feeds the coalescer.
        Returns True when a push-mode frame still needs its DMA.
        """
        k = rx.frame.train_frames
        marker = rx.frame.payload if isinstance(rx.frame.payload, _FragmentMarker) else None
        if marker is not None and self.params.supports_fragmentation:
            # On-NIC reassembly: accumulate, deliver once complete.
            acc = self._reassembly.setdefault(marker.desc_id, [0])
            acc[0] += rx.frame.payload_bytes
            if not marker.last:
                self._rx_claimed -= 1  # fragment consumed on-card
                span.end(reassembling=True)
                return False
            total = acc[0]
            del self._reassembly[marker.desc_id]
            rx.frame.payload_bytes = total
            rx.frame.payload = marker.payload
            self.counters.add("rx_offload_reassembled")
        elif marker is not None:
            # Fragments but no offload on this side: hand up as-is; the
            # protocol module deals with it (interop corner, counted).
            self.counters.add("rx_fragment_no_offload")
            rx.frame.payload = marker.payload

        if self.rx_deliver == "push":
            return True
        self._rx_claimed -= k  # claimed -> buffered
        self._rx_occ += k
        self._rx_buffer.append(rx)
        self._rx_depth_gauge.set(self._rx_occ)
        # Receiver-overrun accounting: the high-water mark the bounded-
        # memory invariant audits against ``rx_ring_slots``.
        if self._rx_occ > self.rx_buffer_peak:
            self.rx_buffer_peak = self._rx_occ
            self.counters.set("rx_buffer_peak", self.rx_buffer_peak)
        span.end()
        if k > 1:
            self.coalescer.note_train(k)
        else:
            self.coalescer.note_frame()
        return False

    def _assert_irq(self) -> None:
        self.counters.add("irqs_asserted")
        if self.irq_callback is None:
            raise RuntimeError(f"{self.name}: IRQ asserted but no driver installed")
        self.irq_callback()

    # -- driver-facing rx services (irq-pull mode) -------------------------
    def rx_pending(self) -> int:
        """Ring entries waiting on-card for the driver (a train is one)."""
        return len(self._rx_buffer)

    def rx_headroom(self) -> int:
        """Free rx descriptors right now (flow-mode admission check)."""
        return self.params.rx_ring_slots - self._rx_occ - self._rx_claimed

    def peek_rx(self) -> Optional[RxFrame]:
        """The oldest pending rx frame without removing it (or None)."""
        return self._rx_buffer[0] if self._rx_buffer else None

    def dma_frame_to_host(self) -> Generator:
        """Driver-side: move the oldest pending frame to host memory.

        Charges the PCI transfer (one burst of ``train_frames``
        descriptor setups for a flow-mode train); the *caller* (the
        driver, in interrupt context) stays busy for its own per-frame
        costs.  Returns the :class:`RxFrame`.
        """
        if not self._rx_buffer:
            raise RuntimeError(f"{self.name}: no pending rx frame")
        rx = self._rx_buffer.pop(0)
        self._rx_occ -= rx.frame.train_frames
        self._rx_depth_gauge.set(self._rx_occ)
        yield from self.pci.dma(rx.frame.payload_bytes, priority=2,
                                label=self._rx_label,
                                transactions=rx.frame.train_frames)
        rx.in_host_memory = True
        return rx

    def irq_service_done(self) -> None:
        """Driver-side: drain finished; re-arm coalescing.

        Pending frames are counted off the buffer itself (train-aware)
        rather than the ``_rx_occ`` gauge so frames parked on the ring
        by other means (tests, diagnostics) are still serviced.
        """
        pending = sum(rx.frame.train_frames for rx in self._rx_buffer)
        self.coalescer.service_done(pending)


@dataclass
class _FragmentMarker:
    """Payload wrapper for NIC-offload fragments on the wire."""

    desc_id: int
    payload: Any
    last: bool = False
    total: int = 0
