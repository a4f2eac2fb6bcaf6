"""CLIC_MODULE — the in-kernel protocol engine.

This is the paper's contribution (§3.1).  The module lives inside the
kernel; user processes reach it through one system call per operation.
On **send** it composes the 14 B Ethernet + 12 B CLIC headers, fills an
``SK_BUFF`` (scatter/gather over the *user* pages when the NIC supports
it — the Gigabit 0-copy path), and calls the unmodified driver.  If the
driver reports the NIC busy, the data is copied once into system memory
(that copy overlaps other traffic) and a backlog pump retries.  On
**receive** the module runs from the bottom halves (or directly from the
IRQ handler when the Figure 8(b) improvement is enabled), decodes the
packet type, and either copies the data straight into the memory of a
waiting process / remote-write region or parks it in system memory until
a ``recv`` arrives.

Reliability (sliding window, cumulative acks, retransmission) is per
peer-node channel; §5's extra features — same-node delivery, Ethernet
broadcast, send-with-confirmation, kernel-function packets, channel
bonding over several NICs — are all here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ...config import ClicParams
from ...hw.cpu import PRIO_KERNEL, PRIO_SOFTIRQ
from ...hw.nic import BROADCAST, EtherType, MacAddress
from ...oskernel import SkBuff
from ...sim import Counters, Environment, Event, Store
from ..headers import ClicAck, ClicPacket, ClicPacketType, ClicTrain, fragment_plan
from ..reliability import OrderedReceiver, RtoEstimator, WindowedSender

__all__ = ["ClicModule", "ClicMessage", "RemoteRegion"]

ETH_HEADER = 14


@dataclass
class ClicMessage:
    """A complete message as handed to the application."""

    src_node: int
    port: int
    tag: int
    nbytes: int
    msg_id: int
    payload: Any = None
    remote_write: bool = False
    completed_at: float = 0.0
    #: True once the payload sits in the receiving process's memory
    in_user_memory: bool = False


@dataclass
class RemoteRegion:
    """A user-memory window registered for asynchronous remote writes."""

    port: int
    size: int
    bytes_written: int = 0
    #: events to succeed as messages complete
    waiters: List[Event] = field(default_factory=list)
    completed_messages: int = 0
    #: completions not yet observed by a waiter (so notifications are
    #: never lost when writes finish while nobody is waiting)
    unclaimed: List["ClicMessage"] = field(default_factory=list)


@dataclass
class _Partial:
    """A message being reassembled from fragments."""

    src_node: int
    port: int
    tag: int
    msg_id: int
    msg_bytes: int
    received: int = 0
    #: receiver already bound: fragments are copied to user memory on arrival
    bound_waiter: Optional[Event] = None
    remote_write: bool = False
    payload: Any = None


class _PortState:
    def __init__(self) -> None:
        self.ready: List[ClicMessage] = []
        self.waiters: List[Tuple[Callable[[ClicMessage], bool], Event]] = []
        self.region: Optional[RemoteRegion] = None


class ClicModule:
    """One node's CLIC kernel module."""

    def __init__(self, node):
        self.node = node
        self.env: Environment = node.env
        self.params: ClicParams = node.cfg.clic
        self.kernel = node.kernel
        #: tracing scope of this module, e.g. ``node0.clic``
        self.scope = f"{node.name}.clic"
        self.tracer = self.kernel.tracer
        self.counters = Counters(registry=self.kernel.metrics, prefix=f"{self.scope}.")
        self._msg_ids = itertools.count(1)

        self._senders: Dict[int, WindowedSender] = {}
        self._receivers: Dict[int, OrderedReceiver] = {}
        self._ports: Dict[int, _PortState] = {}
        self._partials: Dict[Tuple[int, int], _Partial] = {}
        self._rx_ready: List[ClicPacket] = []  # fragments released in-order
        self._kernel_fns: Dict[int, Callable] = {}
        self._bond_rr = 0  # round-robin channel-bonding cursor

        #: peers declared unreachable — by retry exhaustion on a data
        #: channel or by the control layer's aliveness pings; both paths
        #: converge here so the module has ONE opinion per peer.
        self.dead_peers: Dict[int, str] = {}
        #: callbacks ``(peer: int, reason: str)`` fired once per death
        self.peer_death_listeners: List[Callable[[int, str], None]] = []

        #: staged (system-memory) sends waiting for NIC ring space
        self._backlog: Store = Store(self.env, name=f"{node.name}.clic.backlog")
        self.env.process(self._backlog_pump(), name=f"{node.name}.clic.pump")

        self.kernel.register_protocol(EtherType.CLIC, self._rx_entry)

    # ------------------------------------------------------------------
    # configuration helpers
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self.node.node_id

    #: descriptor size handed to a fragmentation-offload NIC (§2 / future
    #: work): the module sends super-packets and the firmware splits them
    OFFLOAD_CHUNK = 64 * 1024

    def max_fragment(self) -> int:
        """User bytes per software fragment.

        Normally MTU minus the CLIC header; with on-NIC fragmentation
        (the paper's declined-for-portability optimisation, modeled as
        ABL-FRAG) the module posts much larger descriptors and the NIC
        firmware does the MTU split/reassembly, saving per-fragment
        module + driver + interrupt work.
        """
        if self.node.nics[0].params.supports_fragmentation:
            return self.OFFLOAD_CHUNK - self.params.header_bytes
        return self.node.mtu() - self.params.header_bytes

    def port(self, number: int) -> _PortState:
        """The port's state record (created on first use)."""
        state = self._ports.get(number)
        if state is None:
            state = self._ports[number] = _PortState()
        return state

    def _sender(self, dst_node: int) -> WindowedSender:
        sender = self._senders.get(dst_node)
        if sender is None:
            rto = None
            if self.params.adaptive_rto:
                rto = RtoEstimator(
                    initial_ns=self.params.retransmit_timeout_ns,
                    min_ns=self.params.min_rto_ns,
                    max_ns=self.params.max_rto_ns,
                )
            sender = WindowedSender(
                self.env,
                window=self.params.window_frames,
                retransmit_timeout_ns=self.params.retransmit_timeout_ns,
                max_retries=self.params.max_retries,
                retransmit=lambda packets, d=dst_node: self._retransmit(d, packets),
                name=f"{self.node.name}.clic.tx->{dst_node}",
                rto=rto,
                counters=Counters(
                    registry=self.kernel.metrics, prefix=f"{self.scope}.tx{dst_node}."
                ),
                fail_listener=lambda reason, d=dst_node: self._on_peer_failed(d, reason),
            )
            sender.dupack_threshold = self.params.dupack_threshold
            self._senders[dst_node] = sender
        return sender

    def _receiver(self, src_node: int) -> OrderedReceiver:
        receiver = self._receivers.get(src_node)
        if receiver is None:
            receiver = OrderedReceiver(
                self.env,
                deliver=self._rx_ready.append,
                send_ack=lambda cum, s=src_node: self._emit_ack(s, cum),
                ack_every=self.params.ack_every,
                ack_delay_ns=self.params.ack_delay_ns,
                stash_limit=self.params.reorder_stash_frames,
                name=f"{self.node.name}.clic.rx<-{src_node}",
                counters=Counters(
                    registry=self.kernel.metrics, prefix=f"{self.scope}.rx{src_node}."
                ),
            )
            self._receivers[src_node] = receiver
        return receiver

    def reorder_stash_depth(self, src_node: int) -> int:
        """Out-of-order stash occupancy for the channel from ``src_node``
        (0 when the channel does not exist yet) — flow-mode eligibility
        consults this through :attr:`FlowRoute.stash_depth`."""
        receiver = self._receivers.get(src_node)
        return receiver.stash_depth if receiver is not None else 0

    # -- peer aliveness -------------------------------------------------------
    def peer_is_dead(self, peer: int) -> bool:
        """True once ``peer`` has been declared unreachable."""
        return peer in self.dead_peers

    def declare_peer_dead(self, peer: int, reason: str) -> None:
        """Record ``peer`` as unreachable and notify listeners (idempotent).

        Any live sender channel to the peer is aborted, so blocked
        ``send``/``flush`` callers observe :class:`DeliveryFailed` — the
        retry-exhaustion path and the proactive-ping path (see
        :class:`~repro.protocols.clic.control.ClicControl`) thereby agree.
        """
        if peer in self.dead_peers:
            return
        self.dead_peers[peer] = reason
        self.counters.add("peers_dead")
        self.tracer.instant(self.scope, "peer_dead", peer=peer, reason=reason)
        sender = self._senders.get(peer)
        if sender is not None and not sender.failed:
            sender.abort(f"peer {peer} declared dead: {reason}")
        for listener in list(self.peer_death_listeners):
            listener(peer, reason)

    def _on_peer_failed(self, peer: int, reason: str) -> None:
        """A sender channel exhausted its retry budget."""
        self.declare_peer_dead(peer, reason)

    # ------------------------------------------------------------------
    # send path (runs in kernel context, inside the caller's syscall)
    # ------------------------------------------------------------------
    def send(
        self,
        dst_node: int,
        port: int,
        nbytes: int,
        tag: int = 0,
        ptype: ClicPacketType = ClicPacketType.DATA,
        payload: Any = None,
        remote_write: bool = False,
    ) -> Generator:
        """Reliable message send; returns (msg_id) once all fragments are
        handed off to the NIC or staged in system memory."""
        if nbytes < 0:
            raise ValueError("negative message size")
        if dst_node == self.node_id:
            result = yield from self._send_local(port, nbytes, tag, payload)
            return result
        msg_id = next(self._msg_ids)
        span = self.tracer.begin(self.scope, "clic_send",
                                 dst=dst_node, nbytes=nbytes, msg=msg_id)
        journeys = self.tracer.journeys
        if journeys is not None:
            journeys.begin(self.node_id, msg_id, dst_node, port, nbytes, self.scope)
        sender = self._sender(dst_node)
        if remote_write:
            ptype = ClicPacketType.REMOTE_WRITE
        frag_max = self.max_fragment()
        plan = list(fragment_plan(nbytes, frag_max))
        # Hybrid fast path (flow mode): with the controller installed,
        # module-level preconditions met, and the controller's
        # eligibility oracle agreeing, a run of full-size fragments
        # advances as one analytic train instead of per-fragment.
        flow = self.env.flow
        trainable = (
            flow is not None
            and journeys is None
            and len(self.node.drivers) == 1
            and ptype in (ClicPacketType.DATA, ClicPacketType.MPI,
                          ClicPacketType.REMOTE_WRITE)
        )
        index = 0
        while index < len(plan):
            offset, frag = plan[index]
            yield from sender.reserve()
            k = 0
            if trainable and frag == frag_max and not self._backlog.items:
                # The tail fragment (the last entry, full-size or not)
                # never rides a train — batched delivery stays strictly
                # mid-stream, so message completion is always exact.
                remaining_full = len(plan) - 1 - index
                k = flow.plan_train(self.node_id, dst_node, sender,
                                    remaining_full, self.env.now)
            if k >= 2:
                packets = []
                for train_offset, train_frag in plan[index:index + k]:
                    packets.append(ClicPacket(
                        ptype=ptype,
                        src_node=self.node_id,
                        dst_node=dst_node,
                        port=port,
                        msg_id=msg_id,
                        seq=0,  # assigned at register
                        frag_offset=train_offset,
                        frag_bytes=train_frag,
                        msg_bytes=nbytes,
                        tag=tag,
                        payload=payload,
                    ))
                for pkt, seq in zip(packets, sender.register_train(packets)):
                    pkt.seq = seq
                train = ClicTrain(packets=tuple(packets), frag_bytes=frag_max)
                yield from self._tx_train(train, dst_node)
                index += k
                continue
            pkt = ClicPacket(
                ptype=ptype,
                src_node=self.node_id,
                dst_node=dst_node,
                port=port,
                msg_id=msg_id,
                seq=0,  # assigned at register
                frag_offset=offset,
                frag_bytes=frag,
                msg_bytes=nbytes,
                tag=tag,
                payload=payload,
            )
            pkt.seq = sender.register(pkt)
            if journeys is not None:
                journeys.fragment(pkt, self.scope)
            yield from self._tx_packet(pkt)
            index += 1
        self.counters.add("msgs_sent")
        self.counters.add("bytes_sent", nbytes)
        span.end()
        return msg_id

    def flush(self, dst_node: int) -> Generator:
        """Wait until every packet sent to ``dst_node`` is acknowledged
        (the §5 "send with confirmation of reception" primitive)."""
        if dst_node == self.node_id:
            return
        yield from self._sender(dst_node).drain()

    def broadcast(self, port: int, nbytes: int, tag: int = 0, payload: Any = None) -> Generator:
        """Ethernet data-link broadcast (unreliable, §5)."""
        msg_id = next(self._msg_ids)
        frag_max = self.max_fragment()
        for offset, frag in fragment_plan(nbytes, frag_max):
            pkt = ClicPacket(
                ptype=ClicPacketType.BCAST,
                src_node=self.node_id,
                dst_node=-1,
                port=port,
                msg_id=msg_id,
                seq=0,
                frag_offset=offset,
                frag_bytes=frag,
                msg_bytes=nbytes,
                tag=tag,
                payload=payload,
            )
            yield from self._tx_packet(pkt, dst_mac=BROADCAST)
        self.counters.add("bcasts_sent")
        return msg_id

    def send_kernel_fn(self, dst_node: int, fn_id: int, nbytes: int = 0) -> Generator:
        """Invoke a registered kernel function on ``dst_node`` (§3.1's
        "kernel function packet" class)."""
        yield from self.send(
            dst_node, port=0, nbytes=nbytes, tag=fn_id, ptype=ClicPacketType.KERNEL_FN
        )

    def register_kernel_fn(self, fn_id: int, handler: Callable[[ClicPacket], Generator]) -> None:
        """Install a kernel-function handler for ``fn_id``."""
        if fn_id in self._kernel_fns:
            raise ValueError(f"kernel fn {fn_id} already registered")
        self._kernel_fns[fn_id] = handler

    # -- transmission mechanics ----------------------------------------------
    def _wire_bytes(self, pkt: ClicPacket) -> int:
        return self.params.header_bytes + pkt.frag_bytes

    def _tx_packet(self, pkt: ClicPacket, dst_mac: Optional[MacAddress] = None) -> Generator:
        """Compose headers + SK_BUFF, call the driver; stage on refusal."""
        cpu = self.kernel.cpu
        span = self.tracer.begin(self.scope, "clic_tx",
                                 pkt=pkt.packet_id, nbytes=pkt.frag_bytes)
        yield from cpu.execute(self.params.module_tx_ns, PRIO_KERNEL, label="clic_tx")
        zero_copy = self.params.zero_copy and self.node.nic_supports_sg()
        driver, mac = self._route(pkt, dst_mac)
        if zero_copy:
            skb = SkBuff.for_user_payload(pkt.frag_bytes, payload=pkt)
        else:
            # Fast Ethernet-era path: one copy user -> system memory first.
            yield from self.kernel.copy_user_to_system(pkt.frag_bytes)
            skb = SkBuff.for_system_payload(pkt.frag_bytes, payload=pkt)
        skb.push_header("clic", self.params.header_bytes)
        accepted = yield from driver.transmit(skb, mac, EtherType.CLIC)
        journeys = self.tracer.journeys
        if journeys is not None:
            journeys.tx(pkt, self.scope, accepted)
        if accepted:
            self.counters.add("pkts_tx")
            span.end(accepted=True)
            return
        # NIC busy: stage in system memory (the copy overlaps other
        # traffic; §3.1) and let the pump retry.
        if skb.is_zero_copy:
            yield from self.kernel.copy_user_to_system(pkt.frag_bytes)
            skb.relocate("system")
            self.counters.add("staged_copies")
        self.counters.add("pkts_staged")
        self._backlog.put_nowait((skb, mac))
        span.end(accepted=False)

    def _tx_train(self, train: ClicTrain, dst_node: int) -> Generator:
        """Batched transmit of a flow-mode train (see :mod:`repro.sim.flowmode`).

        Closed-form over the batch: ``k`` module-entry costs in one CPU
        slice, one SK_BUFF spanning the ``k`` fragments (``k`` staging
        copy setups when not zero-copy), one driver call posting a
        ``k``-wide descriptor.  Every modeled cost equals the sum of the
        ``k`` per-packet passes it replaces.
        """
        cpu = self.kernel.cpu
        k = len(train.packets)
        total_user = train.frag_bytes * k
        span = self.tracer.begin(self.scope, "clic_tx_train",
                                 frames=k, nbytes=total_user)
        yield from cpu.execute(self.params.module_tx_ns * k, PRIO_KERNEL,
                               label="clic_tx")
        zero_copy = self.params.zero_copy and self.node.nic_supports_sg()
        driver, mac = self.node.drivers[0], self.node.mac_of(dst_node, 0)
        if zero_copy:
            skb = SkBuff.for_user_payload(total_user, payload=train)
        else:
            yield from self.kernel.copy_user_to_system(total_user, setups=k)
            skb = SkBuff.for_system_payload(total_user, payload=train)
        skb.push_header("clic", self.params.header_bytes * k)
        accepted = yield from driver.transmit(skb, mac, EtherType.CLIC)
        if accepted:
            self.counters.add("pkts_tx", k)
            span.end(accepted=True, frames=k)
            return
        # NIC busy mid-train: stage the whole batch (one copy, k setups)
        # and let the pump retry — the train stays intact in the backlog.
        if skb.is_zero_copy:
            yield from self.kernel.copy_user_to_system(total_user, setups=k)
            skb.relocate("system")
            self.counters.add("staged_copies", k)
        self.counters.add("pkts_staged", k)
        self._backlog.put_nowait((skb, mac))
        span.end(accepted=False, frames=k)

    def _route(self, pkt: ClicPacket, dst_mac: Optional[MacAddress]):
        """Pick (driver, dst MAC) — round-robin across bonded channels."""
        drivers = self.node.drivers
        if dst_mac is not None and dst_mac.is_broadcast:
            return drivers[0], dst_mac
        channel = self._bond_rr % len(drivers)
        self._bond_rr += 1
        mac = self.node.mac_of(pkt.dst_node, channel)
        return drivers[channel], mac

    def _backlog_pump(self) -> Generator:
        """Retry staged packets as NIC ring space frees up."""
        while True:
            skb, mac = yield self._backlog.get()
            while True:
                driver = self.node.drivers[self._bond_rr % len(self.node.drivers)]
                accepted = yield from driver.transmit(skb, mac, EtherType.CLIC)
                if accepted:
                    self.counters.add("pkts_tx_from_backlog")
                    break
                yield self.env.timeout(5_000.0)  # ring still full; retry soon

    def _retransmit(self, dst_node: int, packets: List[ClicPacket]) -> None:
        """WindowedSender timeout callback: re-emit in a kernel process."""

        def _do() -> Generator:
            for pkt in packets:
                self.counters.add("pkts_retx")
                yield from self._tx_packet(pkt)

        self.env.process(_do(), name=f"{self.node.name}.clic.retx")

    def _emit_ack(self, dst_node: int, cumulative_seq: int) -> None:
        """OrderedReceiver callback: send a cumulative ack packet."""

        def _do() -> Generator:
            cpu = self.kernel.cpu
            flow = self.env.flow
            route = (flow.express_ack_route(self.node_id, dst_node, self.env.now)
                     if flow is not None and len(self.node.drivers) == 1
                     and self.tracer.journeys is None else None)
            if route is not None:
                # Flow-mode express lane: the whole reverse path is
                # provably quiet, so charge the same local CPU work in
                # one slice and advance the ack with one closed-form
                # timer.  Conservation counters along the path are
                # bumped by the route's delivery hook; cumulative-ack
                # semantics tolerate any reordering against exact-path
                # acks.
                driver = self.node.drivers[0]
                yield from cpu.execute(
                    self.params.module_tx_ns / 2 + driver.params.tx_call_ns,
                    PRIO_SOFTIRQ, label="clic_ack_tx",
                )
                ack_bytes = ClicAck.WIRE_BYTES + self.params.header_bytes
                nic = self.node.nics[0]
                nic.counters.add("tx_frames")
                nic.counters.add("tx_bytes", ack_bytes)
                driver.counters.add("tx_accepted")
                self.counters.add("acks_tx")
                deliver = route.deliver_ack
                cum = cumulative_seq
                self.env.call_later(route.ack_latency_ns,
                                    lambda: deliver(cum))
                return
            yield from cpu.execute(self.params.module_tx_ns / 2, PRIO_SOFTIRQ, label="clic_ack_tx")
            ack = ClicAck(src_node=self.node_id, dst_node=dst_node, cumulative_seq=cumulative_seq)
            skb = SkBuff.for_system_payload(ClicAck.WIRE_BYTES, payload=ack)
            skb.push_header("clic", self.params.header_bytes)
            driver, mac = self.node.drivers[0], self.node.mac_of(dst_node, 0)
            accepted = yield from driver.transmit(skb, mac, EtherType.CLIC)
            if not accepted:
                self._backlog.put_nowait((skb, mac))
            self.counters.add("acks_tx")

        self.env.process(_do(), name=f"{self.node.name}.clic.ack")

    def receive_ack_express(self, src_node: int, cumulative_seq: int) -> None:
        """Terminal hook of the flow-mode ack express lane.

        Invoked by :attr:`FlowRoute.deliver_ack` once the closed-form
        flight time has elapsed; applies the ack with the exact same
        sender-side semantics as the packet path.
        """
        self.counters.add("acks_rx")
        self._sender(src_node).on_ack(cumulative_seq)

    # ------------------------------------------------------------------
    # receive path (bottom-half or direct-IRQ context)
    # ------------------------------------------------------------------
    def _rx_entry(self, skb: SkBuff) -> Generator:
        cpu = self.kernel.cpu
        span = self.tracer.begin(self.scope, "clic_rx", direct=skb.direct_delivery)
        item = skb.payload
        if isinstance(item, ClicTrain):
            # Flow-mode train: k module entries charged in one CPU
            # slice, then per-packet receiver semantics as pure calls
            # (sequencing, duplicate suppression and ack cadence are
            # identical to k separate arrivals).
            k = len(item.packets)
            yield from cpu.execute(self.params.module_rx_ns * k, PRIO_SOFTIRQ,
                                   label="clic_rx")
            for pkt in item.packets:
                pkt._direct_delivery = skb.direct_delivery
            self._receiver(item.packets[0].src_node).on_train(
                (pkt.seq, pkt) for pkt in item.packets
            )
            if self._rx_ready:
                # Drain in place: the receiver holds a bound ``append`` of
                # this exact list object, so rebinding would orphan it.
                fragments = self._rx_ready[:]
                self._rx_ready.clear()
                yield from self._consume_released(fragments)
            span.end(kind="train", frames=k)
            return
        yield from cpu.execute(self.params.module_rx_ns, PRIO_SOFTIRQ, label="clic_rx")
        if isinstance(item, ClicAck):
            self._sender(item.src_node).on_ack(item.cumulative_seq)
            self.counters.add("acks_rx")
            span.end(kind="ack")
            return
        if not isinstance(item, ClicPacket):
            # Malformed frame on our ethertype (corrupted peer, fuzzing):
            # the module must survive it — protection is a design goal.
            self.counters.add("rx_malformed")
            span.end(kind="malformed")
            return
        pkt: ClicPacket = item
        self.tracer.instant(
            self.scope, "module_rx", pkt=pkt.packet_id, nbytes=pkt.frag_bytes,
        )
        journeys = self.tracer.journeys
        if journeys is not None:
            journeys.hop(pkt, "bh", self.scope, direct=skb.direct_delivery)
        pkt._direct_delivery = skb.direct_delivery  # Figure 8(b) path
        if pkt.ptype is ClicPacketType.BCAST:
            self._rx_ready.append(pkt)  # unreliable: no sequencing
        else:
            self._receiver(pkt.src_node).on_packet(pkt.seq, pkt)
        # Process fragments released in order by the receiver machinery.
        while self._rx_ready:
            fragment = self._rx_ready.pop(0)
            yield from self._consume_fragment(fragment)
        span.end(pkt=pkt.packet_id)

    def _consume_released(self, fragments: List[ClicPacket]) -> Generator:
        """Consume fragments a train's arrival released, batching copies.

        When the whole run is one message *strictly mid-stream* (the
        common steady-state case: trains never carry a message's tail),
        the per-fragment staging copies collapse into one CPU slice
        charging ``k`` copy setups.  Anything else — mixed messages, a
        run that completes a message via previously stashed successors —
        falls back to exact per-fragment consumption.
        """
        first = fragments[0]
        key = (first.src_node, first.msg_id)
        total = sum(pkt.frag_bytes for pkt in fragments)
        partial = self._partials.get(key)
        received = partial.received if partial is not None else 0
        homogeneous = all(
            (pkt.src_node, pkt.msg_id) == key
            and pkt.ptype not in (ClicPacketType.KERNEL_FN, ClicPacketType.BCAST)
            for pkt in fragments
        )
        if not homogeneous or received + total >= first.msg_bytes:
            for pkt in fragments:
                yield from self._consume_fragment(pkt)
            return
        k = len(fragments)
        self.counters.add("pkts_rx", k)
        if partial is None:
            partial = _Partial(
                src_node=first.src_node,
                port=first.port,
                tag=first.tag,
                msg_id=first.msg_id,
                msg_bytes=first.msg_bytes,
                remote_write=first.ptype is ClicPacketType.REMOTE_WRITE,
                payload=first.payload,
            )
            self._partials[key] = partial
            if not partial.remote_write:
                self._bind_waiter(partial)
        direct = getattr(first, "_direct_delivery", False)
        if partial.remote_write:
            if not direct:
                yield from self.kernel.copy_system_to_user(
                    total, PRIO_SOFTIRQ, setups=k
                )
            region = self.port(first.port).region
            if region is not None:
                region.bytes_written += total
        elif partial.bound_waiter is not None and direct:
            self.counters.add("direct_user_deliveries", k)
        elif partial.bound_waiter is not None:
            yield from self.kernel.copy_system_to_user(
                total, PRIO_SOFTIRQ, setups=k
            )
        partial.received += total

    def _consume_fragment(self, pkt: ClicPacket) -> Generator:
        self.counters.add("pkts_rx")
        key = (pkt.src_node, pkt.msg_id)
        partial = self._partials.get(key)
        if partial is None:
            partial = _Partial(
                src_node=pkt.src_node,
                port=pkt.port,
                tag=pkt.tag,
                msg_id=pkt.msg_id,
                msg_bytes=pkt.msg_bytes,
                remote_write=pkt.ptype is ClicPacketType.REMOTE_WRITE,
                payload=pkt.payload,
            )
            self._partials[key] = partial
            if not partial.remote_write and pkt.ptype is not ClicPacketType.KERNEL_FN:
                self._bind_waiter(partial)

        direct = getattr(pkt, "_direct_delivery", False)
        if partial.remote_write:
            # Asynchronous remote write: straight to the registered user
            # region, no receive call needed (§3.1 step 7).  On the
            # Figure 8(b) path the DMA already targeted the region.
            if not direct:
                yield from self.kernel.copy_system_to_user(pkt.frag_bytes, PRIO_SOFTIRQ)
            region = self.port(pkt.port).region
            if region is not None:
                region.bytes_written += pkt.frag_bytes
        elif partial.bound_waiter is not None and direct:
            # Figure 8(b): the module directed the DMA straight into the
            # waiting process's buffer — no staging copy at all.
            self.counters.add("direct_user_deliveries")
        elif partial.bound_waiter is not None:
            # A process is already waiting: move the fragment into its
            # memory right away.
            yield from self.kernel.copy_system_to_user(pkt.frag_bytes, PRIO_SOFTIRQ)

        partial.received += pkt.frag_bytes
        journeys = self.tracer.journeys
        if journeys is not None:
            journeys.hop(pkt, "reassembly", self.scope,
                         received=partial.received, total=partial.msg_bytes)
        if partial.received < partial.msg_bytes or (partial.msg_bytes == 0 and not pkt.is_last_fragment):
            return
        # Message complete.
        del self._partials[key]
        if journeys is not None:
            journeys.deliver(pkt, self.scope, nbytes=partial.msg_bytes)
        if pkt.ptype is ClicPacketType.KERNEL_FN:
            handler = self._kernel_fns.get(pkt.tag)
            if handler is None:
                self.counters.add("kernel_fn_unknown")
            else:
                yield from handler(pkt)
            return
        message = ClicMessage(
            src_node=partial.src_node,
            port=partial.port,
            tag=partial.tag,
            nbytes=partial.msg_bytes,
            msg_id=partial.msg_id,
            payload=partial.payload,
            remote_write=partial.remote_write,
            completed_at=self.env.now,
            in_user_memory=partial.bound_waiter is not None or partial.remote_write,
        )
        self.counters.add("msgs_rx")
        self.counters.add("bytes_rx", message.nbytes)
        if partial.remote_write:
            region = self.port(message.port).region
            if region is not None:
                region.completed_messages += 1
                if region.waiters:
                    region.waiters.pop(0).succeed(message)
                else:
                    region.unclaimed.append(message)
            return
        if partial.bound_waiter is not None:
            partial.bound_waiter.succeed(message)
            return
        # A receiver may have blocked *after* the first fragment arrived
        # (so no waiter was bound then): match again at completion.
        state = self.port(message.port)
        for idx, (match, event) in enumerate(state.waiters):
            if match(message):
                state.waiters.pop(idx)
                event.succeed(message)
                return
        state.ready.append(message)

    def _bind_waiter(self, partial: _Partial) -> None:
        """Attach the first matching blocked receiver to this message."""
        state = self.port(partial.port)
        probe = ClicMessage(
            src_node=partial.src_node,
            port=partial.port,
            tag=partial.tag,
            nbytes=partial.msg_bytes,
            msg_id=partial.msg_id,
        )
        for idx, (match, event) in enumerate(state.waiters):
            if match(probe):
                state.waiters.pop(idx)
                partial.bound_waiter = event
                return

    # ------------------------------------------------------------------
    # receive API (kernel context, inside the caller's syscall)
    # ------------------------------------------------------------------
    def recv(
        self,
        port: int,
        tag: Optional[int] = None,
        src: Optional[int] = None,
        block: bool = True,
    ) -> Generator:
        """Receive a message on ``port``; returns a :class:`ClicMessage`.

        Non-blocking flavour returns ``None`` immediately when nothing
        matches ("_MODULE does nothing and returns", §3.1).
        """

        def match(msg: ClicMessage) -> bool:
            return (tag is None or msg.tag == tag) and (src is None or msg.src_node == src)

        state = self.port(port)
        for idx, msg in enumerate(state.ready):
            if match(msg):
                state.ready.pop(idx)
                if not msg.in_user_memory:
                    yield from self.kernel.copy_system_to_user(msg.nbytes)
                    msg.in_user_memory = True
                self.counters.add("recv_immediate")
                return msg
        if not block:
            self.counters.add("recv_would_block")
            return None
        event = self.env.event()
        state.waiters.append((match, event))
        self.counters.add("recv_blocked")
        msg = yield from self.kernel.block_on(event, label=f"recv:{port}")
        if not msg.in_user_memory:
            # Bound only at completion: the data was parked in system
            # memory fragment by fragment; move it out now.
            yield from self.kernel.copy_system_to_user(msg.nbytes)
            msg.in_user_memory = True
        return msg

    def probe(
        self,
        port: int,
        tag: Optional[int] = None,
        src: Optional[int] = None,
    ) -> Optional[ClicMessage]:
        """Non-consuming match test: the first complete ready message
        matching (tag, src), or ``None``.  The message stays queued (the
        MPI_Iprobe building block)."""

        def match(msg: ClicMessage) -> bool:
            return (tag is None or msg.tag == tag) and (src is None or msg.src_node == src)

        for msg in self.port(port).ready:
            if match(msg):
                return msg
        return None

    # -- remote-write regions -------------------------------------------------
    def register_region(self, port: int, size: int) -> RemoteRegion:
        """Expose ``size`` bytes of the caller's memory for remote writes."""
        state = self.port(port)
        if state.region is not None:
            raise ValueError(f"port {port} already has a remote-write region")
        state.region = RemoteRegion(port=port, size=size)
        return state.region

    def wait_remote_write(self, port: int) -> Generator:
        """Block until the next remote-write message completes."""
        region = self.port(port).region
        if region is None:
            raise ValueError(f"port {port} has no remote-write region")
        if region.unclaimed:
            return region.unclaimed.pop(0)
        event = self.env.event()
        region.waiters.append(event)
        msg = yield from self.kernel.block_on(event, label=f"rwrite:{port}")
        return msg

    # ------------------------------------------------------------------
    # same-node delivery (§5: "communication between processes running
    # on the same processor", which many rival layers cannot do)
    # ------------------------------------------------------------------
    def _send_local(self, port: int, nbytes: int, tag: int, payload: Any) -> Generator:
        msg_id = next(self._msg_ids)
        span = self.tracer.begin(self.scope, "clic_local", nbytes=nbytes, msg=msg_id)
        yield from self.kernel.cpu.execute(self.params.module_tx_ns, PRIO_KERNEL, label="clic_local")
        message = ClicMessage(
            src_node=self.node_id,
            port=port,
            tag=tag,
            nbytes=nbytes,
            msg_id=msg_id,
            payload=payload,
            completed_at=self.env.now,
        )
        state = self.port(port)
        for idx, (match, event) in enumerate(state.waiters):
            if match(message):
                state.waiters.pop(idx)
                # Single kernel-mediated copy, sender memory -> receiver memory.
                yield from self.kernel.copy_user_to_user(nbytes)
                message.in_user_memory = True
                message.completed_at = self.env.now
                event.succeed(message)
                self.counters.add("local_direct")
                span.end(path="direct")
                return msg_id
        # Nobody waiting: stage in system memory; recv() will copy out.
        yield from self.kernel.copy_user_to_system(nbytes)
        # A receiver may have blocked *during* the staging copy — re-check
        # before parking the message, or its wakeup is lost.
        for idx, (match, event) in enumerate(state.waiters):
            if match(message):
                state.waiters.pop(idx)
                message.completed_at = self.env.now
                event.succeed(message)
                self.counters.add("local_direct")
                span.end(path="late-direct")
                return msg_id
        state.ready.append(message)
        self.counters.add("local_staged")
        span.end(path="staged")
        return msg_id
