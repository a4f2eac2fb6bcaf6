"""Machine-checkable protocol invariants over a finished run.

:func:`check_run` consumes a **run record** — the JSON-able summary a
:mod:`runner <repro.validate.runner>` assembles from the channel probe
logs, app-level traffic journals, and the frame counters of every layer
— and returns the list of :class:`Violation`\\ s found.  An empty list
is the pass verdict the fuzzer aggregates.

The catalog (stable ids, referenced by tests and docs):

``delivery.exactly_once_in_order``
    Per (src, dst) channel the messages the receiver observed, followed
    by those the receiving module completed but no receive has collected
    yet (*parked*: the application is blocked elsewhere, which
    ``sim.convergence`` judges), are *exactly* the message sequence the
    sender submitted — no loss, duplication or reordering.  A channel
    whose sender legitimately failed (permanent fault) must deliver a
    strict prefix.
``delivery.exactly_once``
    Channel-sequence level: no sequence number was handed to the
    application twice, however many copies the wire delivered
    (duplicate suppression held).
``delivery.in_order``
    Channel-sequence level: the application-delivery order of sequence
    numbers is strictly increasing, whatever reordering the wire
    applied (the reassembly stash held).
``delivery.bytes_conserved``
    Per-node CLIC module counters agree with the app-level journals:
    every byte counted sent was submitted, every byte counted received
    was delivered or is parked for a receive (user -> CLIC accounting).
``frames.conserved``
    Frame conservation across NIC -> wire -> switch -> wire -> NIC:
    per-channel ``offered + duplicated == delivered + lost`` (byte
    conservation net of counted duplicates) and the cluster-wide chain
    sums match hop by hop (nothing vanishes outside a counted drop).
    Checked only for converged runs — a livelocked run has frames
    legitimately in flight at teardown.
``memory.bounded``
    No buffer outgrew its configured bound: receiver reorder stashes
    stayed within ``stash_limit``, switch egress queues within their
    capacity, NIC rx buffers within the ring — adversarial reordering /
    duplication / overload cannot grow memory without bound.
``acks.monotone``
    Cumulative acks never move backwards: the receiver's emitted acks
    are non-decreasing, every ack the sender applies advances the base
    contiguously, and the sender's base never overtakes the receiver.
``channel.bookkeeping``
    ``next_seq == base + in_flight`` and registration counts match —
    the sliding-window ledger balances.
``rto.karn``
    Karn's rule: no RTT sample was ever taken from a sequence number
    that had been retransmitted (its RTT is ambiguous).
``rto.bounds``
    Backoff monotonicity per timeout (the armed RTO never shrinks on
    timeout and never exceeds the estimator's cap).
``window.respected``
    In-flight occupancy never exceeded the advertised window at
    registration time.
``peer_death.convergence``
    Channels fail (and peers are declared dead) *iff* the scenario
    contains a permanent fault cutting them off; transient faults must
    always be survived within the retry budget.
``sim.convergence``
    By the horizon every sender has drained or failed and every
    workload process finished (unless cut off by a failed channel) —
    no livelock, no deadlock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from .scenario import Scenario

__all__ = ["Violation", "check_run", "INVARIANTS"]

#: stable invariant ids (the catalog above)
INVARIANTS = (
    "delivery.exactly_once_in_order",
    "delivery.exactly_once",
    "delivery.in_order",
    "delivery.bytes_conserved",
    "frames.conserved",
    "memory.bounded",
    "acks.monotone",
    "channel.bookkeeping",
    "rto.karn",
    "rto.bounds",
    "window.respected",
    "peer_death.convergence",
    "sim.convergence",
)


@dataclass(frozen=True)
class Violation:
    """One invariant breach: which rule, where, and what was seen."""

    invariant: str
    subject: str
    detail: str

    def to_dict(self) -> Dict[str, str]:
        """JSON-safe form (the replay-artifact payload)."""
        return {"invariant": self.invariant, "subject": self.subject, "detail": self.detail}

    @classmethod
    def from_dict(cls, doc: Dict[str, str]) -> "Violation":
        return cls(doc["invariant"], doc["subject"], doc["detail"])


def _channel_nodes(key: str) -> tuple:
    src, dst = key.split("->")
    return int(src), int(dst)


def _is_prefix(shorter: List[Any], longer: List[Any]) -> bool:
    return len(shorter) <= len(longer) and longer[: len(shorter)] == shorter


def _check_delivery(record: Dict[str, Any], out: List[Violation]) -> None:
    for key, ch in record["channels"].items():
        attempted = ch.get("attempted", [])
        sent = ch.get("sent", [])
        delivered = ch.get("received", []) + ch.get("parked", [])
        failed = bool(ch.get("sender") and ch["sender"]["failed"])
        if not _is_prefix(sent, attempted):
            out.append(Violation(
                "delivery.exactly_once_in_order", key,
                f"completed sends {sent} are not a prefix of attempted {attempted}",
            ))
            continue
        if failed:
            if not _is_prefix(delivered, sent):
                out.append(Violation(
                    "delivery.exactly_once_in_order", key,
                    f"failed channel delivered {delivered}, not a prefix of sent {sent}",
                ))
        elif delivered != sent or sent != attempted:
            out.append(Violation(
                "delivery.exactly_once_in_order", key,
                f"attempted {attempted}, completed {sent}, delivered {delivered}",
            ))


def _check_bytes(record: Dict[str, Any], out: List[Violation]) -> None:
    scenario = record["scenario"]
    if scenario["protocol"] != "clic":
        return
    for node_key, counters in record.get("modules", {}).items():
        node = int(node_key)
        sent = [m for key, ch in record["channels"].items()
                for m in ch.get("sent", []) if _channel_nodes(key)[0] == node]
        delivered = [m for key, ch in record["channels"].items()
                     for m in ch.get("received", []) + ch.get("parked", [])
                     if _channel_nodes(key)[1] == node]
        expect = {
            "msgs_sent": len(sent),
            "bytes_sent": sum(m[1] for m in sent),
            "msgs_rx": len(delivered),
            "bytes_rx": sum(m[1] for m in delivered),
        }
        for name, want in expect.items():
            got = counters.get(name, 0)
            if got != want:
                out.append(Violation(
                    "delivery.bytes_conserved", f"node{node}",
                    f"{name}: module counted {got}, app journal and parked say {want}",
                ))


def _check_sender_log(key: str, sender: Dict[str, Any], out: List[Violation]) -> None:
    # -- acks.monotone: contiguous, strictly-advancing cumulative acks
    cum = 0
    for event in sender["events"]:
        if event[0] != "ack":
            continue
        _, base_before, new_cum = event
        if base_before != cum or new_cum <= base_before:
            out.append(Violation(
                "acks.monotone", key,
                f"ack advanced base {base_before} -> {new_cum} but previous base was {cum}",
            ))
        cum = new_cum
    if sender["base"] != cum:
        out.append(Violation(
            "acks.monotone", key,
            f"final base {sender['base']} does not match last applied ack {cum}",
        ))

    # -- channel.bookkeeping: the window ledger balances
    if sender["next_seq"] != sender["base"] + sender["in_flight"]:
        out.append(Violation(
            "channel.bookkeeping", key,
            f"next_seq {sender['next_seq']} != base {sender['base']}"
            f" + in_flight {sender['in_flight']}",
        ))
    if sender["registered"] != sender["next_seq"]:
        out.append(Violation(
            "channel.bookkeeping", key,
            f"registered {sender['registered']} packets but next_seq is {sender['next_seq']}",
        ))

    # -- rto.karn: no RTT sample from a retransmitted sequence
    retransmitted = set()
    for event in sender["events"]:
        if event[0] == "retx":
            retransmitted.update(event[2])
        elif event[0] == "rtt" and event[1] in retransmitted:
            out.append(Violation(
                "rto.karn", key,
                f"RTT sampled from seq {event[1]} after it was retransmitted",
            ))

    # -- rto.bounds: backoff never shrinks the timer nor exceeds the cap
    for event in sender["events"]:
        if event[0] != "timeout":
            continue
        _, before, after, max_ns = event
        if after < before:
            out.append(Violation(
                "rto.bounds", key, f"RTO shrank on timeout: {before} -> {after}"
            ))
        if after > max_ns:
            out.append(Violation(
                "rto.bounds", key, f"RTO {after} exceeds cap {max_ns}"
            ))

    # -- window.respected
    for in_flight, window in sender.get("window_violations", []):
        out.append(Violation(
            "window.respected", key, f"{in_flight} packets in flight with window {window}"
        ))


def _check_receiver_log(key: str, ch: Dict[str, Any], out: List[Violation]) -> None:
    receiver = ch["receiver"]
    seqs = receiver.get("delivered_seqs")
    if seqs is not None:
        repeats = sorted({s for i, s in enumerate(seqs) if s in seqs[:i]})
        if repeats:
            out.append(Violation(
                "delivery.exactly_once", key,
                f"seqs delivered to the application twice: {repeats[:16]}",
            ))
        disorder = [(a, b) for a, b in zip(seqs, seqs[1:]) if b <= a]
        if disorder:
            out.append(Violation(
                "delivery.in_order", key,
                f"application-delivery order regressed at {disorder[:16]}",
            ))
    if "max_stash" in receiver and "stash_limit" in receiver:
        if receiver["max_stash"] > receiver["stash_limit"]:
            out.append(Violation(
                "memory.bounded", key,
                f"reorder stash reached {receiver['max_stash']} entries"
                f" (limit {receiver['stash_limit']})",
            ))
    acks = receiver["acks_emitted"]
    if any(b < a for a, b in zip(acks, acks[1:])):
        out.append(Violation(
            "acks.monotone", key, f"receiver acks went backwards: {acks}"
        ))
    if acks and acks[-1] > receiver["expected"]:
        out.append(Violation(
            "acks.monotone", key,
            f"acked {acks[-1]} beyond delivered frontier {receiver['expected']}",
        ))
    sender = ch.get("sender")
    if sender is not None and sender["base"] > receiver["expected"]:
        out.append(Violation(
            "acks.monotone", key,
            f"sender base {sender['base']} overtook receiver frontier {receiver['expected']}",
        ))


def _check_peer_death(record: Dict[str, Any], out: List[Violation]) -> None:
    scenario = Scenario.from_dict(record["scenario"])
    permanent = scenario.permanent_fault
    fault_node = int(scenario.fault_args.get("node", -1))
    dead = {int(n): {int(p) for p in peers} for n, peers in record["dead_peers"].items()}

    for key, ch in record["channels"].items():
        sender = ch.get("sender")
        if sender is None or not sender["failed"]:
            continue
        src, dst = _channel_nodes(key)
        if not permanent:
            out.append(Violation(
                "peer_death.convergence", key,
                f"channel failed under a transient '{scenario.fault_kind}' fault",
            ))
        elif src != fault_node and dst != fault_node:
            out.append(Violation(
                "peer_death.convergence", key,
                f"channel failed but does not cross fault node {fault_node}",
            ))
        if scenario.protocol == "clic" and dst not in dead.get(src, set()):
            out.append(Violation(
                "peer_death.convergence", key,
                f"sender failed but node{src} never declared peer {dst} dead",
            ))

    for node, peers in dead.items():
        for peer in peers:
            if not permanent:
                out.append(Violation(
                    "peer_death.convergence", f"node{node}",
                    f"declared peer {peer} dead under a transient "
                    f"'{scenario.fault_kind}' fault",
                ))
            elif node != fault_node and peer != fault_node:
                out.append(Violation(
                    "peer_death.convergence", f"node{node}",
                    f"declared peer {peer} dead; neither is fault node {fault_node}",
                ))


def _check_convergence(record: Dict[str, Any], out: List[Violation]) -> None:
    failed_into = set()
    for key, ch in record["channels"].items():
        sender = ch.get("sender")
        if sender is None:
            continue
        src, dst = _channel_nodes(key)
        if sender["failed"]:
            failed_into.add(dst)
        elif sender["in_flight"] > 0:
            out.append(Violation(
                "sim.convergence", key,
                f"sender still has {sender['in_flight']} packets in flight at the "
                "horizon without having failed",
            ))
    for proc in record.get("procs_unfinished", []):
        node = int(proc.get("node", -1))
        if proc.get("role") == "rx" and node in failed_into:
            continue  # cut off by a failed channel: expected to block
        out.append(Violation(
            "sim.convergence", f"node{node}",
            f"process {proc.get('name')} never finished",
        ))


def _check_frames(record: Dict[str, Any], out: List[Violation]) -> None:
    frames = record.get("frames")
    if not frames:
        return
    links = frames["links"]
    for name, c in links.items():
        duplicated = c.get("frames_duplicated", 0)
        if c["frames_offered"] + duplicated != c["frames"] + c["frames_lost"]:
            out.append(Violation(
                "frames.conserved", name,
                f"offered {c['frames_offered']} + duplicated {duplicated}"
                f" != delivered {c['frames']} + lost {c['frames_lost']}",
            ))

    def link_sum(direction: str, counter: str) -> float:
        return sum(c[counter] for name, c in links.items()
                   if name.endswith("." + direction))

    def trunk_sum(counter: str) -> float:
        # Switch-to-switch links (multi-switch fabrics); zero on the
        # legacy star, keeping its equations — and artifacts — intact.
        return sum(c[counter] for name, c in links.items()
                   if name.startswith("trunk."))

    nic, switch = frames["nic"], frames["switch"]
    chain = [
        ("NIC tx -> wire", nic["tx_frames"], link_sum("up", "frames_offered")),
        # ``forwarded`` sums over every switch, so a frame crossing a
        # trunk is forwarded once per hop — the trunk terms balance it.
        ("wire -> switch",
         link_sum("up", "frames") + trunk_sum("frames"),
         switch["forwarded"]),
        ("switch -> wire",
         switch["forwarded"],
         link_sum("down", "frames_offered") + trunk_sum("frames_offered")
         + switch["drops"] + switch["blackout_drops"] + switch["unknown_dst"]
         + switch["hairpin_dropped"]),
        ("wire -> NIC rx", link_sum("down", "frames"), nic["rx_frames"]),
    ]
    for hop, left, right in chain:
        if left != right:
            out.append(Violation(
                "frames.conserved", hop, f"{left} frames in, {right} accounted"
            ))
    for counter in ("unknown_dst", "hairpin_dropped"):
        if switch[counter]:
            out.append(Violation(
                "frames.conserved", "switch",
                f"{switch[counter]} frames hit {counter} (wiring bug)",
            ))


def _check_memory(record: Dict[str, Any], out: List[Violation]) -> None:
    # High-water marks are valid whether or not the run converged
    # (receiver stashes are audited per channel in _check_receiver_log).
    frames = record.get("frames")
    if not frames:
        return
    switch = frames.get("switch", {})
    if "max_queue_depth" in switch and "queue_capacity" in switch:
        if switch["max_queue_depth"] > switch["queue_capacity"]:
            out.append(Violation(
                "memory.bounded", "switch",
                f"egress queue reached {switch['max_queue_depth']} frames"
                f" (capacity {switch['queue_capacity']})",
            ))
    nic = frames.get("nic", {})
    if "rx_buffer_peak" in nic and "rx_ring_slots" in nic:
        if nic["rx_buffer_peak"] > nic["rx_ring_slots"]:
            out.append(Violation(
                "memory.bounded", "nic",
                f"rx buffer reached {nic['rx_buffer_peak']} frames"
                f" (ring has {nic['rx_ring_slots']} slots)",
            ))


def check_run(record: Dict[str, Any]) -> List[Violation]:
    """Evaluate the full invariant catalog over one run record."""
    out: List[Violation] = []
    _check_delivery(record, out)
    _check_bytes(record, out)
    _check_memory(record, out)
    for key, ch in record["channels"].items():
        if ch.get("sender") is not None:
            _check_sender_log(key, ch["sender"], out)
        if ch.get("receiver") is not None:
            _check_receiver_log(key, ch, out)
    _check_peer_death(record, out)
    before = len(out)
    _check_convergence(record, out)
    converged = len(out) == before
    if converged:
        # Frame counters are only settled once everything drained.
        _check_frames(record, out)
    return out
