"""FIG7 — per-stage timing of a 1400-byte packet (paper Figure 7).

Variant (a): the stock path — driver interrupt moves the frame into
system memory with the CPU captive (the dominant ~15 µs stage at
1400 B), then bottom halves hand it to CLIC_MODULE (~2 µs), which copies
into user memory.

Variant (b): the proposed improvement of Figure 8(b) — the driver calls
CLIC_MODULE directly from the interrupt handler, eliminating the
sk_buff staging and bottom-half hop; the paper projects the interrupt
path dropping from ~20 µs to ~5 µs.

Shape checks:

* in (a), the receiver's driver-interrupt stage is the single largest
  pipeline stage;
* the sender stage is a few microseconds and tiny by comparison;
* (b) cuts the receiver's post-DMA software path by >= 2x and the
  end-to-end packet time measurably.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..analysis import format_table
from ..cluster import Cluster
from ..config import granada2003
from ..obs import CriticalPath, critical_path, fig7_stages, records_of, spans_of
from ..protocols.clic import ClicEndpoint

EXPERIMENT_ID = "FIG7"

PACKET_BYTES = 1400


def capture(direct_rx: bool = False) -> Tuple[Cluster, CriticalPath, float]:
    """Run the single-packet exchange and keep the instrumented cluster.

    Returns ``(cluster, path, done_ns)`` — the cluster (with its trace,
    tracer and metrics still attached), the data packet's
    :func:`~repro.obs.critical_path` (which :func:`~repro.obs.fig7_stages`
    turns into the Figure-7 stages), and the simulated time the receiver
    completed.  Used by :func:`run` and by the ``python -m repro.trace``
    exporter.
    """
    cfg = granada2003(trace=True, profile=True)
    if direct_rx:
        cfg = cfg.with_node(cfg.node.with_direct_rx(True))
    cluster = Cluster(cfg)
    n0, n1 = cluster.nodes
    p0, p1 = n0.spawn(), n1.spawn()
    ep0, ep1 = ClicEndpoint(p0, 4), ClicEndpoint(p1, 4)
    outcome = {}

    def sender(proc):
        yield from ep0.send(1, PACKET_BYTES)

    def receiver(proc):
        msg = yield from ep1.recv()
        outcome["done"] = proc.env.now

    p0.run(sender)
    done = p1.run(receiver)
    cluster.env.run(done)

    # The single data packet is the first CLIC DATA packet traced.
    pkt_id = cluster.trace.filter(event="driver_tx")[0].detail["pkt"]
    path = critical_path(spans_of(cluster.tracer), records_of(cluster.trace),
                         pkt_id, "node0", "node1")
    return cluster, path, outcome["done"]


def _measure(direct_rx: bool) -> Dict:
    cluster, path, done_ns = capture(direct_rx)
    stages = [(name, (end - start) / 1000) for name, start, end in fig7_stages(path)]
    if direct_rx:
        return {"stages": stages, "total_us": done_ns / 1000,
                "sw_rx_us": stages[3][1], "driver_int_us": stages[2][1]}
    return {"stages": stages, "total_us": path.total_us,
            "sw_rx_us": stages[3][1] + stages[4][1],
            "driver_int_us": stages[2][1]}


def run(quick: bool = True) -> Dict:
    """Run the experiment; returns results incl. a printable report."""
    variant_a = _measure(direct_rx=False)
    variant_b = _measure(direct_rx=True)
    rows_a = [(name, round(us, 2)) for name, us in variant_a["stages"]]
    rows_b = [(name, round(us, 2)) for name, us in variant_b["stages"]]
    report = "\n\n".join(
        [
            format_table(["stage", "us"], rows_a,
                         title=f"FIG7(a): 1400 B packet, stock path (total {variant_a['total_us']:.1f} us)"),
            format_table(["stage", "us"], rows_b,
                         title=f"FIG7(b): direct driver->CLIC_MODULE call (total {variant_b['total_us']:.1f} us)"),
        ]
    )
    result = {"id": EXPERIMENT_ID, "a": variant_a, "b": variant_b, "report": report}
    shape_checks(result)
    return result


def shape_checks(result: Dict) -> None:
    """Assert the paper's qualitative claims on the measured data."""
    from .common import check

    a, b = result["a"], result["b"]
    durations_a = {name: us for name, us in a["stages"]}
    # The paper's Figure 7 calls out the *processing* stages; wire flight
    # and the sender NIC's DMA are hardware pipeline, not host software.
    software = {k: v for k, v in durations_a.items() if k != "NIC DMA + flight"}
    slowest = max(software, key=software.get)
    check(
        "driver interrupt" in slowest,
        "the receiver's driver-interrupt stage dominates the host processing",
        f"slowest = {slowest} ({software[slowest]:.1f} us)",
    )
    check(
        10 <= software[slowest] <= 25,
        "driver-interrupt stage near the paper's ~15 us at 1400 B",
        f"{software[slowest]:.1f} us",
    )
    sender_us = durations_a["sender: syscall + CLIC_MODULE + driver"]
    check(2 <= sender_us <= 10, "sender stage is a few microseconds (paper ~0.7+4 us)",
          f"{sender_us:.1f} us")
    check(
        b["sw_rx_us"] * 2 <= a["sw_rx_us"],
        "the direct call removes most of the post-DMA receive software path "
        "(paper: ~20 us -> ~5 us interrupt path)",
        f"a: {a['sw_rx_us']:.1f} us, b: {b['sw_rx_us']:.1f} us",
    )
    check(b["total_us"] < a["total_us"],
          "direct dispatch lowers end-to-end packet time",
          f"{b['total_us']:.1f} vs {a['total_us']:.1f} us")


if __name__ == "__main__":
    print(run()["report"])
