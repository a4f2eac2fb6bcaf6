"""``python -m repro.trace`` — capture and export structured traces.

Runs the Figure-7 single-packet experiment with tracing on, then exports
the structured spans + trace records as a Chrome ``trace_event`` JSON
document (open it at https://ui.perfetto.dev or ``chrome://tracing``) or
as a human-readable span listing.  On top of the component spans the
exporter adds one synthetic complete span per Figure-7 pipeline stage
(scope ``fig7.pipeline``), so the paper's stage breakdown is directly
visible as a lane in the viewer.

The ``fig4-point`` experiment instead captures one bulk-transfer run
with *journey tracing* on: every message is followed send → fragment →
wire → switch → IRQ → reassembly → deliver (with retransmit genealogy
under injected loss), queue depths are sampled as time series, and the
Chrome export contains flow events (message arrows) plus counter
events (queue graphs).

Typical invocations::

    python -m repro.trace --chrome -o fig7.trace.json
    python -m repro.trace --variant direct --spans
    python -m repro.trace --summary --top 10
    python -m repro.trace --artifact fig7.artifact.json
    python -m repro.trace --input fig7.artifact.json --chrome
    python -m repro.trace --experiment fig4-point --loss 0.02 --outliers 5
    python -m repro.trace --experiment fig4-point --journey 3

``--source``/``--event`` filter the exported records (and, for
``--source``, the spans) by scope prefix / event name.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from .obs import (
    HealthWatchdog,
    Objective,
    RunArtifact,
    SLOSpec,
    chrome_trace_json,
    evaluate,
    fig7_stages,
    journey_latency_summary,
    outlier_report,
    records_of,
    render_html,
    spans_of,
    timeseries_of,
    waterfall_table,
)

__all__ = ["PIPELINE_SCOPE", "capture_fig4_point", "capture_fig7",
           "fig4_point_slo", "main"]

#: scope of the synthetic per-stage spans added on top of component spans
PIPELINE_SCOPE = "fig7.pipeline"


def _stage_spans(path, first_id: int) -> List[Dict[str, Any]]:
    """Synthetic complete spans, one per Figure-7 pipeline stage."""
    return [
        {
            "id": first_id + i,
            "scope": PIPELINE_SCOPE,
            "name": name,
            "start_ns": start_ns,
            "end_ns": end_ns,
            "parent": None,
            "attrs": {"pkt": path.packet_id, "stage": i},
        }
        for i, (name, start_ns, end_ns) in enumerate(fig7_stages(path))
    ]


def capture_fig7(direct: bool = False) -> RunArtifact:
    """Run the Figure-7 exchange and bundle everything observable.

    Returns a :class:`~repro.obs.RunArtifact` holding the extracted
    stage timings, the cluster-wide metrics snapshot, every completed
    span (component spans plus the synthetic ``fig7.pipeline`` stage
    spans), and the flat trace records.
    """
    from .experiments import fig7

    cluster, path, done_ns = fig7.capture(direct_rx=direct)
    spans = spans_of(cluster.tracer)
    next_id = max((s["id"] for s in spans), default=0) + 1
    stage_spans = _stage_spans(path, next_id)
    spans.extend(stage_spans)
    profiler = cluster.env.profiler
    return RunArtifact(
        experiment="fig7.direct" if direct else "fig7",
        result={
            "packet_id": path.packet_id,
            "done_ns": done_ns,
            "total_us": path.total_us,
            "stages": [
                {"name": s["name"], "start_ns": s["start_ns"], "end_ns": s["end_ns"]}
                for s in stage_spans
            ],
        },
        metrics=cluster.metrics.snapshot(),
        profile=profiler.snapshot() if profiler is not None else {},
        spans=spans,
        records=records_of(cluster.trace),
    )


def fig4_point_slo(nbytes: int, messages: int, loss: float) -> SLOSpec:
    """The declared SLO of a fig4-point capture, scaled to its workload.

    Thresholds derive from the physical envelope (1 Gb/s line rate, one
    RTO of recovery headroom, a retransmit allowance proportional to the
    injected loss), so the same spec passes a fault-free run strictly
    (zero retransmit budget) and an adversarial run generously — a
    regression has to be structural, not statistical, to trip it.
    """
    # per-message wire time at line rate, in µs (1 Gb/s = 8 ns/byte)
    wire_us = nbytes * 8e-3
    # budget over retransmitted *messages* (always present in the journey
    # summary, unlike the lazily-created pkts_retx counter): strictly
    # zero fault-free, anything-up-to-all under injected loss
    retx_budget = 0.0 if loss <= 0 else float(messages)
    return SLOSpec(
        name="fig4-point",
        description="bulk-transfer envelope: full delivery, tail latency "
                    "within the line-rate + one-RTO budget, bounded loss "
                    "recovery, no receive-buffer burn",
        objectives=(
            Objective("delivered", "result.latency.delivered", "floor",
                      float(messages),
                      description="every message must arrive"),
            Objective("p999-latency", "result.latency.p999_us", "ceiling",
                      messages * wire_us * 4.0 + 5_000.0,
                      description="worst tail within 4x serialized wire "
                                  "time plus one RTO"),
            Objective("goodput", "result.goodput_mbps", "floor",
                      50.0 if loss > 0 else 200.0),
            Objective("retransmit-budget", "result.latency.retransmitted",
                      "budget", retx_budget,
                      description="messages needing loss recovery "
                                  "(strictly zero when fault-free)"),
            Objective("rx-depth-burn", "timeseries.node1.nic0.rx_depth",
                      "burn_rate", 64_000.0, window_ns=1_000_000.0,
                      description="receive buffer may not fill faster "
                                  "than 64 frames/ms sustained"),
        ),
    )


def capture_fig4_point(
    nbytes: int = 1_000_000,
    messages: int = 4,
    loss: float = 0.02,
    loss_model: str = "ge",
    seed: int = 42,
    sample_ns: float = 50_000.0,
) -> RunArtifact:
    """One fig4-style bulk transfer with journey tracing + telemetry on.

    Runs ``messages`` x ``nbytes`` over CLIC on the Granada testbed
    (MTU 1500) with injected loss (``ge`` = Gilbert–Elliott bursts,
    ``uniform`` = Bernoulli), capturing every message's journey, the
    retransmit genealogy, and queue-depth time series sampled every
    ``sample_ns``.  Span tracing stays *off* — journeys are the
    per-message instrument and keep a 1 MB capture tractable.  The
    returned artifact is bit-reproducible under a fixed seed.

    A :class:`~repro.obs.HealthWatchdog` rides the sampler cadence
    (delivery-stall + retransmit-storm rules) and the parameterized
    :func:`fig4_point_slo` is evaluated over the finished run, so the
    artifact carries structured health events and an SLO scorecard.
    """
    import dataclasses

    from .cluster import Cluster
    from .config import granada2003
    from .faults import FaultPlan
    from .obs import JourneyProbe, JourneyRecorder, TimeSeriesSampler
    from .workloads.adapters import clic_pair
    from .workloads.pingpong import stream

    if loss_model == "ge":
        faults = FaultPlan.bursty(loss, mean_burst_frames=8.0, loss_bad=1.0)
    elif loss_model == "uniform":
        faults = FaultPlan.uniform(loss)
    else:
        raise ValueError(f"unknown loss model {loss_model!r} (want ge|uniform)")

    cfg = dataclasses.replace(granada2003(mtu=1500), seed=seed)
    cluster = Cluster(cfg, protocols=("clic",),
                      faults=faults if loss > 0 else None)
    recorder = JourneyRecorder(cluster.env)
    cluster.tracer.journeys = recorder
    probe = JourneyProbe.install(recorder)
    sampler = TimeSeriesSampler(cluster.env, interval_ns=sample_ns)
    for node in cluster.nodes:
        for nic in node.nics:
            # the NIC already owns a gauge called rx_buffer_depth, so the
            # sampled series takes a sibling name
            sampler.add(
                cluster.metrics.timeseries(f"{nic.name}.rx_depth", "frames"),
                lambda nic=nic: len(nic._rx_buffer))
            sampler.add(
                cluster.metrics.timeseries(f"{nic.name}.tx_queue", "frames"),
                lambda nic=nic: len(nic._tx_ring.items) + len(nic._tx_fifo.items))
        if node.clic is not None:
            sampler.add(
                cluster.metrics.timeseries(f"{node.name}.clic.inflight_bytes", "bytes"),
                lambda mod=node.clic: sum(
                    pkt.frag_bytes
                    for sender in mod._senders.values()
                    for pkt in sender._in_flight.values()))
    for port in cluster.switch.ports:
        sampler.add(
            cluster.metrics.timeseries(f"switch.port{port.index}.queue", "frames"),
            lambda port=port: len(port.queue.items))
    # health rules ride the sampler cadence; probes use the non-creating
    # registry read so a watched-but-silent counter stays out of the
    # snapshot (the watchdog must not perturb the metrics)
    watchdog = HealthWatchdog(cluster.env).attach(sampler)
    watchdog.watch_progress(
        "delivery", lambda: cluster.metrics.value("node1.clic.pkts_rx"),
        stall_ticks=max(2, int(10_000_000.0 / sample_ns)))
    watchdog.watch_rate(
        "retransmit-storm", lambda: cluster.metrics.value("node0.clic.pkts_retx"),
        threshold=32.0, window_ticks=max(2, int(1_000_000.0 / sample_ns)))
    sampler.start()
    try:
        res = stream(cluster, clic_pair(), nbytes, messages=messages)
    finally:
        sampler.stop()
        probe.uninstall()
    journeys = recorder.as_dicts()
    profiler = cluster.env.profiler
    artifact = RunArtifact(
        experiment="fig4.point",
        result={
            "nbytes": nbytes,
            "messages": messages,
            "loss": loss,
            "loss_model": loss_model if loss > 0 else "none",
            "seed": seed,
            "elapsed_ns": res.elapsed_ns,
            "goodput_mbps": res.nbytes_total * 8 / (res.elapsed_ns / 1e9) / 1e6,
            "latency": journey_latency_summary(journeys),
        },
        metrics=cluster.metrics.snapshot(),
        profile=profiler.snapshot() if profiler is not None else {},
        spans=spans_of(cluster.tracer),
        records=records_of(cluster.trace),
        journeys=journeys,
        timeseries=timeseries_of(cluster.metrics),
        health=watchdog.to_dicts(),
    )
    artifact.slo = evaluate(fig4_point_slo(nbytes, messages, loss),
                            artifact.to_dict())
    return artifact


def _filtered(artifact: RunArtifact, source: Optional[str], event: Optional[str]):
    """(spans, records) with the --source/--event filters applied."""
    spans, records = artifact.spans, artifact.records
    if source:
        spans = [s for s in spans if s["scope"].startswith(source)]
        records = [r for r in records if r["source"].startswith(source)]
    if event:
        records = [r for r in records if r["event"] == event]
    return spans, records


def _span_listing(spans: List[Dict[str, Any]]) -> str:
    """Human-readable table of spans, ordered by start time then id."""
    lines = [f"{'start us':>12}  {'dur us':>10}  span"]
    for s in sorted(spans, key=lambda s: (s["start_ns"], s["id"])):
        dur = (s["end_ns"] - s["start_ns"]) / 1000.0
        attrs = " ".join(f"{k}={v}" for k, v in sorted(s["attrs"].items()))
        parent = f" <#{s['parent']}" if s.get("parent") else ""
        lines.append(
            f"{s['start_ns'] / 1000.0:12.3f}  {dur:10.3f}  "
            f"#{s['id']}{parent} {s['scope']}/{s['name']}"
            + (f" [{attrs}]" if attrs else "")
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    """CLI entry: capture (or load) a run and export its trace."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Capture a traced run and export spans/records",
    )
    parser.add_argument(
        "--experiment", choices=["fig7", "fig4-point"], default="fig7",
        help="experiment to capture: fig7 (traced single packet) or "
             "fig4-point (bulk transfer with journey tracing + telemetry)",
    )
    parser.add_argument(
        "--variant", choices=["stock", "direct"], default="stock",
        help="fig7 variant: stock bottom-half path or direct Figure 8(b)",
    )
    parser.add_argument(
        "--nbytes", type=int, default=1_000_000,
        help="fig4-point: message size in bytes (default 1 MB)",
    )
    parser.add_argument(
        "--messages", type=int, default=4,
        help="fig4-point: number of messages to stream (default 4)",
    )
    parser.add_argument(
        "--loss", type=float, default=0.02,
        help="fig4-point: average frame loss rate (default 0.02)",
    )
    parser.add_argument(
        "--loss-model", choices=["ge", "uniform"], default="ge",
        help="fig4-point: Gilbert–Elliott bursts (ge) or Bernoulli (uniform)",
    )
    parser.add_argument(
        "--seed", type=int, default=42,
        help="fig4-point: cluster RNG seed (default 42)",
    )
    parser.add_argument(
        "--journey", type=int, default=None, metavar="ID",
        help="print one message's per-hop waterfall instead of Chrome JSON",
    )
    parser.add_argument(
        "--outliers", type=int, default=None, metavar="N",
        help="print the top-N slowest journeys with dominant-hop "
             "attribution instead of Chrome JSON",
    )
    parser.add_argument(
        "--input", metavar="PATH", default=None,
        help="re-export a previously written RunArtifact instead of running",
    )
    parser.add_argument(
        "--chrome", action="store_true",
        help="emit Chrome trace_event JSON (the default output)",
    )
    parser.add_argument(
        "--spans", action="store_true",
        help="emit a human-readable span listing instead of Chrome JSON",
    )
    parser.add_argument(
        "--summary", action="store_true",
        help="emit a top-N table of scopes by total/self time instead of "
             "Chrome JSON (inspect a trace without a viewer)",
    )
    parser.add_argument(
        "--html", action="store_true",
        help="emit a self-contained HTML run dashboard (stat tiles, SLO "
             "scorecard, health events, time-series charts, journey "
             "waterfall) instead of Chrome JSON",
    )
    parser.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="number of rows in the --summary table (default 15)",
    )
    parser.add_argument(
        "--artifact", metavar="PATH", default=None,
        help="also write the full RunArtifact JSON to PATH",
    )
    parser.add_argument("-o", "--output", metavar="FILE", default=None,
                        help="write the export here instead of stdout")
    parser.add_argument("--source", default=None,
                        help="only scopes/sources with this prefix (e.g. node1)")
    parser.add_argument("--event", default=None,
                        help="only trace records with this event name")
    parser.add_argument("--indent", type=int, default=None,
                        help="pretty-print the Chrome JSON with this indent")
    args = parser.parse_args(argv)

    if args.input:
        try:
            artifact = RunArtifact.load(args.input)
        except FileNotFoundError:
            parser.error(f"--input: no such file: {args.input}")
    elif args.experiment == "fig4-point":
        artifact = capture_fig4_point(
            nbytes=args.nbytes, messages=args.messages, loss=args.loss,
            loss_model=args.loss_model, seed=args.seed)
    else:
        artifact = capture_fig7(direct=args.variant == "direct")

    if args.artifact:
        artifact.write(args.artifact)
        print(f"wrote {args.artifact}", file=sys.stderr)

    spans, records = _filtered(artifact, args.source, args.event)
    if args.journey is not None or args.outliers is not None:
        if not artifact.journeys:
            parser.error(
                f"artifact {artifact.experiment!r} has no journeys — "
                "capture with --experiment fig4-point (or load such an "
                "artifact with --input)")
        if args.journey is not None:
            matches = [j for j in artifact.journeys if j["id"] == args.journey]
            if not matches:
                known = ", ".join(str(j["id"]) for j in artifact.journeys[:20])
                parser.error(f"no journey with id {args.journey} "
                             f"(known ids: {known})")
            out = waterfall_table(matches[0])
        else:
            out = outlier_report(artifact.journeys, top=args.outliers)
    elif args.html:
        out = render_html(artifact.to_dict())
    elif args.spans:
        out = _span_listing(spans)
    elif args.summary:
        from .obs import summary_table

        out = summary_table(spans, top=args.top,
                            title=f"{artifact.experiment}: top scopes by self time")
    else:
        out = chrome_trace_json(spans, records, artifact.journeys,
                                artifact.timeseries, indent=args.indent)

    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
            fh.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        try:
            print(out)
        except BrokenPipeError:
            # Downstream consumer (e.g. ``| head``) closed the pipe early;
            # that is not an error for a listing/export command.
            sys.stderr.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
