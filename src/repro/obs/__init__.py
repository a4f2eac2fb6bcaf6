"""Observability: structured spans, typed metrics, profiling, exporters.

This package is the measurement layer of the reproduction — the paper's
contributions *are* measurements (Figure 7's per-stage microsecond
breakdown, Section 2's interrupt accounting), so every experiment
reports its numbers through the instruments here:

* :mod:`repro.obs.span` — span-based structured tracing (``begin``/
  ``end`` with parent links and per-node/per-subsystem scopes such as
  ``node0.clic``); point events go to the flat :class:`repro.sim.Trace`
  the :class:`Tracer` owns;
* :mod:`repro.obs.journey` — per-message causal tracing: every message
  followed send → fragment → wire → reassembly → deliver as a
  :class:`Journey` with per-hop waterfalls and retransmit genealogy;
* :mod:`repro.obs.metrics` — typed instruments (:class:`Counter`,
  :class:`Gauge`, :class:`Histogram` with streaming p50/p95/p99/p99.9,
  :class:`TimeSeries` sampled on a cadence by
  :class:`TimeSeriesSampler`) behind a :class:`MetricsRegistry`;
* :mod:`repro.obs.profile` — event-loop profiling hooks for
  :class:`repro.sim.Environment` (events per process, queue high-water);
* :mod:`repro.obs.slo` — declarative service-level objectives: JSON-able
  :class:`SLOSpec` documents (percentile ceilings, goodput floors,
  loss/pause budgets, windowed burn-rates) evaluated into structured
  scorecards that run artifacts and the resilience experiment carry;
* :mod:`repro.obs.health` — the in-sim :class:`HealthWatchdog`: stall
  and storm detection riding the sampler cadence, emitting structured
  :class:`HealthEvent` records in simulated time;
* :mod:`repro.obs.report` — any :class:`RunArtifact` rendered as a
  single self-contained HTML dashboard (stat tiles, SLO scorecard,
  health log, time-series charts, journey waterfall);
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (Perfetto /
  ``chrome://tracing``; spans as slices, journeys as flow events, time
  series as counters) and the per-run :class:`RunArtifact` JSON.

The package deliberately imports nothing from :mod:`repro.sim` so the
simulation kernel can build *on top of* the instruments (``repro.sim``
-> ``repro.obs``, never the other way).
"""

from .analyze import (
    LAYERS,
    CriticalPath,
    PathSegment,
    ScopeStat,
    SpanNode,
    attribution_table,
    critical_path,
    explain_outliers,
    fig7_stages,
    journey_latency_summary,
    journey_waterfall,
    layer_attribution,
    outlier_report,
    scope_stats,
    span_tree,
    summary_table,
    waterfall_table,
)
from .diff import Delta, RunDiff, flatten_numeric
from .export import (
    RUN_SCHEMA,
    RunArtifact,
    chrome_trace_events,
    chrome_trace_json,
    jsonable,
    records_of,
    spans_of,
    timeseries_of,
)
from .health import HEALTH_SCHEMA, SEVERITIES, HealthEvent, HealthWatchdog
from .journey import HOP_CHAIN, Journey, JourneyProbe, JourneyRecorder, packet_key
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    TimeSeriesSampler,
)
from .profile import EnvProfiler, aggregate_profiles
from .report import render_html, write_html
from .slo import (
    OBJECTIVE_KINDS,
    SCORECARD_SCHEMA,
    SLO_SCHEMA,
    Objective,
    SLOSpec,
    evaluate,
    resolve_metric,
)
from .span import NULL_SPAN, Span, Tracer

__all__ = [
    "Counter",
    "CriticalPath",
    "Delta",
    "EnvProfiler",
    "Gauge",
    "HEALTH_SCHEMA",
    "HOP_CHAIN",
    "HealthEvent",
    "HealthWatchdog",
    "Histogram",
    "Journey",
    "JourneyProbe",
    "JourneyRecorder",
    "LAYERS",
    "MetricsRegistry",
    "NULL_SPAN",
    "OBJECTIVE_KINDS",
    "Objective",
    "PathSegment",
    "RUN_SCHEMA",
    "RunArtifact",
    "RunDiff",
    "SCORECARD_SCHEMA",
    "SEVERITIES",
    "SLOSpec",
    "SLO_SCHEMA",
    "ScopeStat",
    "Span",
    "SpanNode",
    "TimeSeries",
    "TimeSeriesSampler",
    "Tracer",
    "aggregate_profiles",
    "attribution_table",
    "chrome_trace_events",
    "chrome_trace_json",
    "critical_path",
    "evaluate",
    "explain_outliers",
    "fig7_stages",
    "flatten_numeric",
    "journey_latency_summary",
    "journey_waterfall",
    "jsonable",
    "layer_attribution",
    "outlier_report",
    "packet_key",
    "records_of",
    "render_html",
    "resolve_metric",
    "scope_stats",
    "span_tree",
    "spans_of",
    "summary_table",
    "timeseries_of",
    "waterfall_table",
    "write_html",
]
