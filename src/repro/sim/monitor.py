"""Instrumentation: trace records, counters, and utilization accounting.

The experiments need three kinds of observability:

* **Trace** — timestamped named point events (``driver_rx``,
  ``module_rx``, ``wake``, ...).  It is the only store of instants: the
  :class:`~repro.obs.span.Tracer` that owns it appends them here, while
  spans live on the tracer alone.  :func:`repro.obs.critical_path`
  anchors the Figure 7 per-stage pipeline of a packet on these records.
* **Counter** — monotonically increasing event tallies (interrupt counts
  for the Section 2 analysis, packets, retransmissions, ...).  Since the
  observability refactor, :class:`Counters` is a thin dict-like face
  over :class:`repro.obs.metrics.MetricsRegistry` counters, so ad-hoc
  tallies and typed instruments share one implementation.
* **BusyTracker** — integrates busy time of a device to report CPU / bus
  utilization over an interval.

Everything is cheap no-op-able: a disabled :class:`Trace` costs one
attribute check per record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..obs.metrics import Histogram, MetricsRegistry

__all__ = ["TraceRecord", "Trace", "Counters", "BusyTracker", "IntervalStats"]


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped trace entry."""

    time: float
    source: str
    event: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:,.0f} ns] {self.source}: {self.event} {extras}".rstrip()


class Trace:
    """An append-only trace of :class:`TraceRecord` entries."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.records: List[TraceRecord] = []

    def record(self, time: float, source: str, event: str, **detail: Any) -> None:
        """Append a record (no-op when tracing is disabled)."""
        if self.enabled:
            self.records.append(TraceRecord(time, source, event, detail))

    def filter(self, source: Optional[str] = None, event: Optional[str] = None) -> List[TraceRecord]:
        """All records matching the given source and/or event name."""
        return [
            r for r in self.records
            if (source is None or r.source == source)
            and (event is None or r.event == event)
        ]

    def matching(self, **detail: Any) -> List[TraceRecord]:
        """All records whose detail dict contains every given key/value."""
        return [
            r
            for r in self.records
            if all(r.detail.get(k) == v for k, v in detail.items())
        ]

    def clear(self) -> None:
        """Drop all records."""
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)


class Counters:
    """Named monotonic counters with a dict-like face.

    Backed by :class:`~repro.obs.metrics.MetricsRegistry` counter
    instruments; pass a shared ``registry`` (and optional ``prefix``) to
    fold a component's tallies into a cluster-wide namespace, or omit
    both for a private registry (the historical behaviour).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None, prefix: str = ""):
        self._registry = registry if registry is not None else MetricsRegistry()
        self._prefix = prefix
        #: name -> counter instrument, looked up once per name
        self._bound: Dict[str, Any] = {}

    def add(self, name: str, amount: float = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        counter = self._bound.get(name)
        if counter is None:
            counter = self._bound[name] = self._registry.counter(self._prefix + name)
        counter.value += amount

    def set(self, name: str, value: float) -> None:
        """Record ``name`` as a gauge *level* (a typed gauge instrument,
        not a counter — for values that may hold still or only move in
        jumps, like the highest cumulatively-acked sequence)."""
        self._registry.gauge(self._prefix + name).set(value)

    def level(self, name: str) -> float:
        """Current level of gauge ``name`` (0 when never set)."""
        gauge = self._registry.peek(self._prefix + name)
        return gauge.value if gauge is not None else 0

    def get(self, name: str) -> float:
        """Current value of ``name`` (0 when never incremented)."""
        counter = self._registry.peek(self._prefix + name)
        return counter.value if counter is not None else 0

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict copy of all counters (under this face's prefix)."""
        start = len(self._prefix)
        return {
            name[start:]: inst.value
            for name, inst in self._registry.items()
            if name.startswith(self._prefix) and inst.kind == "counter"
        }

    def reset(self) -> None:
        """Zero all counters."""
        self._bound.clear()
        for name in list(self.snapshot()):
            self._registry.discard(self._prefix + name)

    def __getitem__(self, name: str) -> float:
        return self.get(name)

    def __repr__(self) -> str:
        return f"Counters({self.snapshot()!r})"


class BusyTracker:
    """Integrates the busy time of a device for utilization reporting.

    Call :meth:`acquire`/:meth:`release` around busy intervals (re-entrant:
    overlapping busy intervals from several users count once).
    """

    def __init__(self):
        self._depth = 0
        self._busy_since: Optional[float] = None
        self.total_busy: float = 0.0
        self._mark_time: float = 0.0
        self._mark_busy: float = 0.0

    def acquire(self, now: float) -> None:
        """Mark the device busy from ``now`` (re-entrant)."""
        if self._depth == 0:
            self._busy_since = now
        self._depth += 1

    def release(self, now: float) -> None:
        """Mark one busy interval finished at ``now``."""
        if self._depth <= 0:
            raise RuntimeError(
                f"BusyTracker.release at t={now:,.0f} ns without matching acquire"
            )
        self._depth -= 1
        if self._depth == 0:
            self.total_busy += now - self._busy_since
            self._busy_since = None

    def busy_time(self, now: float) -> float:
        """Total busy time up to ``now`` (including an open interval)."""
        open_part = (now - self._busy_since) if self._busy_since is not None else 0.0
        return self.total_busy + open_part

    def mark(self, now: float) -> None:
        """Start a measurement window at ``now``."""
        self._mark_time = now
        self._mark_busy = self.busy_time(now)

    def utilization_since_mark(self, now: float) -> float:
        """Fraction of wall time busy since the last :meth:`mark`."""
        span = now - self._mark_time
        if span <= 0:
            return 0.0
        return (self.busy_time(now) - self._mark_busy) / span


class IntervalStats:
    """Streaming sample statistics (now histogram-backed: adds p50/p95/p99).

    Kept as the historical name; internally a log-bucketed
    :class:`~repro.obs.metrics.Histogram`, so mean/min/max/count stay
    exact while percentiles come for free.
    """

    __slots__ = ("_hist",)

    def __init__(self):
        self._hist = Histogram()

    def observe(self, value: float) -> None:
        """Fold one sample into the running statistics."""
        self._hist.record(value)

    @property
    def count(self) -> int:
        return self._hist.count

    @property
    def total(self) -> float:
        return self._hist.total

    @property
    def minimum(self) -> float:
        return self._hist.minimum

    @property
    def maximum(self) -> float:
        return self._hist.maximum

    @property
    def mean(self) -> float:
        return self._hist.mean

    def percentile(self, p: float) -> float:
        """Approximate ``p``-th percentile of the observed samples."""
        return self._hist.percentile(p)

    def as_dict(self) -> Dict[str, float]:
        """The statistics as a plain dict."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }
