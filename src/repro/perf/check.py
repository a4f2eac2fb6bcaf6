"""Baseline comparison behind ``python -m repro.perf check``.

The committed baseline's gates are *declared data*: each gate
``{value, better, tol}`` bounds its metric at ``value * (1 + tol)``
when lower is better and at ``value * (1 - tol)`` when higher is better.
:func:`check_bench` classifies every gate of either document with
:func:`_classify`: movement past that boundary is ``regressed``,
movement past tolerance in the *good* direction is ``improved``,
in-tolerance drift is ``ok``, and gates present on only one side are
``baseline-only`` / ``new`` (reported, never failing — the suite is
allowed to grow).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .bench import BENCH_SCHEMA

__all__ = ["GateResult", "check_bench", "load_bench", "report"]


def load_bench(path: str) -> Dict[str, Any]:
    """Load and schema-validate a bench JSON document."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: not a bench document (want schema {BENCH_SCHEMA!r}, "
            f"got {doc.get('schema') if isinstance(doc, dict) else type(doc).__name__!r})")
    return doc


@dataclass(frozen=True)
class GateResult:
    """Verdict for one gated metric of one scenario."""

    scenario: str
    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    better: str
    tol: float
    status: str  # "ok" | "improved" | "regressed" | "baseline-only" | "new"

    @property
    def rel_delta(self) -> float:
        """Relative change of the candidate against the baseline."""
        if self.baseline in (None, 0.0) or self.candidate is None:
            return 0.0
        return (self.candidate - self.baseline) / abs(self.baseline)


def _gate_spec(base_gates: Dict[str, Any], cand_gates: Dict[str, Any],
               metric: str) -> Dict[str, Any]:
    """Tolerance/direction come from the candidate when it defines the
    gate (the current code owns its contract), else from the baseline."""
    return cand_gates.get(metric) or base_gates[metric]


def _classify(baseline: float, candidate: float, better: str, tol: float) -> str:
    """Scalar ok/improved/regressed verdict for one gate: the
    regression boundary is ``baseline * (1 ± tol)``, on the side
    ``better`` says is bad."""
    if better == "lower":
        if candidate > baseline * (1 + tol):
            return "regressed"
        return "improved" if candidate < baseline * (1 - tol) else "ok"
    if candidate < baseline * (1 - tol):
        return "regressed"
    return "improved" if candidate > baseline * (1 + tol) else "ok"


def check_bench(candidate: Dict[str, Any],
                baseline: Dict[str, Any]) -> List[GateResult]:
    """Compare the candidate against the baseline's gates.

    Every gate on both sides gets its :func:`_classify` verdict; gates
    on only one side stay informational.
    """
    results: List[GateResult] = []
    scenarios = sorted(set(baseline.get("scenarios", {}))
                       | set(candidate.get("scenarios", {})))
    for scenario in scenarios:
        base_gates = (baseline.get("scenarios", {}).get(scenario) or {}).get("gates", {})
        cand_gates = (candidate.get("scenarios", {}).get(scenario) or {}).get("gates", {})
        for metric in sorted(set(base_gates) | set(cand_gates)):
            gate = _gate_spec(base_gates, cand_gates, metric)
            better, tol = gate["better"], gate["tol"]
            base = base_gates.get(metric, {}).get("value")
            cand = cand_gates.get(metric, {}).get("value")
            if base is None:
                status = "new"
            elif cand is None:
                status = "baseline-only"
            else:
                status = _classify(base, cand, better, tol)
            results.append(GateResult(scenario, metric, base, cand, better, tol, status))
    return results


def report(results: List[GateResult],
           title: str = "Perf check vs baseline") -> str:
    """Text table of every gate verdict (regressions first)."""
    from ..analysis.tables import format_table

    order = {"regressed": 0, "baseline-only": 1, "new": 2, "improved": 3, "ok": 4}
    rows = []
    for r in sorted(results, key=lambda r: (order[r.status], r.scenario, r.metric)):
        rows.append((
            r.scenario, r.metric, r.better,
            "-" if r.baseline is None else f"{r.baseline:g}",
            "-" if r.candidate is None else f"{r.candidate:g}",
            f"{r.rel_delta * 100:+.1f}%" if r.baseline and r.candidate is not None else "-",
            f"{r.tol:.0%}", r.status,
        ))
    return format_table(
        ["scenario", "metric", "better", "baseline", "candidate", "delta",
         "tol", "status"],
        rows, title=title)
