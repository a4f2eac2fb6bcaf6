"""Run diffing: compare two run artifacts metric-by-metric.

A :class:`RunDiff` takes two run documents — live
:class:`~repro.obs.RunArtifact` objects or their JSON dict forms (run
artifacts, bench documents, any nested dict of numbers) — flattens every
numeric leaf into a dotted key, and classifies each key's change against
a configurable relative tolerance.  This is the engine behind
``python -m repro.perf diff a.json b.json``.

Span/record payloads and rendered reports are excluded by default: a
diff is about *measurements*, not trace dumps.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["Delta", "RunDiff", "flatten_numeric"]

#: top-level keys never compared (bulk payloads / non-measurements)
DEFAULT_IGNORE = ("spans", "records", "report", "schema", "rev", "python",
                  "generated", "wall_s", "wall_by_scenario")


def flatten_numeric(doc: Any, prefix: str = "",
                    ignore: Tuple[str, ...] = DEFAULT_IGNORE) -> Dict[str, float]:
    """Flatten nested dicts/lists to ``dotted.key -> float`` leaves.

    Booleans and non-numeric leaves are skipped; keys named in
    ``ignore`` are pruned at every nesting level.
    """
    out: Dict[str, float] = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            if str(key) in ignore:
                continue
            sub = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(value, sub, ignore))
    elif isinstance(doc, (list, tuple)):
        for i, value in enumerate(doc):
            out.update(flatten_numeric(value, f"{prefix}[{i}]", ignore))
    elif isinstance(doc, bool):
        pass
    elif isinstance(doc, (int, float)) and math.isfinite(doc):
        out[prefix] = float(doc)
    return out


@dataclasses.dataclass(frozen=True)
class Delta:
    """One compared key: values on both sides and the change verdict."""

    key: str
    a: Optional[float]
    b: Optional[float]
    status: str  # "same" | "changed" | "added" | "removed"

    @property
    def abs_delta(self) -> float:
        """``b - a`` (0 when either side is missing)."""
        if self.a is None or self.b is None:
            return 0.0
        return self.b - self.a

    @property
    def rel_delta(self) -> float:
        """Relative change ``(b - a) / |a|``; ``inf`` when a == 0 != b."""
        if self.a is None or self.b is None:
            return math.inf
        if self.a == 0.0:
            return 0.0 if self.b == 0.0 else math.inf
        return (self.b - self.a) / abs(self.a)


class RunDiff:
    """Per-metric comparison of two run documents.

    ``tolerance`` is the default relative tolerance; ``tolerances`` maps
    dotted-key *prefixes* to overrides (longest matching prefix wins),
    so e.g. ``{"metrics.faults": 0.5}`` loosens every fault counter.
    """

    def __init__(self, a: Any, b: Any, tolerance: float = 0.05,
                 tolerances: Optional[Dict[str, float]] = None,
                 ignore: Tuple[str, ...] = DEFAULT_IGNORE):
        if dataclasses.is_dataclass(a) and not isinstance(a, type):
            a = a.to_dict()
        if dataclasses.is_dataclass(b) and not isinstance(b, type):
            b = b.to_dict()
        self.tolerance = tolerance
        self.tolerances = dict(tolerances or {})
        flat_a = flatten_numeric(a, ignore=ignore)
        flat_b = flatten_numeric(b, ignore=ignore)
        self.deltas: List[Delta] = []
        for key in sorted(set(flat_a) | set(flat_b)):
            va, vb = flat_a.get(key), flat_b.get(key)
            if va is None:
                status = "added"
            elif vb is None:
                status = "removed"
            else:
                delta = Delta(key, va, vb, "?")
                status = ("same" if abs(delta.rel_delta) <= self.tolerance_for(key)
                          else "changed")
            self.deltas.append(Delta(key, va, vb, status))

    def tolerance_for(self, key: str) -> float:
        """The relative tolerance applying to ``key`` (longest prefix)."""
        best, best_len = self.tolerance, -1
        for prefix, tol in self.tolerances.items():
            if key.startswith(prefix) and len(prefix) > best_len:
                best, best_len = tol, len(prefix)
        return best

    # -- verdicts --------------------------------------------------------
    @property
    def changed(self) -> List[Delta]:
        """Keys whose relative change exceeds their tolerance."""
        return [d for d in self.deltas if d.status == "changed"]

    @property
    def added(self) -> List[Delta]:
        """Keys present only in the second document."""
        return [d for d in self.deltas if d.status == "added"]

    @property
    def removed(self) -> List[Delta]:
        """Keys present only in the first document."""
        return [d for d in self.deltas if d.status == "removed"]

    def within_tolerance(self) -> bool:
        """True when every shared key stayed inside its tolerance."""
        return not self.changed

    # -- reporting -------------------------------------------------------
    def report(self, only_changes: bool = True,
               title: str = "Run diff") -> str:
        """Text table of the deltas (changed/added/removed, or all)."""
        rows = []
        shown: Iterable[Delta] = (
            self.changed + self.added + self.removed if only_changes
            else self.deltas
        )
        for d in shown:
            rel = (f"{d.rel_delta * 100:+.1f}%"
                   if d.a is not None and d.b is not None and math.isfinite(d.rel_delta)
                   else "-")
            rows.append((
                d.key,
                "-" if d.a is None else f"{d.a:g}",
                "-" if d.b is None else f"{d.b:g}",
                rel,
                d.status,
            ))
        if not rows:
            return f"{title}: no differences beyond tolerance ({self.tolerance:.1%})"
        # Deferred: repro.analysis builds on repro.obs (circular otherwise).
        from ..analysis.tables import format_table

        return format_table(["metric", "a", "b", "delta", "status"], rows,
                            title=title)

    def __repr__(self) -> str:
        return (f"<RunDiff keys={len(self.deltas)} changed={len(self.changed)} "
                f"added={len(self.added)} removed={len(self.removed)}>")
