"""The performance-regression lab: bench, diff, and check.

``python -m repro.perf`` turns the observability stack into a gate:

* ``bench`` runs a pinned suite of scenarios (headline latency, the
  Figure 4/5 bandwidth points — Figure 4's MTU-1500 point under both
  simulator engines — the span-derived Figure-7 layer budget, one
  resilience point) and writes a versioned ``BENCH_<rev>.json``
  with simulated metrics, wall-clock timings and
  :class:`~repro.obs.EnvProfiler` tallies;
* ``micro`` runs A/B microbenchmarks of the event-loop hot path (timer
  processes vs ``call_later`` handles) and writes ``MICRO_<rev>.json``;
* ``diff`` compares any two run/bench JSON documents metric-by-metric
  (see :class:`~repro.obs.RunDiff`);
* ``check`` compares a bench document against the committed baseline
  (``benchmarks/baselines/BENCH_baseline.json``) and exits non-zero
  when a gated metric regresses beyond its tolerance — the trajectory
  every PR extends.
"""

from .bench import BASELINE_PATH, BENCH_SCHEMA, run_bench, write_bench
from .check import check_bench, load_bench
from .micro import MICRO_SCHEMA, run_micro

__all__ = [
    "BASELINE_PATH",
    "BENCH_SCHEMA",
    "MICRO_SCHEMA",
    "check_bench",
    "load_bench",
    "run_bench",
    "run_micro",
    "write_bench",
]
