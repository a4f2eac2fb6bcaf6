#!/usr/bin/env python3
"""Host-time benchmark of the CLIC simulator.

Measures what running the simulator costs the host (wall time, set-up
time, simulated frames per host second, per-point latency, peak memory)
and how far its headline figures sit from the paper, on four seeded
closed-loop workloads.  Host time is CPU time calibrated against the
machine's speed (see ``speed.py``).  ``--trace 1`` adds one traced pass
that attributes host time to the simulator's layers (see ``layers.py``).

    python3 hostbench/run.py --workload sweep-flow --seed 1 --seconds 20
    python3 hostbench/run.py --workload bulk-exact --seed 1 --trace 1
    python3 hostbench/run.py --workload all        # every workload, one table

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Run it from the root
of a checkout; it imports the simulator from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: name -> unit of every end-to-end metric (tracing off)
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "point_p50_ms": "ms",
    "point_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "model_err_pct": "%",
}


# ---------------------------------------------------------------------------
# diagnostics (recorded with every run, never gated)
# ---------------------------------------------------------------------------

def calibration_ms() -> float:
    """Median of three timings of a fixed pure-Python loop (ms)."""
    def loop() -> int:
        acc, table = 0, {}
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
            table[i & 1023] = acc
        return acc + len(table)

    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        loop()
        samples.append((time.perf_counter() - t0) * 1000)
    return statistics.median(samples)


def git_revision() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref[:12]
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()[:12]
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def diagnostics() -> Dict[str, Any]:
    """Machine context that tells a slow machine from a slow change."""
    return {
        "calibration_ms": round(calibration_ms(), 3),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "revision": git_revision(),
    }


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def reset_peak_rss() -> None:
    """Restart the kernel's peak-resident-memory mark at the current RSS."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:  # no /proc: the peak stays the process's peak
        pass


def peak_rss_mb() -> float:
    """Peak resident memory since the last :func:`reset_peak_rss` (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(points, capture, reference, keep_snapshots=False,
             on_clusters=None) -> List[Any]:
    """Run every point once, back to back."""
    from points import run_point

    return [run_point(p, capture, reference, keep_snapshots, on_clusters)
            for p in points]


def timed_passes(points, capture, reference, seconds: float, probe,
                 keep_first: bool = False
                 ) -> Tuple[List[List[Any]], List[float], List[float]]:
    """Repeat passes until ``seconds`` of real time have gone (at least one).

    Returns the passes, each pass's calibration factor (see ``speed.py``)
    and each pass's peak resident memory (MB).
    """
    passes: List[List[Any]] = []
    factors: List[float] = []
    peaks: List[float] = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        gc.collect()
        reset_peak_rss()
        since = probe.mark()
        passes.append(run_pass(points, capture, reference,
                               keep_snapshots=keep_first and not passes))
        factors.append(probe.factor(since))
        peaks.append(peak_rss_mb())
    return passes, factors, peaks


def per_point_medians(passes: List[List[Any]], factors: List[float],
                      field: str) -> List[float]:
    """Each point's median over the passes of ``field``, calibrated.

    A burst of host slowness hits a few consecutive points of one pass;
    taking each point's median before summing keeps it out of the result.
    """
    return [statistics.median(getattr(p[j], field) * f
                              for p, f in zip(passes, factors))
            for j in range(len(passes[0]))]


def end_to_end(passes: List[List[Any]], factors: List[float], peaks: List[float],
               probe_mb: float) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Every end-to-end metric, and the sample each one rests on.

    Peak memory is the median of the passes' peaks, less ``probe_mb``
    (the speed probe's model).
    """
    from points import model_error_pct
    from quantiles import hd_quantile

    walls = per_point_medians(passes, factors, "wall_s")
    wall = sum(walls)
    setup = sum(per_point_medians(passes, factors, "setup_s"))
    frames = sum(r.frames for r in passes[0])
    k, n = len(walls), len(passes)
    each = f"{k} points x median of {n} passes"
    p90 = hd_quantile(walls, 0.9)
    values = {
        "wall_s": wall,
        "setup_s": setup,
        "frames_per_s": frames / (wall - setup),
        "point_p50_ms": hd_quantile(walls, 0.5) * 1000,
        "point_p90_ms": p90 * 1000,
        "peak_rss_mb": statistics.median(peaks) - probe_mb,
        "model_err_pct": model_error_pct(passes[0]),
    }
    basis = {
        "wall_s": each,
        "setup_s": each,
        "frames_per_s": f"{frames:.0f} frames / {each}",
        "point_p50_ms": f"{each}, Harrell-Davis",
        "point_p90_ms": f"{each}, Harrell-Davis, {sum(w > p90 for w in walls)} beyond",
        "peak_rss_mb": f"median of {n} passes' peaks, less the speed probe's model",
        "model_err_pct": "simulated",
    }
    return values, basis


def traced(points, capture, reference, first: List[Any], untraced_wall: float,
           probe) -> Tuple[Dict[str, float], List[Any]]:
    """One traced pass; its per-layer metrics.

    Errors out if the traced pass's simulated results or metrics
    snapshots differ from the untraced pass's: tracing must observe,
    never perturb.  Spans are timed on the wall clock (the cheapest
    clock to read), so they also hold the probe's samples and any wait
    for a CPU; they are scaled by the pass's probe-free CPU time over its
    wall time and calibrated like the untraced passes.
    """
    from layers import ClusterCounts, LayerTracer, layer_metrics
    from repro.obs import aggregate_profiles
    from repro.sim import profiled

    counts = ClusterCounts()
    gc.collect()
    since = probe.mark()
    with LayerTracer() as tracer, profiled() as profilers:
        t0, t0_all = probe.clock_ns(), time.perf_counter_ns()
        runs = run_pass(points, capture, reference, keep_snapshots=True,
                        on_clusters=counts.add_clusters)
        own, whole = probe.clock_ns() - t0, time.perf_counter_ns() - t0_all
    factor = probe.factor(since)
    wall = own / 1e9 * factor
    profile = aggregate_profiles(profilers)
    for a, b in zip(first, runs):
        if a.result != b.result or a.snapshots != b.snapshots:
            from points import point_key

            raise SystemExit(
                f"tracing perturbed the simulation at {point_key(a.point)}: "
                f"untraced {a.result}, traced {b.result}")
    for r in runs:
        for snap in r.snapshots or ():
            counts.add_snapshot(json.loads(snap))
    violations = sum(r.result.get("violations", 0) for r in runs)
    frames = sum(r.frames for r in runs)
    return layer_metrics(tracer.log, profile, counts, frames, violations,
                         wall / untraced_wall, factor * own / whole), runs


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def print_table(rows: List[Tuple[str, float, str, str]]) -> None:
    """Aligned ``name value unit basis`` rows."""
    for name, value, unit, basis in rows:
        print(f"  {name:<36} {value:>16.6g} {unit:<14} {basis}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    """The closing JSON line of a run."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload; prints the report and the result line."""
    import points as pts
    from layers import PER_LAYER
    from speed import SpeedProbe

    reference = pts.load_reference()
    points = pts.generate(workload, seed, reference)
    print(f"hostbench workload={workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)} points={len(points)}")
    print("diagnostics " + json.dumps(diagnostics()))

    probe = SpeedProbe()
    capture = pts.BuildCapture(clock=probe.clock_ns)
    capture.install()
    try:
        with probe:
            pts.run_point(pts.ANCHOR, capture, reference)  # warm-up, not counted
            # Keep the benchmark's own data (the reference table, the point
            # list, the imports) out of every collection the simulator causes.
            gc.freeze()
            passes, factors, peaks = timed_passes(points, capture, reference,
                                                  seconds, probe, keep_first=trace)
            all_runs = [r for p in passes for r in p]
            if trace:
                untraced_wall = sum(per_point_medians(passes, factors, "wall_s"))
                layer, traced_runs = traced(points, capture, reference, passes[0],
                                            untraced_wall, probe)
                all_runs += traced_runs
                metrics = {k: (layer[k], PER_LAYER[k][0]) for k in PER_LAYER}
                rows = [(k, v, u, "traced pass") for k, (v, u) in metrics.items()]
            else:
                values, basis = end_to_end(passes, factors, peaks, probe.footprint_mb)
                metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}
                rows = [(k, v, u, basis[k]) for k, (v, u) in metrics.items()]
    finally:
        capture.uninstall()
    print("speed " + json.dumps({
        "probe_samples": len(probe.samples),
        "probe_model_mb": round(probe.footprint_mb, 2),
        "probe_median_us": round(probe.median_ns() / 1000, 1),
        "pass_factors": [round(f, 4) for f in factors],
        "pass_measured_s": [round(sum(r.wall_s for r in p), 4) for p in passes],
        "pass_peak_mb": [round(m, 2) for m in peaks],
    }))

    failed = [r for r in all_runs if r.error is not None]
    for r in failed[:10]:
        print(f"FAILED {pts.point_key(r.point)}: {r.error}")
    print_table(rows)
    share = len(failed) / len(all_runs)
    print(f"  failed {len(failed)}/{len(all_runs)} points ({share:.1%})")
    print(result_line(not failed, len(all_runs), len(failed), metrics))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process (so peak RSS stays per workload)."""
    import points as pts

    attempted = failed = 0
    metrics: Dict[str, Tuple[float, str]] = {}
    for workload in pts.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"{workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            metrics[f"{workload}.{name}"] = (m["value"], m["unit"])
    print(f"all workloads: failed {failed}/{attempted} points "
          f"({failed / attempted:.1%})")
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # One string-hash layout for every run: with a random one, the
        # times of the small points moved by about 5% from run to run.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="bulk-exact | sweep-flow | fuzz-lossy | "
                             "collectives-fabric | all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="host seconds of untraced passes to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = add a traced pass and report per-layer metrics")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hostbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    import points as pts

    if args.workload not in pts.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
