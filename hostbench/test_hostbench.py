"""Tests of the host-time benchmark itself: seeds, references, tracing.

Not part of the tier-1 suite (``testpaths`` is ``tests``); run with

    python3 -m pytest hostbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import points as pts  # noqa: E402
from layers import PER_LAYER, LayerTracer  # noqa: E402
from quantiles import hd_quantile  # noqa: E402
from speed import REFERENCE_PROBE_NS, SpeedProbe  # noqa: E402

END_TO_END = ("wall_s", "setup_s", "frames_per_s", "point_p50_ms", "point_p90_ms",
              "peak_rss_mb", "model_err_pct")


@pytest.fixture(scope="module")
def reference():
    return pts.load_reference()


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "hostbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=900, cwd=cwd, check=False)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", pts.WORKLOADS)
def test_same_seed_gives_same_point_list(workload, reference):
    assert pts.generate(workload, 3, reference) == pts.generate(workload, 3, reference)


@pytest.mark.parametrize("workload", pts.WORKLOADS)
def test_second_seed_gives_different_point_list(workload, reference):
    assert pts.generate(workload, 3, reference) != pts.generate(workload, 4, reference)


def test_every_drawable_point_has_a_reference(reference):
    keys = {pts.point_key(p) for p in pts.reference_space()}
    assert keys <= set(reference)
    for workload in pts.WORKLOADS:
        for seed in (1, 2, pts.HELD_OUT_SEED):
            for point in pts.generate(workload, seed, reference):
                assert pts.point_key(point) in keys


@pytest.mark.parametrize("workload", pts.WORKLOADS)
def test_same_seed_gives_same_simulated_results(workload, reference):
    points = sorted(pts.generate(workload, 3, reference),
                    key=lambda p: reference[pts.point_key(p)]["events"])[:3]
    capture = pts.BuildCapture()
    capture.install()
    try:
        first = [pts.run_point(p, capture, reference) for p in points]
        second = [pts.run_point(p, capture, reference) for p in points]
    finally:
        capture.uninstall()
    assert [r.error for r in first + second] == [None] * 6
    assert [r.observed() for r in first] == [r.observed() for r in second]


def test_reference_check_is_exact_or_within_flow_tolerance(reference):
    tcp = pts.pingpong_point("tcp", 1500, 1024)
    clic = pts.pingpong_point("clic", 1500, 1024)
    for point, nudge, fails in ((tcp, 1e-9, True), (clic, 0.01, False),
                                (clic, 0.06, True)):
        entry = reference[pts.point_key(point)]
        moved = {"result": {k: v * (1 + nudge) for k, v in entry["result"].items()},
                 "conservation": entry["conservation"]}
        assert (pts.compare(point, moved, entry) is not None) is fails
        assert pts.compare(point, entry, entry) is None


def test_layer_tracer_restores_every_entry_point():
    from repro.cluster.cluster import Cluster
    from repro.sim.core import Environment
    from repro.validate import runner

    before = (Cluster.__init__, Environment.run, runner.check_run)
    with LayerTracer() as tracer:
        assert Environment.run is not before[1]
        assert runner.check_run is not before[2]
    assert (Cluster.__init__, Environment.run, runner.check_run) == before
    assert len(tracer.log.sites) > 100


def test_harrell_davis_quantiles():
    assert hd_quantile([3.0] * 9, 0.9) == pytest.approx(3.0)
    assert hd_quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    xs = [float(i) for i in range(1, 158)]
    assert hd_quantile(xs, 0.5) == pytest.approx(79.0)
    assert 140.0 < hd_quantile(xs, 0.9) < 143.0
    assert hd_quantile(xs, 0.9) < hd_quantile(xs + [1e6], 0.9) < 150.0


def test_speed_probe_samples_and_leaves_its_time_out():
    import signal
    import time

    before = signal.getsignal(signal.SIGPROF)
    probe = SpeedProbe(interval_s=0.005, events=100)
    with probe:
        t0, c0 = time.thread_time_ns(), probe.clock_ns()
        sum(i * i for i in range(3_000_000))
        cpu, own = time.thread_time_ns() - t0, probe.clock_ns() - c0
    assert len(probe.samples) >= 5
    assert 0 < probe.spent_ns and own + probe.spent_ns == pytest.approx(cpu, rel=0.02)
    assert probe.factor(probe.mark()) > 0  # empty interval: one sample taken now
    slow = REFERENCE_PROBE_NS * 2
    probe.samples.extend([slow, slow])
    assert probe.factor(len(probe.samples) - 2) == pytest.approx(0.5)
    assert signal.getsignal(signal.SIGPROF) == before


def _run_captured(point, reference, capture):
    capture.install()
    try:
        return pts.run_point(point, capture, reference, keep_snapshots=True)
    finally:
        capture.uninstall()


def test_speed_probe_does_not_perturb_a_point(reference):
    plain = _run_captured(pts.BW_POINT, reference, pts.BuildCapture())
    probe = SpeedProbe(interval_s=0.001, events=50)
    with probe:
        probed = _run_captured(pts.BW_POINT, reference,
                               pts.BuildCapture(clock=probe.clock_ns))
    assert len(probe.samples) > 0
    assert plain.error is None and probed.error is None
    assert (probed.result, probed.snapshots) == (plain.result, plain.snapshots)


@pytest.mark.parametrize("workload", pts.WORKLOADS)
def test_held_out_seed_runs_clean(workload):
    result = _result(_bench("--workload", workload, "--seed", str(pts.HELD_OUT_SEED),
                            "--seconds", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(pts.generate(workload, pts.HELD_OUT_SEED))
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = _result(_bench("--workload", "fuzz-lossy", "--seed", "5",
                            "--seconds", "0", "--trace", "1"))
    assert result["correct"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(metrics) == list(PER_LAYER)
    for name in ("faults.decisions", "faults.self_s", "validate.check_s",
                 "protocols.reliability.self_s", "cluster.builds", "sim.core.self_s"):
        assert metrics[name] > 0, name
    assert metrics["validate.violations"] == 0
    assert metrics["trace_overhead"] > 1


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep-flow", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
