"""RunDiff tests: flattening, tolerance classification, reporting."""

import math

import pytest

from repro.obs import RunArtifact, RunDiff, flatten_numeric


def test_flatten_numeric_leaves_and_ignores():
    flat = flatten_numeric({
        "a": {"b": 1, "c": [10, 20.5]},
        "spans": [{"start_ns": 0}],     # ignored payload key
        "flag": True,                    # booleans are not metrics
        "name": "fig7",                  # strings are not metrics
        "bad": float("nan"),             # non-finite dropped
        "totals": {"wall_s": 9.3,        # host wall clocks are not compared
                   "wall_by_scenario": {"fig7": 0.1}},
    })
    assert flat == {"a.b": 1.0, "a.c[0]": 10.0, "a.c[1]": 20.5}


def test_diff_identical_documents():
    doc = {"metrics": {"x": 1.0, "y": 2.0}}
    diff = RunDiff(doc, doc)
    assert diff.within_tolerance()
    assert not diff.changed and not diff.added and not diff.removed
    assert "no differences" in diff.report()


def test_diff_classifies_changed_added_removed():
    a = {"m": {"lat": 100.0, "gone": 5.0, "zero": 0.0}}
    b = {"m": {"lat": 120.0, "new": 7.0, "zero": 3.0}}
    diff = RunDiff(a, b, tolerance=0.05)
    assert [d.key for d in diff.changed] == ["m.lat", "m.zero"]
    assert [d.key for d in diff.added] == ["m.new"]
    assert [d.key for d in diff.removed] == ["m.gone"]
    assert not diff.within_tolerance()
    lat = next(d for d in diff.deltas if d.key == "m.lat")
    assert lat.abs_delta == 20.0
    assert lat.rel_delta == pytest.approx(0.2)
    # 0 -> nonzero is an infinite relative change, always beyond tolerance.
    zero = next(d for d in diff.deltas if d.key == "m.zero")
    assert math.isinf(zero.rel_delta)
    report = diff.report()
    assert "m.lat" in report and "+20.0%" in report and "added" in report


def test_diff_tolerance_prefix_overrides():
    a = {"m": {"noisy": 100.0, "tight": 100.0}}
    b = {"m": {"noisy": 130.0, "tight": 130.0}}
    diff = RunDiff(a, b, tolerance=0.05, tolerances={"m.noisy": 0.5})
    assert diff.tolerance_for("m.noisy") == 0.5
    assert diff.tolerance_for("m.tight") == 0.05
    assert [d.key for d in diff.changed] == ["m.tight"]
    # The longest matching prefix wins.
    diff2 = RunDiff(a, b, tolerances={"m": 0.5, "m.tight": 0.01})
    assert diff2.tolerance_for("m.tight") == 0.01
    assert [d.key for d in diff2.changed] == ["m.tight"]


def test_diff_accepts_run_artifacts():
    art_a = RunArtifact(experiment="x", result={"total_us": 100.0})
    art_b = RunArtifact(experiment="x", result={"total_us": 200.0})
    diff = RunDiff(art_a, art_b)
    assert [d.key for d in diff.changed] == ["result.total_us"]
    assert RunDiff(art_a, art_a).within_tolerance()
