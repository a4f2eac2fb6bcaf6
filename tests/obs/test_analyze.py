"""Trace-analytics tests: span trees, self-time, critical paths, layers."""

import os

import pytest

from repro.obs import (
    LAYERS,
    attribution_table,
    critical_path,
    fig7_stages,
    layer_attribution,
    scope_stats,
    span_tree,
    summary_table,
)


def _span(id, scope, name, start, end, parent=None, **attrs):
    return {"id": id, "scope": scope, "name": name, "start_ns": float(start),
            "end_ns": float(end), "parent": parent, "attrs": attrs}


SYNTHETIC = [
    _span(1, "node0.kernel", "syscall", 0, 100),
    _span(2, "node0.clic", "clic_send", 10, 60, parent=1),
    _span(3, "node0.clic", "copy", 20, 40, parent=2),
    _span(4, "node1.eth0", "irq", 200, 260),
]


def test_span_tree_rebuilds_forest():
    roots, by_id = span_tree(SYNTHETIC)
    assert [r.span["id"] for r in roots] == [1, 4]
    assert [c.span["id"] for c in by_id[1].children] == [2]
    assert [c.span["id"] for c in by_id[2].children] == [3]
    # A dangling parent id degrades to a root, not a crash.
    roots2, _ = span_tree([_span(9, "x", "y", 0, 1, parent=999)])
    assert len(roots2) == 1


def test_self_time_subtracts_children():
    _, by_id = span_tree(SYNTHETIC)
    assert by_id[1].duration_ns == 100.0
    assert by_id[1].self_ns == 50.0  # 100 - child(50)
    assert by_id[2].self_ns == 30.0  # 50 - child(20)
    assert by_id[3].self_ns == 20.0  # leaf: self == total
    # Overlapping children longer than the parent clamp at zero.
    _, clamped = span_tree([
        _span(1, "a", "p", 0, 10),
        _span(2, "a", "c", 0, 8, parent=1),
        _span(3, "a", "c", 2, 10, parent=1),
    ])
    assert clamped[1].self_ns == 0.0


def test_scope_stats_aggregates_and_sorts():
    stats = scope_stats(SYNTHETIC)
    keys = [s.key for s in stats]
    assert set(keys) == {"node0.kernel/syscall", "node0.clic/clic_send",
                         "node0.clic/copy", "node1.eth0/irq"}
    # Sorted by self time descending: the irq span (60 ns) leads.
    assert keys[0] == "node1.eth0/irq"
    assert stats[0].count == 1 and stats[0].total_ns == 60.0


def test_summary_table_renders_and_truncates():
    table = summary_table(SYNTHETIC, top=2, title="T")
    assert "T" in table and "node1.eth0/irq" in table
    assert "node0.clic/copy" not in table  # beyond top-2
    assert "#" in table  # the bar column
    assert "no completed spans" in summary_table([])


@pytest.fixture(scope="module")
def fig7_artifact():
    """One traced Figure-7 run shared by the critical-path tests."""
    from repro.trace import capture_fig7

    return capture_fig7()


def test_critical_path_covers_figure7_window(fig7_artifact):
    art = fig7_artifact
    path = critical_path(art.spans, art.records, art.result["packet_id"],
                         "node0", "node1")
    assert path.packet_id == art.result["packet_id"]
    # Gap-free chain: each hop starts where the previous one ended.
    for prev, seg in zip(path.segments, path.segments[1:]):
        assert seg.start_ns == prev.end_ns
        assert seg.duration_ns > 0
        assert seg.layer in LAYERS
    # The path spans the same window the fig7 experiment measures.
    assert path.total_us == pytest.approx(art.result["total_us"], rel=1e-9)
    layers = layer_attribution(path)
    assert layers == path.layer_ns()
    assert sum(layers.values()) == pytest.approx(path.total_ns)
    # Every share in [0, 1], summing to 1.
    shares = path.layer_shares()
    assert all(0.0 <= v <= 1.0 for v in shares.values())
    assert sum(shares.values()) == pytest.approx(1.0)
    # Tables render without touching live simulator objects.
    assert "pkt" in path.table()
    assert "TOTAL" in attribution_table(layers)


@pytest.mark.parametrize("variant", ["stock", "direct"])
def test_fig7_chrome_export_matches_golden(variant, tmp_path):
    """Pin every Figure-7 stage boundary: the ``fig7.pipeline`` slices of
    ``python -m repro.trace --chrome`` are byte-compared against exports
    recorded while the stages still came from a separate extractor."""
    from repro.trace import main

    out = tmp_path / "fig7.json"
    assert main(["--chrome", "--variant", variant, "-o", str(out)]) == 0
    golden = os.path.join(os.path.dirname(__file__), f"golden_fig7_{variant}.json")
    with open(golden) as fh:
        assert out.read_text() == fh.read()


def test_critical_path_rejects_incomplete_traces(fig7_artifact):
    art = fig7_artifact
    pkt = art.result["packet_id"]
    with pytest.raises(ValueError, match="missing"):
        critical_path([], [], pkt, "node0", "node1")
    # Dropping the receiver's clic_rx span alone must also be fatal.
    spans = [s for s in art.spans if s["name"] != "clic_rx"]
    with pytest.raises(ValueError, match="clic_rx"):
        critical_path(spans, art.records, pkt, "node0", "node1")
    with pytest.raises(ValueError):
        critical_path(art.spans, art.records, pkt + 999, "node0", "node1")


def test_fig7_stage_durations_rejects_unknown_hops():
    from repro.obs import CriticalPath, PathSegment

    path = CriticalPath(1, [PathSegment("martian hop", "kernel", 0.0, 1.0)])
    with pytest.raises(KeyError, match="martian"):
        fig7_stages(path)
