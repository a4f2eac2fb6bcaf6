"""Same-instant tie-break guard: fuzz points that a grant reordering moves.

An uncontended CPU, PCI or wire request is granted inline, while the
memory bus keeps its scheduled grant (see ``repro.hw.memory``).  These
fuzz scenarios of the host-time benchmark's pool change their
``frames_lost``/``frames_offered`` when the memory bus, or every plain
``Resource``, is granted inline too, so each must still match the
committed ``hostbench/reference.json`` (read here, never written).
"""

import sys
from pathlib import Path

import pytest

HOSTBENCH = Path(__file__).resolve().parents[2] / "hostbench"
sys.path.insert(0, str(HOSTBENCH))

import points as pts  # noqa: E402

#: indices into ``generate_scenario(7, i)`` sensitive to the grant order
TIEBREAK_POINTS = (167, 262, 295, 413, 417, 426, 544, 559, 560, 593, 602, 807)


@pytest.fixture(scope="module")
def capture():
    capture = pts.BuildCapture()
    capture.install()
    yield capture
    capture.uninstall()


@pytest.fixture(scope="module")
def reference():
    return pts.load_reference()


@pytest.mark.parametrize("index", TIEBREAK_POINTS)
def test_fuzz_point_matches_hostbench_reference(index, capture, reference):
    run = pts.run_point(pts.fuzz_point(index), capture, reference)
    assert run.error is None, run.error
