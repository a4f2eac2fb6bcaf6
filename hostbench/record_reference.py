#!/usr/bin/env python3
"""Record the simulated result of every point a seed can draw.

Writes ``hostbench/reference.json``: for each point of
:func:`points.reference_space`, its simulated result, its conservation
counters and its simulated event count (which orders the fuzz pool into
strata).  The committed table was recorded at the commit that added the
benchmark; re-record only when a change is *meant* to move simulated
numbers, and say so in that change.

    python3 hostbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import points as pts  # noqa: E402
from repro.obs import aggregate_profiles  # noqa: E402
from repro.sim import profiled  # noqa: E402


def main() -> int:
    capture = pts.BuildCapture()
    capture.install()
    entries = {}
    t0 = time.perf_counter()
    try:
        space = pts.reference_space()
        for i, point in enumerate(space):
            with profiled() as profilers:
                run = pts.run_point(point, capture, reference=None)
            key = pts.point_key(point)
            if run.error is not None and run.result.get("violations") is None:
                print(f"{key}: {run.error}", file=sys.stderr)
                return 1
            if run.error is not None:
                print(f"note: {key} records {run.error}", file=sys.stderr)
            entry = run.observed()
            entry["events"] = aggregate_profiles(profilers)["events_processed"]
            entries[key] = entry
            if i % 100 == 0:
                print(f"{i}/{len(space)} {time.perf_counter() - t0:.0f}s", flush=True)
    finally:
        capture.uninstall()
    lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(entries.items())]
    with open(pts.REFERENCE_PATH, "w") as fh:
        fh.write('{"schema": "hostbench.reference/1", "points": {\n')
        fh.write(",\n".join(lines))
        fh.write("\n}}\n")
    print(f"wrote {len(entries)} points to {pts.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
