"""Seeded point lists for the four host-time workloads, and how to run a point.

A *point* is one independent simulation: build a cluster, run it, check
the simulated result against the committed reference.  Points are plain
JSON-able dicts; the simulator only ever sees the generated inputs
(sizes, transports, MTUs, scenario specs, collective shapes).

Every point a seed can draw comes from a finite space (a size grid, a
fixed fuzz-scenario pool, a fixed collective set), so ``reference.json``
holds the seed commit's simulated result for each of them and any seed
is reference-checked.  Each workload draws one point per *stratum* of
its space, so every seed carries the same mix of light and heavy points:
the seed changes which points run, not how much work a pass holds.
"""

from __future__ import annotations

import gc
import json
import random
import re
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

WORKLOADS = ("bulk-exact", "sweep-flow", "fuzz-lossy", "collectives-fabric")

#: seed reserved for confirming later claims; never used while tuning
HELD_OUT_SEED = 9001

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# -- bulk-exact: long exact-path CLIC streams ---------------------------------
BULK_SIZES = [262_144 + 16_384 * j for j in range(49)]  # 256 KiB .. 1 MiB
#: one point per stratum of three or four sizes: narrow strata keep the
#: point-time percentiles from moving with the seed's draw
BULK_POINTS = 16
BULK_MESSAGES = 2
#: strata whose point also records program spans and journeys (one in four)
BULK_TRACED = (0, 4, 8, 12)

# -- sweep-flow: NetPIPE-style ping-pong, flow_mode="auto" --------------------
#: quarter-octave grid from 0 B to 1 MiB (log-uniform once discretised)
SWEEP_GRID = sorted({0} | {round(2 ** (e / 4)) for e in range(81)})
SWEEP_STRATA = 39
SWEEP_COMBOS = [(t, mtu) for t in ("clic", "tcp") for mtu in (1500, 9000)]

# -- fuzz-lossy: validate scenarios ---------------------------------------------
#: master seed of the scenario pool (the repo's CI fuzz-campaign seed)
FUZZ_POOL_SEED = 7
FUZZ_POOL = 960
FUZZ_POINTS = 240

# -- collectives-fabric: MPI collectives on a 2-level fat-tree -------------------
FAT_TREE = {"leaf_fan": 4, "uplink_fan": 2}
COLLECTIVE_OPS = (("barrier", 0), ("allreduce", 64), ("bcast", 8192))
#: host mode at P=256 costs ~10 s per allreduce, too long for a pass
COLLECTIVE_SHAPES = (("host", 64), ("nic", 64), ("nic", 256))
COLLECTIVE_REPEATS = 2

# -- paper figures (DESIGN.md: TXT-LAT, TXT-BW) ---------------------------------
PAPER_LATENCY_US = 36.0
PAPER_BW_MBPS = {1500: 450.0, 9000: 600.0}

#: relative tolerance for flow_mode="auto" CLIC points (the repo's
#: documented FLOWMODE_BW_TOLERANCE); every other point must match exactly
FLOW_TOLERANCE = 0.05


# ---------------------------------------------------------------------------
# point constructors and keys
# ---------------------------------------------------------------------------

def stream_point(nbytes: int, traced: bool) -> Dict[str, Any]:
    """A flow-off MTU-1500 CLIC stream of BULK_MESSAGES x nbytes."""
    return {"kind": "stream", "nbytes": nbytes, "messages": BULK_MESSAGES,
            "traced": traced}


def pingpong_point(transport: str, mtu: int, nbytes: int) -> Dict[str, Any]:
    """One flow-auto NetPIPE ping-pong point in a fresh 2-node cluster."""
    return {"kind": "pingpong", "transport": transport, "mtu": mtu, "nbytes": nbytes}


#: 0 B CLIC latency at MTU 1500: the TXT-LAT point
ANCHOR = pingpong_point("clic", 1500, 0)
#: 1 MB CLIC at MTU 9000: the TXT-BW (jumbo) point
BW_POINT = pingpong_point("clic", 9000, 1_000_000)


def fuzz_point(index: int) -> Dict[str, Any]:
    """Scenario ``index`` of the fixed fuzz pool, as its spec dict."""
    from repro.validate import generate_scenario

    return {"kind": "fuzz", "index": index,
            "spec": generate_scenario(FUZZ_POOL_SEED, index).to_dict()}


def collective_point(op: str, nbytes: int, mode: str, nodes: int) -> Dict[str, Any]:
    """One MPI collective timing on the fat-tree."""
    return {"kind": "collective", "op": op, "nbytes": nbytes, "mode": mode,
            "nodes": nodes}


def point_key(point: Dict[str, Any]) -> str:
    """Stable reference-table key of a point."""
    kind = point["kind"]
    if kind == "stream":
        tag = "traced" if point["traced"] else "plain"
        return f"stream/{point['nbytes']}x{point['messages']}/{tag}"
    if kind == "pingpong":
        return f"pingpong/{point['transport']}/{point['mtu']}/{point['nbytes']}"
    if kind == "fuzz":
        return f"fuzz/{FUZZ_POOL_SEED}/{point['index']}"
    return (f"collective/{point['op']}/{point['nbytes']}/{point['mode']}"
            f"/{point['nodes']}")


def reference_space() -> List[Dict[str, Any]]:
    """Every point any seed can draw (what ``reference.json`` covers)."""
    space = [stream_point(n, t) for n in BULK_SIZES for t in (False, True)]
    space += [pingpong_point(t, mtu, n) for t, mtu in SWEEP_COMBOS for n in SWEEP_GRID]
    space.append(BW_POINT)
    space += [fuzz_point(i) for i in range(FUZZ_POOL)]
    space += [collective_point(op, nb, mode, p)
              for op, nb in COLLECTIVE_OPS for mode, p in COLLECTIVE_SHAPES]
    return space


# ---------------------------------------------------------------------------
# seeded workload generation
# ---------------------------------------------------------------------------

def _strata(seq: List[Any], k: int) -> List[List[Any]]:
    """``seq`` cut into ``k`` contiguous, near-equal chunks."""
    n = len(seq)
    return [seq[i * n // k:(i + 1) * n // k] for i in range(k)]


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, Any]:
    """The committed reference table (``{key: entry}``)."""
    with open(path) as fh:
        return json.load(fh)["points"]


def generate(workload: str, seed: int,
             reference: Optional[Dict[str, Any]] = None) -> List[Dict[str, Any]]:
    """The point list of ``workload`` for ``seed`` (same seed, same list).

    The fuzz pool is stratified by each scenario's simulated event count
    at the seed commit, read from the reference table.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    rng = random.Random(f"hostbench:{workload}:{seed}")
    if workload == "bulk-exact":
        sizes = [rng.choice(s) for s in _strata(BULK_SIZES, BULK_POINTS)]
        points = [stream_point(n, i in BULK_TRACED) for i, n in enumerate(sizes)]
        # Size order, the same for every seed: which point follows a
        # traced one decides how much memory the allocator still holds
        # when the next traced point starts, and so the pass's peak.
        return points
    if workload == "sweep-flow":
        points = [pingpong_point(t, mtu, rng.choice(s))
                  for t, mtu in SWEEP_COMBOS
                  for s in _strata(SWEEP_GRID, SWEEP_STRATA)]
        points += [ANCHOR, BW_POINT]
    elif workload == "fuzz-lossy":
        reference = reference if reference is not None else load_reference()
        by_cost = sorted(
            range(FUZZ_POOL),
            key=lambda i: (reference[f"fuzz/{FUZZ_POOL_SEED}/{i}"]["events"], i))
        points = [fuzz_point(rng.choice(s)) for s in _strata(by_cost, FUZZ_POINTS)]
        points.append(ANCHOR)
    else:
        points = [collective_point(op, nb, mode, p)
                  for op, nb in COLLECTIVE_OPS for mode, p in COLLECTIVE_SHAPES]
        points.append(ANCHOR)
    rng.shuffle(points)
    return points


# ---------------------------------------------------------------------------
# running one point
# ---------------------------------------------------------------------------

class BuildCapture:
    """Times every system build and keeps the clusters of the current point.

    Installed for a whole run: wraps ``Cluster.__init__`` and
    ``World.__init__`` (what ``build_world`` runs) with a timer, so the
    set-up cost of points whose cluster is built inside a library call
    (``run_scenario``, ``collective_time``) is measured too.  Endpoint
    set-up of the ping-pong/stream points is timed through
    :meth:`timed_setup`.  Every point and set-up time is read from
    ``clock`` (ns), the run's host clock (thread CPU time by default).
    """

    def __init__(self, clock: Callable[[], int] = time.thread_time_ns) -> None:
        self.clock = clock
        self.clusters: List[Any] = []
        self.setup_ns = 0
        self._restore: List[Tuple[Any, Any]] = []

    def install(self) -> None:
        """Wrap the build entry points (undo with :meth:`uninstall`)."""
        from repro.cluster.cluster import Cluster
        from repro.mpi.world import World

        for cls, keep in ((Cluster, True), (World, False)):
            original = cls.__init__
            self._restore.append((cls, original))
            cls.__init__ = self._timed_init(original, keep)

    def uninstall(self) -> None:
        """Put the original constructors back."""
        while self._restore:
            cls, original = self._restore.pop()
            cls.__init__ = original

    def _timed_init(self, original: Callable, keep: bool) -> Callable:
        capture = self

        def __init__(obj, *args, **kwargs):
            t0 = capture.clock()
            original(obj, *args, **kwargs)
            capture.setup_ns += capture.clock() - t0
            if keep:
                capture.clusters.append(obj)

        return __init__

    def timed_setup(self, setup: Callable) -> Callable:
        """Wrap an endpoint-pair factory so its cost counts as set-up."""
        def timed(proc_a, proc_b):
            t0 = self.clock()
            try:
                return setup(proc_a, proc_b)
            finally:
                self.setup_ns += self.clock() - t0

        return timed

    def take(self) -> Tuple[List[Any], int]:
        """Clusters and set-up ns of the point just run; resets both."""
        clusters, setup_ns = self.clusters, self.setup_ns
        self.clusters, self.setup_ns = [], 0
        return clusters, setup_ns


def _simulate(point: Dict[str, Any], capture: BuildCapture) -> Dict[str, Any]:
    """Run ``point`` through the public APIs; its simulated result."""
    from repro.cluster import Cluster
    from repro.config import Topology, granada2003
    from repro.workloads import clic_pair, pingpong, stream, tcp_pair

    kind = point["kind"]
    if kind == "stream":
        cfg = granada2003(mtu=1500, trace=point["traced"]).with_flow_mode("off")
        cluster = Cluster(cfg, protocols=("clic",))
        probe = None
        if point["traced"]:
            from repro.obs import JourneyProbe, JourneyRecorder

            recorder = JourneyRecorder(cluster.env)
            cluster.tracer.journeys = recorder
            probe = JourneyProbe.install(recorder)
        try:
            res = stream(cluster, capture.timed_setup(clic_pair()),
                         point["nbytes"], messages=point["messages"])
        finally:
            if probe is not None:
                probe.uninstall()
        return {"elapsed_ns": res.elapsed_ns, "nbytes_total": res.nbytes_total}
    if kind == "pingpong":
        cfg = granada2003(mtu=point["mtu"]).with_flow_mode("auto")
        pair = clic_pair() if point["transport"] == "clic" else tcp_pair()
        res = pingpong(Cluster(cfg), capture.timed_setup(pair), point["nbytes"],
                       repeats=1, warmup=1)
        return {"rtt_ns": res.rtt_ns}
    if kind == "fuzz":
        from repro.validate import run_scenario

        report = run_scenario(point["spec"])
        stats = report["stats"]
        return {"final_now_ns": stats["final_now_ns"],
                "frames_offered": stats["frames_offered"],
                "frames_lost": stats["frames_lost"],
                "unfinished_procs": stats["unfinished_procs"],
                "violations": len(report["violations"])}
    from repro.workloads import collective_time

    cfg = granada2003(num_nodes=point["nodes"]).with_topology(
        Topology("fat-tree", **FAT_TREE))
    t_ns = collective_time(cfg, "clic", point["op"], point["nbytes"],
                           repeats=COLLECTIVE_REPEATS, collectives=point["mode"])
    return {"time_ns": t_ns}


#: conservation counter families summed over every cluster of a point
_FAMILIES = {
    "tx_frames": re.compile(r"^node\d+\.nic\d+\.tx_frames$"),
    "rx_frames": re.compile(r"^node\d+\.nic\d+\.rx_frames$"),
    "tx_bytes": re.compile(r"^node\d+\.nic\d+\.tx_bytes$"),
    "rx_bytes": re.compile(r"^node\d+\.nic\d+\.rx_bytes$"),
    "switch_forwarded": re.compile(r"^switch\d*\.forwarded$"),
    "coll_tx_frames": re.compile(r"^node\d+\.nic\d+\.coll\.tx_frames$"),
}


def family_sums(snapshot: Dict[str, Any],
                families: Dict[str, Any] = _FAMILIES) -> Dict[str, float]:
    """Sum the counters of a metrics snapshot by key family."""
    sums = {name: 0.0 for name in families}
    for key, value in snapshot.items():
        if isinstance(value, dict):
            continue
        for name, pattern in families.items():
            if pattern.match(key):
                sums[name] += value
    return sums


class PointRun:
    """The outcome of one point: result, conservation, cost, verdict."""

    __slots__ = ("point", "result", "conservation", "frames", "setup_s",
                 "wall_s", "error", "snapshots")

    def __init__(self, point: Dict[str, Any]):
        self.point = point
        self.result: Dict[str, Any] = {}
        self.conservation: Dict[str, float] = {}
        self.frames = 0.0
        self.setup_s = 0.0
        self.wall_s = 0.0
        #: why the point failed (None = passed)
        self.error: Optional[str] = None
        #: per-cluster metrics snapshots as canonical JSON (kept on request)
        self.snapshots: Optional[List[str]] = None

    def observed(self) -> Dict[str, Any]:
        """What the reference table stores for this point."""
        return {"result": self.result, "conservation": self.conservation}


def _observe(run: PointRun, capture: BuildCapture, keep_snapshots: bool,
             on_clusters: Optional[Callable[[List[Any]], None]]) -> None:
    """Read the finished point's clusters into ``run``."""
    from repro.obs import jsonable

    clusters, setup_ns = capture.take()
    run.setup_s = setup_ns / 1e9
    cons = {name: 0.0 for name in _FAMILIES}
    snaps = []
    for cluster in clusters:
        snap = cluster.metrics.snapshot()
        for name, value in family_sums(snap).items():
            cons[name] += value
        if keep_snapshots:
            snaps.append(json.dumps(jsonable(snap), sort_keys=True))
    cons["sim_now_ns"] = float(sum(c.env.now for c in clusters))
    run.conservation = cons
    run.frames = cons["tx_frames"]
    if keep_snapshots:
        run.snapshots = snaps
    if on_clusters is not None:
        on_clusters(clusters)


def run_point(point: Dict[str, Any], capture: BuildCapture,
              reference: Optional[Dict[str, Any]],
              keep_snapshots: bool = False,
              on_clusters: Optional[Callable[[List[Any]], None]] = None) -> PointRun:
    """Build, run and check one point, timing the whole of it.

    A point fails if it raises, if a fuzz scenario reports an invariant
    violation, or if its result departs from ``reference`` (skipped when
    ``reference`` is None, which is how the reference is recorded).
    ``on_clusters`` sees the point's clusters before they are dropped.
    The point's time ends after its garbage is collected, so collecting a
    simulation is charged to that simulation rather than to whichever
    later point the collector happens to interrupt.
    """
    run = PointRun(point)
    capture.take()
    t0 = capture.clock()
    try:
        run.result = _simulate(point, capture)
        _observe(run, capture, keep_snapshots, on_clusters)
        if run.result.get("violations"):
            run.error = f"{run.result['violations']} invariant violation(s)"
        elif reference is not None:
            run.error = compare(point, run.observed(), reference.get(point_key(point)))
    except Exception as exc:  # a point boundary: count it failed, keep going
        traceback.print_exc()
        run.error = f"raised {type(exc).__name__}: {exc}"
    capture.take()
    # Collect until a collection finds nothing: closing the suspended
    # simulation processes the first one frees leaves garbage of its own,
    # and memory a later point could reuse would otherwise stay taken.
    for _ in range(4):
        if not gc.collect():
            break
    run.wall_s = (capture.clock() - t0) / 1e9
    return run


def tolerant(point: Dict[str, Any]) -> bool:
    """True for flow_mode="auto" CLIC points (5% tolerance)."""
    if point["kind"] == "pingpong":
        return point["transport"] == "clic"
    if point["kind"] == "fuzz":
        spec = point["spec"]
        return spec["protocol"] == "clic" and spec.get("flow_mode") == "auto"
    return False


def compare(point: Dict[str, Any], observed: Dict[str, Any],
            entry: Optional[Dict[str, Any]]) -> Optional[str]:
    """Why ``observed`` departs from the reference entry (None if it does not)."""
    if entry is None:
        return f"no reference for {point_key(point)}"
    tol = FLOW_TOLERANCE if tolerant(point) else 0.0
    for section in ("result", "conservation"):
        want, got = entry[section], observed[section]
        if set(want) != set(got):
            return f"{section} fields {sorted(got)} != reference {sorted(want)}"
        for name, ref in want.items():
            value = got[name]
            if tol == 0.0:
                if value != ref:
                    return f"{section}.{name} = {value!r}, reference {ref!r}"
            elif abs(value - ref) > tol * abs(ref):
                return (f"{section}.{name} = {value!r}, reference {ref!r} "
                        f"(beyond {tol:.0%})")
    return None


# ---------------------------------------------------------------------------
# model error against the paper
# ---------------------------------------------------------------------------

def model_error_pct(runs: List[PointRun]) -> float:
    """Mean relative error (%) of a pass's headline figures vs the paper.

    * stream points: their mean bandwidth vs TXT-BW at MTU 1500 (450 Mb/s);
    * the 0 B CLIC MTU-1500 point: one-way latency vs TXT-LAT (36 us);
    * the 1 MB CLIC MTU-9000 point: bandwidth vs TXT-BW (600 Mb/s).

    fuzz-lossy and collectives-fabric carry only the latency point (their
    own figures have no paper counterpart and are unvalidated).
    """
    from repro.units import bandwidth_mbps

    stream_bw: List[float] = []
    figures: Dict[str, Tuple[float, float]] = {}
    for run in runs:
        point, result = run.point, run.result
        if run.error is not None:
            continue
        if point["kind"] == "stream":
            stream_bw.append(bandwidth_mbps(result["nbytes_total"], result["elapsed_ns"]))
        elif point == ANCHOR:
            figures["latency"] = (result["rtt_ns"] / 2 / 1000, PAPER_LATENCY_US)
        elif point == BW_POINT:
            figures["bw9000"] = (bandwidth_mbps(point["nbytes"], result["rtt_ns"] / 2),
                                 PAPER_BW_MBPS[9000])
    if stream_bw:
        figures["bw1500"] = (sum(stream_bw) / len(stream_bw), PAPER_BW_MBPS[1500])
    if not figures:
        return float("nan")
    return 100.0 * sum(abs(got - want) / want
                       for got, want in figures.values()) / len(figures)
