"""Per-layer host-time attribution for the traced run.

The benchmark wraps the public entry points of each layer (every
function defined on the classes listed in :data:`LAYERS`, plus a few
module-level functions) and records one span per call: site, start,
end and parent.  For a generator function, a span covers each
resumption of the returned generator, so simulated waiting is never
charged.  A layer's self time is the duration of its spans minus the
part their wrapped children cover; code that no wrapper covers is
charged to the nearest wrapped caller (ultimately the event loop,
``Environment.run``, which is why ``sim.core.self_s`` also holds the
bodies of the workload generators and the process machinery).

Spans stay in memory (four flat arrays) until the run ends; counts come
from the wrappers, ``repro.sim.profiled()``, ``cluster.metrics.snapshot()``
and ``env.flow.counters``.
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from points import family_sums

#: layer -> (module, selectors).  A selector is a class name (wrap every
#: function defined on it), ``Class.method``, or a module-level function
#: name (``*`` = every public function of the module).
LAYERS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("sim.core", "repro.sim.core", ("Environment.run",)),
    ("sim.resources", "repro.sim.resources",
     ("Resource", "PriorityResource", "PreemptiveResource", "Store")),
    ("sim.monitor", "repro.sim.monitor",
     ("Counters", "Trace", "BusyTracker", "IntervalStats")),
    ("sim.flowmode", "repro.sim.flowmode", ("FlowRoute", "FlowModeController")),
    ("hw.cpu", "repro.hw.cpu", ("Cpu",)),
    ("hw.memory", "repro.hw.memory", ("MemoryBus",)),
    ("hw.pci", "repro.hw.pci", ("PciBus",)),
    ("hw.link", "repro.hw.link", ("Channel", "Link")),
    ("hw.switch", "repro.hw.switch", ("SwitchPort", "Switch")),
    ("hw.fabric", "repro.hw.fabric", ("Fabric",)),
    ("hw.nic", "repro.hw.nic.base", ("Nic",)),
    ("hw.nic", "repro.hw.nic.interrupts", ("InterruptCoalescer",)),
    ("hw.nic.collective", "repro.hw.nic.collective", ("CollectiveEngine",)),
    ("oskernel", "repro.oskernel.kernel", ("Kernel",)),
    ("oskernel", "repro.oskernel.driver", ("VendorDriver",)),
    ("oskernel", "repro.oskernel.interrupts", ("BottomHalves", "IrqController")),
    ("oskernel", "repro.oskernel.membuf", ("BufferPool",)),
    ("oskernel", "repro.oskernel.process", ("UserProcess",)),
    ("protocols.clic", "repro.protocols.clic.module", ("ClicModule",)),
    ("protocols.clic", "repro.protocols.clic.api", ("ClicEndpoint",)),
    ("protocols.clic", "repro.protocols.clic.control", ("ClicControl",)),
    ("protocols.tcpip", "repro.protocols.tcpip.tcp",
     ("TcpConnection", "TcpLayer", "RenoCongestion")),
    ("protocols.tcpip", "repro.protocols.tcpip.ip", ("IpLayer",)),
    ("protocols.tcpip", "repro.protocols.tcpip.udp", ("UdpLayer",)),
    ("protocols.tcpip", "repro.protocols.tcpip.sockets", ("TcpSocket", "UdpSocket")),
    ("protocols.tcpip", "repro.protocols.tcpip.stack", ("TcpIpStack",)),
    ("protocols.reliability", "repro.protocols.reliability",
     ("WindowedSender", "OrderedReceiver", "RtoEstimator")),
    ("mpi", "repro.mpi.api", ("RankContext", "Request")),
    ("mpi", "repro.mpi.world", ("World",)),
    ("mpi", "repro.mpi.transports", ("ClicTransport", "TcpTransport")),
    ("mpi", "repro.mpi.collectives", ("*",)),
    ("faults", "repro.faults.inject",
     ("ChannelFaults", "UniformLossModel", "GilbertElliottModel")),
    ("obs.metrics", "repro.obs.metrics",
     ("Counter", "Gauge", "Histogram", "TimeSeries", "TimeSeriesSampler",
      "MetricsRegistry")),
    ("obs.span", "repro.obs.span", ("Span", "Tracer")),
    ("obs.journey", "repro.obs.journey", ("Journey", "JourneyRecorder", "JourneyProbe")),
    ("cluster", "repro.cluster.cluster", ("Cluster",)),
    ("cluster", "repro.cluster.node", ("Node",)),
    ("validate", "repro.validate.invariants", ("check_run",)),
)

#: dunder methods that are entry points rather than protocol plumbing
_DUNDERS = ("__init__", "__enter__", "__exit__")


class SpanLog:
    """Flat in-memory span store plus per-site call counts."""

    def __init__(self) -> None:
        self.sites: List[str] = []
        self.calls: List[int] = []
        self.site: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("q")
        self.end: array = array("q")
        #: index of the open span on top (-1 = none)
        self.stack: List[int] = [-1]
        #: resource requests already granted when request() returned
        self.granted = 0

    def add_site(self, layer: str, name: str) -> int:
        """Register a wrapped function; returns its site id."""
        self.sites.append(f"{layer}:{name}")
        self.calls.append(0)
        return len(self.sites) - 1

    def site_totals(self) -> Dict[str, Dict[str, float]]:
        """Per site: calls, inclusive and self seconds."""
        import numpy as np

        n = len(self.site)
        site = np.frombuffer(self.site, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        dur = (end - start).astype(np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = dur - child
        k = len(self.sites)
        incl = np.bincount(site, weights=dur, minlength=k)
        self_ns = np.bincount(site, weights=own, minlength=k)
        return {
            name: {"calls": self.calls[i], "incl_s": float(incl[i]) / 1e9,
                   "self_s": float(self_ns[i]) / 1e9}
            for i, name in enumerate(self.sites)
        }


def _plain_wrapper(fn: Callable, sid: int, log: SpanLog,
                   after: Optional[Callable[[Any], None]] = None) -> Callable:
    site, parent, start, end, stack, calls = (
        log.site, log.parent, log.start, log.end, log.stack, log.calls)
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        calls[sid] += 1
        idx = len(site)
        site.append(sid)
        parent.append(stack[-1])
        end.append(0)
        stack.append(idx)
        start.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            end[idx] = clock()
            stack.pop()
        if after is not None:
            after(result)
        return result

    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def _generator_wrapper(fn: Callable, sid: int, log: SpanLog) -> Callable:
    site, parent, start, end, stack, calls = (
        log.site, log.parent, log.start, log.end, log.stack, log.calls)
    clock = time.perf_counter_ns

    def drive(gen):
        value = None
        error: Optional[BaseException] = None
        while True:
            idx = len(site)
            site.append(sid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                if error is None:
                    yielded = gen.send(value)
                else:
                    exc, error = error, None
                    yielded = gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                end[idx] = clock()
                stack.pop()
            try:
                value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                error, value = exc, None

    def wrapper(*args, **kwargs):
        calls[sid] += 1
        inner = fn(*args, **kwargs)
        outer = drive(inner)
        # Processes take their name from the generator.
        outer.__name__ = inner.__name__
        outer.__qualname__ = inner.__qualname__
        return outer

    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


class LayerTracer:
    """Installs the span wrappers for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self._undo: List[Tuple[Any, str, Any]] = []

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        sid = self.log.add_site(layer, name)
        if inspect.isgeneratorfunction(fn):
            return _generator_wrapper(fn, sid, self.log)
        after = None
        if layer == "sim.resources" and fn.__name__ == "request":
            log = self.log

            def after(req):
                log.granted += req.triggered
        return _plain_wrapper(fn, sid, self.log, after)

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap_class(self, layer: str, cls: type, only: Optional[str]) -> None:
        for attr, value in list(vars(cls).items()):
            if only is not None and attr != only:
                continue
            if attr.startswith("__") and attr not in _DUNDERS:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(value, (staticmethod, classmethod)):
                new = type(value)(self._wrap(layer, name, value.__func__))
            elif inspect.isfunction(value):
                new = self._wrap(layer, name, value)
            else:
                continue
            self._patch(cls, attr, new)

    def _wrap_function(self, layer: str, module: Any, fname: str) -> None:
        original = getattr(module, fname)
        new = self._wrap(layer, fname, original)
        # Rebind every module that imported the function by name too.
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, fname, None) is original):
                self._patch(mod, fname, new)

    def __enter__(self) -> "LayerTracer":
        for layer, modname, selectors in LAYERS:
            module = importlib.import_module(modname)
            for selector in selectors:
                if selector == "*":
                    for fname, fn in list(vars(module).items()):
                        if (inspect.isfunction(fn) and fn.__module__ == modname
                                and not fname.startswith("_")):
                            self._wrap_function(layer, module, fname)
                elif "." in selector:
                    cls_name, method = selector.split(".")
                    self._wrap_class(layer, getattr(module, cls_name), method)
                elif inspect.isclass(getattr(module, selector)):
                    self._wrap_class(layer, getattr(module, selector), None)
                else:
                    self._wrap_function(layer, module, selector)
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: name -> (unit, better); the order the traced run prints them in
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sim.core.events_per_frame": ("events/frame", "lower"),
    "sim.core.process_spawns_per_frame": ("spawns/frame", "lower"),
    "sim.core.timer_events": ("count", "lower"),
    "sim.core.queue_high_water": ("count", "lower"),
    "sim.core.self_s": ("s", "lower"),
    "sim.resources.requests_per_frame": ("requests/frame", "lower"),
    "sim.resources.uncontended_share": ("ratio", "higher"),
    "sim.resources.self_s": ("s", "lower"),
    "sim.monitor.counter_adds": ("count", "lower"),
    "sim.monitor.self_s": ("s", "lower"),
    "sim.flowmode.batched_share": ("ratio", "higher"),
    "sim.flowmode.fallbacks": ("count", "lower"),
    "sim.flowmode.self_s": ("s", "lower"),
    "hw.cpu.execute_calls": ("count", "lower"),
    "hw.cpu.self_s": ("s", "lower"),
    "hw.memory.self_s": ("s", "lower"),
    "hw.pci.self_s": ("s", "lower"),
    "hw.link.self_s": ("s", "lower"),
    "hw.switch.self_s": ("s", "lower"),
    "hw.switch.forwarded": ("count", "lower"),
    "hw.nic.self_s": ("s", "lower"),
    "hw.fabric.trunk_frames": ("count", "lower"),
    "hw.nic.collective.frames": ("count", "lower"),
    "hw.nic.collective.self_s": ("s", "lower"),
    "oskernel.syscalls_per_msg": ("syscalls/msg", "lower"),
    "oskernel.irqs_per_frame": ("irqs/frame", "lower"),
    "oskernel.bh_runs": ("count", "lower"),
    "oskernel.copy_bytes": ("B", "lower"),
    "oskernel.self_s": ("s", "lower"),
    "protocols.clic.self_s": ("s", "lower"),
    "protocols.clic.acks_per_pkt": ("acks/pkt", "lower"),
    "protocols.tcpip.self_s": ("s", "lower"),
    "protocols.reliability.self_s": ("s", "lower"),
    "protocols.reliability.retx_share": ("ratio", "lower"),
    "mpi.messages": ("count", "lower"),
    "mpi.self_s": ("s", "lower"),
    "faults.decisions": ("count", "lower"),
    "faults.frames_lost": ("count", "lower"),
    "faults.self_s": ("s", "lower"),
    "obs.metrics.self_s": ("s", "lower"),
    "obs.span.spans": ("count", "lower"),
    "obs.span.self_s": ("s", "lower"),
    "obs.journey.self_s": ("s", "lower"),
    "cluster.builds": ("count", "lower"),
    "cluster.build_s": ("s", "lower"),
    "validate.check_s": ("s", "lower"),
    "validate.violations": ("count", "lower"),
    "trace_overhead": ("ratio", "lower"),
}

#: snapshot counter families the per-layer metrics read
COUNTER_FAMILIES = {name: re.compile(pattern) for name, pattern in {
    "irqs": r"^node\d+\.nic\d+\.irqs_asserted$",
    "bh_runs": r"^node\d+\.kernel\.bh\.executed$",
    "copy_bytes": r"^node\d+\.kernel\.copy_bytes$",
    "syscalls": r"^node\d+\.kernel\.syscalls$",
    "clic_msgs": r"^node\d+\.clic\.msgs_sent$",
    "clic_pkts": r"^node\d+\.clic\.pkts_tx$",
    "clic_acks": r"^node\d+\.clic\.acks_tx$",
    "pkts_retx": r"^node\d+\.clic\.pkts_retx$",
    "registered": r"^node\d+\.clic\.tx\d+\.registered$",
    "switch_forwarded": r"^switch\d*\.forwarded$",
    "coll_frames": r"^node\d+\.nic\d+\.coll\.tx_frames$",
}.items()}


class ClusterCounts:
    """Sums the counters of every cluster the traced pass builds.

    Snapshots are folded in after the pass, so reading them is not
    charged to ``obs.metrics``.
    """

    def __init__(self) -> None:
        self.sums: Dict[str, float] = {k: 0.0 for k in COUNTER_FAMILIES}
        self.sums.update(frames_batched=0.0, fallbacks=0.0, trunk_frames=0.0,
                         frames_lost=0.0, program_spans=0.0)

    def add_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold in one cluster's metrics snapshot."""
        for name, value in family_sums(snapshot, COUNTER_FAMILIES).items():
            self.sums[name] += value

    def add_clusters(self, clusters: List[Any]) -> None:
        """Fold in what the snapshot lacks, from one finished point."""
        for cluster in clusters:
            flow = cluster.env.flow
            if flow is not None:
                self.sums["frames_batched"] += flow.counters.get("frames_batched", 0)
                self.sums["fallbacks"] += sum(
                    v for k, v in flow.counters.items() if k.startswith("fallback_"))
            self.sums["trunk_frames"] += sum(
                s["frames"] for s in cluster.fabric.uplink_stats().values())
            self.sums["frames_lost"] += sum(
                chan.counters.get("frames_lost") for _, chan in cluster.channels)
            self.sums["program_spans"] += sum(
                1 for s in cluster.tracer.spans if s.end_ns is not None)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(log: SpanLog, profile: Dict[str, Any], counts: ClusterCounts,
                  frames: float, violations: float, trace_overhead: float,
                  time_scale: float = 1.0) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced pass.

    Span-derived seconds are multiplied by ``time_scale`` (the pass's
    calibration, see ``speed.py``).
    """
    sites = log.site_totals()
    layer_self: Dict[str, float] = {}
    for name, tot in sites.items():
        layer = name.split(":", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + tot["self_s"]

    def calls(*names: str) -> float:
        return float(sum(sites.get(n, {"calls": 0})["calls"] for n in names))

    requests = calls(*(f"sim.resources:{c}.request"
                       for c in ("Resource", "PriorityResource", "PreemptiveResource")))
    per_type = profile.get("per_type", {})
    s = counts.sums
    messages = s["clic_msgs"] + calls("protocols.tcpip:TcpSocket.send")
    cluster_init = sites.get("cluster:Cluster.__init__", {"incl_s": 0.0})
    check = sites.get("validate:check_run", {"incl_s": 0.0})
    out = {
        "sim.core.events_per_frame": _ratio(profile["events_processed"], frames),
        "sim.core.process_spawns_per_frame": _ratio(per_type.get("_Initialize", 0), frames),
        "sim.core.timer_events": float(per_type.get("TimerHandle", 0)),
        "sim.core.queue_high_water": float(profile["queue_high_water"]),
        "sim.resources.requests_per_frame": _ratio(requests, frames),
        "sim.resources.uncontended_share": _ratio(log.granted, requests),
        "sim.monitor.counter_adds": calls("sim.monitor:Counters.add"),
        "sim.flowmode.batched_share": _ratio(s["frames_batched"], frames),
        "sim.flowmode.fallbacks": s["fallbacks"],
        "hw.cpu.execute_calls": calls("hw.cpu:Cpu.execute"),
        "hw.switch.forwarded": s["switch_forwarded"],
        "hw.fabric.trunk_frames": s["trunk_frames"],
        "hw.nic.collective.frames": s["coll_frames"],
        "oskernel.syscalls_per_msg": _ratio(s["syscalls"], messages),
        "oskernel.irqs_per_frame": _ratio(s["irqs"], frames),
        "oskernel.bh_runs": s["bh_runs"],
        "oskernel.copy_bytes": s["copy_bytes"],
        "protocols.clic.acks_per_pkt": _ratio(s["clic_acks"], s["clic_pkts"]),
        "protocols.reliability.retx_share": _ratio(s["pkts_retx"], s["registered"]),
        "mpi.messages": calls("mpi:ClicTransport.send", "mpi:TcpTransport.send"),
        "faults.decisions": calls("faults:ChannelFaults.decide"),
        "faults.frames_lost": s["frames_lost"],
        "obs.span.spans": s["program_spans"],
        "cluster.builds": calls("cluster:Cluster.__init__"),
        "cluster.build_s": cluster_init["incl_s"] * time_scale,
        "validate.check_s": check["incl_s"] * time_scale,
        "validate.violations": float(violations),
        "trace_overhead": trace_overhead,
    }
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = layer_self.get(name[: -len(".self_s")], 0.0) * time_scale
    return {name: out[name] for name in PER_LAYER}
