"""Host-speed probe: host seconds calibrated against the machine's speed.

On a shared virtual machine the same pure-Python work takes up to twice
as long from one minute to the next (the host shares the physical cores
with other guests, so the instructions per second of the benchmark's
vCPU change), and within a minute it switches between fast and slow
spells lasting fractions of a second.  Medians over passes cannot remove
a slow spell that covers a whole run.

Host time is the benchmark thread's CPU time (``time.thread_time_ns``):
for the single-threaded, CPU-bound simulator it equals wall time on a
quiet machine, and it leaves out the time the thread waits for a CPU
(other processes, or a vCPU the hypervisor has descheduled).  What CPU
time cannot leave out is a CPU that runs slower, so the probe samples
the speed while the simulator runs: a profiling-timer signal every
:data:`PROBE_INTERVAL_S` seconds of CPU time interrupts the simulation
between two bytecodes and times :data:`PROBE_EVENTS` events of a fixed
toy discrete-event simulation (:class:`ProbeModel`, the benchmark's own
code, not the simulator's).  The samples are uniform in CPU time, so
their mean *speed* (the mean of 1 / probe time) is the machine's mean
speed over the interval they cover, and

    calibrated seconds = measured seconds x REFERENCE_PROBE_NS x mean(1 / probe ns)

is what the measured work would have taken at the reference speed.  The
probe's own time is left out of every measurement (:meth:`clock_ns`).
It reads no simulator state, so it cannot change the simulation's
results, and it leaves no object behind: a sample ends by putting the
model back in its starting state, made of objects allocated before the
run.  An object the probe left alive between samples would sit in the
allocator's arenas among the simulator's objects and keep those arenas
from being returned to the system when the simulator frees its own, so
peak memory would depend on where the signals happened to land.  The
model's resident memory is measured when it is made
(:attr:`SpeedProbe.footprint_mb`), so peak-memory figures can leave it
out.
"""

from __future__ import annotations

import heapq
import resource
import signal
import statistics
import time
from array import array
from typing import Any, Generator, List

#: CPU-time interval between two probe samples (s)
PROBE_INTERVAL_S = 0.02
#: events of the probe model per sample (~0.5-1 ms)
PROBE_EVENTS = 250
#: entries of the probe model's keyed table (a power of two): with the
#: rest of the model about 7 MB, more than a core's private caches hold
PROBE_TABLE = 1 << 16
#: processes (events in flight) and nodes of the probe model
PROBE_PROCESSES = 512
PROBE_NODES = 1024
#: probe time at the reference speed (ns).  A scale only (every
#: calibrated figure is proportional to it), chosen so that calibrated
#: times come out near the plain ones of a quiet 2-core Intel Xeon VM
#: under Python 3.11.
REFERENCE_PROBE_NS = 400_000


class _Event:
    __slots__ = ("time", "process", "index")

    def __init__(self, at: float, process: Generator, index: int) -> None:
        self.time = at
        self.process = process
        self.index = index

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


class _Node:
    __slots__ = ("count", "busy", "peer")

    def __init__(self) -> None:
        self.count = 0
        self.busy = 0.0
        self.peer: Any = None


class ProbeModel:
    """A fixed toy discrete-event simulation: the probe's workload.

    It does what the simulator does, in miniature: pops the earliest
    event off a heap of slotted objects, resumes that event's generator,
    which updates slotted node objects and reads a keyed table, and
    pushes the event back at its next time.  :meth:`reset` puts every
    object it changed back to a value allocated when the model was made.
    """

    def __init__(self) -> None:
        self.table = {i * 7919: float(i) for i in range(PROBE_TABLE)}
        self.keys = list(self.table)
        self.delays = tuple(float(1 + k) for k in range(16))
        self.nodes = [_Node() for _ in range(PROBE_NODES)]
        for i, node in enumerate(self.nodes):
            node.peer = self.nodes[(i * 37 + 1) % PROBE_NODES]
        self.heap: List[_Event] = []
        for j in range(PROBE_PROCESSES):
            process = self._process()
            next(process)
            self.heap.append(_Event(float(j), process, j))
        heapq.heapify(self.heap)
        self._start = tuple(self.heap)
        self._start_times = tuple(event.time for event in self._start)

    def _process(self) -> Generator[float, int, None]:
        table, keys, nodes, delays = self.table, self.keys, self.nodes, self.delays
        mask, width = len(keys) - 1, len(nodes)
        delay = delays[0]
        while True:
            index = yield delay
            i = (index * 1103515245 + 12345) & mask
            node = nodes[i % width]
            node.count += 1
            node.peer.busy = node.busy + table[keys[i]] * 1e-9
            delay = delays[i & 15]
            del i, node  # hold nothing new across the suspension

    def run(self, events: int) -> None:
        """Process ``events`` events."""
        heap, pop, push = self.heap, heapq.heappop, heapq.heappush
        for _ in range(events):
            event = pop(heap)
            event.time += event.process.send(event.index)
            push(heap, event)

    def reset(self) -> None:
        """Put the model back in its starting state."""
        for event, start in zip(self._start, self._start_times):
            event.time = start
        for node in self.nodes:
            node.count = 0
            node.busy = 0.0
        self.heap[:] = self._start


def resident_mb() -> float:
    """Resident memory of this process now (MB), from /proc/self/statm."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


class SpeedProbe:
    """Samples the host's speed on a timer signal while it is running.

    Use as a context manager around the measured work; read times with
    :meth:`clock_ns`, and turn the samples taken since :meth:`mark` into
    a calibration factor with :meth:`factor`.
    """

    def __init__(self, interval_s: float = PROBE_INTERVAL_S,
                 events: int = PROBE_EVENTS) -> None:
        self.interval_s = interval_s
        self.events = events
        #: probe time of every sample (ns), in the order taken
        self.samples = array("q")
        #: host time spent inside the probe (ns), left out of clock_ns();
        #: an array, so that updating it allocates no object
        self._spent = array("q", [0])
        before = resident_mb()
        self.model = ProbeModel()
        #: resident memory the probe's model added (MB)
        self.footprint_mb = resident_mb() - before
        self._previous: Any = None
        self._busy = False

    @property
    def spent_ns(self) -> int:
        """Host time spent inside the probe so far (ns)."""
        return self._spent[0]

    def _tick(self, signum: int, frame: Any) -> None:
        if self._busy:  # a signal that lands inside a sample is dropped
            return
        self._busy = True
        t0 = time.thread_time_ns()
        self.model.run(self.events)
        t1 = time.thread_time_ns()
        self.model.reset()
        self.samples.append(t1 - t0)
        self._spent[0] += time.thread_time_ns() - t0
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def clock_ns(self) -> int:
        """Thread CPU time (ns) minus the time spent in the probe so far."""
        spent = self._spent
        while True:
            before = spent[0]
            now = time.thread_time_ns()
            if spent[0] == before:  # no sample completed in between
                return now - before

    def mark(self) -> int:
        """Position in :attr:`samples`, to pass to :meth:`factor` later."""
        return len(self.samples)

    def factor(self, since: int) -> float:
        """Calibration factor of the samples taken since ``since``.

        Multiply a time measured over the same interval by it to get the
        time at the reference speed.  An interval too short to hold a
        sample is calibrated by one sample taken now.
        """
        samples = self.samples[since:]
        if not samples:
            t0 = time.thread_time_ns()
            self.model.run(self.events)
            samples = [time.thread_time_ns() - t0]
            self.model.reset()
        return REFERENCE_PROBE_NS * statistics.fmean(1.0 / s for s in samples)

    def median_ns(self) -> float:
        """Median probe time of the run (a diagnostic)."""
        return float(statistics.median(self.samples)) if self.samples else float("nan")
