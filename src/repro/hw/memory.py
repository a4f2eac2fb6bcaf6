"""Main-memory subsystem.

Models the cost of CPU-driven copies (the "1-copy" in the paper's
vocabulary) and provides a contended bus for non-CPU engines.  A CPU
memcpy is charged *on the CPU* (the processor is busy moving the bytes —
this is the very resource drain the paper's 0-copy work removes) while
also holding the memory bus so concurrent DMA observes the contention.
"""

from __future__ import annotations

from typing import Generator

from ..config import MemoryParams
from ..sim import BusyTracker, Counters, Environment, Resource

__all__ = ["MemoryBus"]


class _ScheduledGrantBus(Resource):
    """The memory bus's resource: every grant goes through the event queue.

    A CPU copy requests the CPU as soon as it holds the bus.  An inline
    bus grant would make that CPU request at once, ahead of CPU requests
    made later in the same instant that a scheduled grant lets in first,
    and so reorder same-time CPU work and move simulated numbers.
    """

    inline_grant = False


class MemoryBus:
    """Shared memory bandwidth.

    Parameters
    ----------
    env:
        Simulation environment.
    params:
        Bandwidth/setup costs.
    """

    def __init__(self, env: Environment, params: MemoryParams, name: str = "mem"):
        self.env = env
        self.params = params
        self.name = name
        self._bus = _ScheduledGrantBus(env, capacity=1, name=name)
        self.busy = BusyTracker()
        self.counters = Counters()

    def copy_time(self, nbytes: int, setups: int = 1) -> float:
        """Time for ``setups`` back-to-back CPU memcpys totalling ``nbytes``."""
        if nbytes < 0:
            raise ValueError("negative copy size")
        if setups < 1:
            raise ValueError("setups must be >= 1")
        return self.params.copy_setup_ns * setups + nbytes / self.params.copy_bw_Bps * 1e9

    def cpu_copy(self, cpu, nbytes: int, priority: int, label: str = "memcpy",
                 setups: int = 1) -> Generator:
        """Copy ``nbytes`` using the CPU (charges CPU time + bus occupancy).

        ``setups`` counts the per-copy setup costs charged in one bus
        hold: 1 normally, ``k`` when a flow-mode train batches ``k``
        fragment copies back to back.
        """
        duration = self.copy_time(nbytes, setups)
        with self._bus.request() as grant:
            yield grant
            self.busy.acquire(self.env.now)
            try:
                yield from cpu.execute(duration, priority, label=label)
            finally:
                self.busy.release(self.env.now)
        self.counters.add("cpu_copies", setups)
        self.counters.add("cpu_copy_bytes", nbytes)

    def engine_transfer(self, nbytes: int, label: str = "dma") -> Generator:
        """A non-CPU engine (NIC DMA) crossing the memory bus.

        The PCI bus is the slower segment in this machine, so the transfer
        *time* is charged there; this call only accounts occupancy so
        utilization reports include DMA traffic.
        """
        with self._bus.request() as grant:
            yield grant
            self.busy.acquire(self.env.now)
            try:
                # Occupies the bus for the bytes' memory-side time.
                duration = nbytes / self.params.copy_bw_Bps * 1e9
                yield self.env.timeout(duration)
            finally:
                self.busy.release(self.env.now)
        self.counters.add(f"{label}_bytes", nbytes)

    def utilization(self) -> float:
        """Busy fraction of the memory bus since time zero."""
        now = self.env.now
        if now <= 0:
            return 0.0
        return self.busy.busy_time(now) / now
