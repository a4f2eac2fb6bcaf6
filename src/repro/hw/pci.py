"""PCI bus model.

Section 2 of the paper singles out the 33 MHz / 32-bit PCI bus as the
emerging bottleneck of the gigabit-era communication path: theoretical
133 MB/s, real DMA efficiency well below that, and "delays of
microseconds" per transaction (PCI 2.1 arbitration).  Every byte that
moves between host memory and the NIC crosses this bus exactly once per
copy — which is why copy-count is the paper's central design axis.

The bus is a single-owner resource; a DMA transfer holds it for
``transaction_setup + bytes / effective_bw``.  Host programmed I/O
(doorbell writes, polling reads across the bus, as in the VIA
discussion of Section 3.2(b)) are modeled as small transactions too.
"""

from __future__ import annotations

from typing import Dict, Generator, Tuple

from ..config import PciParams
from ..sim import BusyTracker, Counters, Environment, PriorityResource

__all__ = ["PciBus"]


class PciBus:
    """A 33 MHz / 32-bit PCI bus shared by all devices on a node."""

    def __init__(self, env: Environment, params: PciParams, name: str = "pci"):
        self.env = env
        self.params = params
        self.name = name
        self._bus = PriorityResource(env, capacity=1)
        self.busy = BusyTracker()
        self.counters = Counters()
        #: label -> its (``*_transactions``, ``*_bytes``) counter names
        self._dma_names: Dict[str, Tuple[str, str]] = {}

    def transfer_time(self, nbytes: int, transactions: int = 1) -> float:
        """Bus-held time for ``transactions`` DMA setups moving ``nbytes``.

        A flow-mode train burst charges ``transactions`` descriptor
        setups plus the batch bytes in one bus hold — the exact sum of
        the per-frame transactions it replaces.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if transactions < 1:
            raise ValueError("transactions must be >= 1")
        return (
            self.params.transaction_setup_ns * transactions
            + nbytes / self.params.effective_bw_Bps * 1e9
        )

    def dma(self, nbytes: int, priority: int = 5, label: str = "dma",
            transactions: int = 1) -> Generator:
        """Perform a bus-master DMA burst of ``nbytes``.

        ``transactions`` counts the descriptor setups charged (and
        tallied) for the burst: 1 for an ordinary frame, ``k`` when a
        flow-mode train moves ``k`` frames' bytes in one bus hold.
        """
        duration = self.transfer_time(nbytes, transactions)
        with self._bus.request(priority=priority) as grant:
            yield grant
            self.busy.acquire(self.env.now)
            try:
                yield self.env.timeout(duration)
            finally:
                self.busy.release(self.env.now)
        names = self._dma_names.get(label)
        if names is None:
            names = self._dma_names[label] = (f"{label}_transactions", f"{label}_bytes")
        self.counters.add(names[0], transactions)
        self.counters.add(names[1], nbytes)

    def pio(self, priority: int = 0, label: str = "pio") -> Generator:
        """One programmed-I/O access (doorbell write / status read)."""
        with self._bus.request(priority=priority) as grant:
            yield grant
            self.busy.acquire(self.env.now)
            try:
                yield self.env.timeout(self.params.transaction_setup_ns)
            finally:
                self.busy.release(self.env.now)
        self.counters.add(f"{label}_accesses")

    def utilization(self) -> float:
        """Busy fraction of the bus since time zero."""
        now = self.env.now
        if now <= 0:
            return 0.0
        return self.busy.busy_time(now) / now
