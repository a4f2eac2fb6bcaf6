"""One cluster node: hardware + OS + protocol stacks, assembled.

A node owns a CPU, a memory bus, a PCI bus, one or more Gigabit Ethernet
NICs (more than one = channel bonding, §5), the kernel, one vendor
driver per NIC, and the protocol engines (CLIC module and the TCP/IP
stack — they coexist, demuxed by ethertype, exactly as a real CLIC node
still runs TCP/IP for everything else).
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..config import LinkParams, NodeConfig
from ..hw import Cpu, MemoryBus, PciBus
from ..hw.nic import MacAddress, Nic
from ..obs import MetricsRegistry, Tracer
from ..oskernel import Kernel, UserProcess, VendorDriver
from ..sim import Environment

__all__ = ["Node", "mac_for"]

#: MACs are assigned by convention so any node can address any other
#: without a resolution protocol (the paper's closed-cluster assumption).
_MACS_PER_NODE = 16


def mac_for(node_id: int, channel: int = 0) -> MacAddress:
    """The MAC of ``node_id``'s ``channel``-th NIC."""
    if not 0 <= channel < _MACS_PER_NODE:
        raise ValueError(f"channel {channel} out of range")
    return MacAddress(node_id * _MACS_PER_NODE + channel + 1)


class Node:
    """A workstation in the cluster."""

    def __init__(
        self,
        env: Environment,
        cfg: NodeConfig,
        link_params: LinkParams,
        node_id: int,
        name: str = "",
        rx_mode: str = "irq-pull",
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.env = env
        self.cfg = cfg
        self.link_params = link_params
        self.node_id = node_id
        self.name = name or f"node{node_id}"
        self.rx_mode = rx_mode

        self.cpu = Cpu(env, cfg.cpu, name=f"{self.name}.cpu")
        self.memory = MemoryBus(env, cfg.memory, name=f"{self.name}.mem")
        self.pci = PciBus(env, cfg.pci, name=f"{self.name}.pci")
        self.kernel = Kernel(
            env, cfg.kernel, self.cpu, self.memory, name=f"{self.name}.kernel",
            tracer=tracer, metrics=metrics,
        )
        #: the node's span tracer / metrics registry (shared cluster-wide
        #: when built by Cluster; private otherwise)
        self.tracer = self.kernel.tracer
        self.metrics = self.kernel.metrics
        self.nics: List[Nic] = []
        self.drivers: List[VendorDriver] = []
        for ch in range(cfg.nic_count):
            nic = Nic(
                env,
                cfg.nic,
                link_params,
                self.pci,
                mac_for(node_id, ch),
                name=f"{self.name}.nic{ch}",
                rx_deliver=rx_mode,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            self.nics.append(nic)
            self.drivers.append(
                VendorDriver(self.kernel, nic, cfg.driver, name=f"{self.name}.eth{ch}")
            )
        self.processes: List[UserProcess] = []
        # Protocol engines are attached by the cluster builder:
        self.clic = None
        self.tcp = None
        self.gamma = None
        self.via = None

    # -- protocol-facing helpers ----------------------------------------------
    def mtu(self) -> int:
        """Effective MTU of this node's (first) NIC."""
        return self.nics[0].params.effective_mtu()

    def nic_supports_sg(self) -> bool:
        """True when the NIC can scatter/gather from user pages."""
        return self.nics[0].params.supports_sg

    def mac_of(self, node_id: int, channel: int = 0) -> MacAddress:
        """MAC address of a peer node's NIC on the given channel."""
        return mac_for(node_id, channel)

    # -- applications --------------------------------------------------------
    def spawn(self, name: str = "") -> UserProcess:
        """Create a user process on this node."""
        proc = UserProcess(self, name=name)
        self.processes.append(proc)
        return proc

    def __repr__(self) -> str:
        return f"<Node {self.name} nics={len(self.nics)}>"
