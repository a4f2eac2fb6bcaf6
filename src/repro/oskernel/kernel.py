"""The operating-system kernel of one node.

CLIC's thesis (versus VIA/U-Net-style user-level networking) is that the
OS *should* stay on the communication path — the trick is making its
mediation cheap.  This class models exactly the mechanisms whose costs
the paper itemizes:

* **system calls** — INT 80h entry/exit (~0.65 µs round trip) wrapping
  every CLIC/TCP API call, with the scheduler consulted on return
  (§3.2(a): CLIC deliberately keeps the scheduler in the loop; GAMMA's
  lightweight traps skip it — both are modeled);
* **blocking and wake-up** — a process waiting in ``recv`` costs a
  context switch out, and a scheduler pass plus context switch back in
  when the message arrives;
* **interrupts and bottom halves** — via :mod:`repro.oskernel.interrupts`;
* **data movement** — ``copy_*`` helpers charging the CPU+memory bus, and
  a protocol-handler registry that the driver demuxes received frames
  into (by ethertype), either through a bottom half (default) or
  directly from interrupt context (Figure 8b improvement).
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional

from ..config import KernelParams, MemoryParams
from ..hw.cpu import PRIO_IRQ, PRIO_KERNEL, PRIO_SOFTIRQ, PRIO_USER, Cpu
from ..hw.memory import MemoryBus
from ..obs import MetricsRegistry, Tracer
from ..sim import Counters, Environment, Event
from .interrupts import BottomHalves, IrqController

__all__ = ["Kernel"]


class Kernel:
    """OS services for one node."""

    def __init__(
        self,
        env: Environment,
        params: KernelParams,
        cpu: Cpu,
        memory: MemoryBus,
        name: str = "kernel",
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.env = env
        self.params = params
        self.cpu = cpu
        self.memory = memory
        self.name = name
        #: span tracer; shared cluster-wide when supplied, a disabled
        #: private one otherwise
        self.tracer = tracer if tracer is not None else Tracer(env)
        #: typed metrics registry (counters/gauges/histograms)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.counters = Counters(registry=self.metrics, prefix=f"{name}.")
        self.irq = IrqController(env, cpu, params, name=f"{name}.irq")
        self.bottom_halves = BottomHalves(
            env, cpu, params, name=f"{name}.bh", metrics=self.metrics
        )
        #: ethertype -> generator factory taking (skbuff) — protocol rx entry
        self.protocol_handlers: Dict[int, Callable] = {}

    # ------------------------------------------------------------------
    # syscall mechanics
    # ------------------------------------------------------------------
    def syscall(self, body: Generator, label: str = "syscall") -> Generator:
        """Run ``body`` inside a full system call.

        Charges mode-switch entry, runs the body at kernel priority (the
        body itself charges its own CPU/bus costs), charges the exit and —
        per CLIC's design — a scheduler pass on return to user mode.
        """
        self.counters.add("syscalls")
        t0 = self.env.now
        span = self.tracer.begin(self.name, "syscall", label=label)
        self.tracer.instant(self.name, "syscall_enter", label=label)
        yield from self.cpu.execute(self.params.syscall_enter_ns, PRIO_KERNEL, label="sys_enter")
        result = yield from body
        yield from self.cpu.execute(self.params.syscall_exit_ns, PRIO_KERNEL, label="sys_exit")
        if self.params.scheduler_on_syscall_return:
            yield from self.cpu.scheduler_pass(PRIO_KERNEL)
        self.tracer.instant(self.name, "syscall_exit", label=label)
        span.end()
        self.metrics.histogram(f"{self.name}.syscall_ns").record(self.env.now - t0)
        return result

    def lightweight_call(self, body: Generator, label: str = "lwcall") -> Generator:
        """GAMMA-style lightweight trap: minimal switch, no scheduler."""
        self.counters.add("lightweight_calls")
        yield from self.cpu.execute(self.params.lightweight_syscall_ns, PRIO_KERNEL, label="lw_enter")
        result = yield from body
        yield from self.cpu.execute(self.params.lightweight_syscall_ns / 2, PRIO_KERNEL, label="lw_exit")
        return result

    # ------------------------------------------------------------------
    # blocking / waking
    # ------------------------------------------------------------------
    def block_on(self, event: Event, label: str = "block") -> Generator:
        """Put the calling process to sleep until ``event`` fires.

        Charges the context switch away now and the scheduler pass +
        context switch back when woken; returns the event's value.
        """
        self.counters.add("blocks")
        t0 = self.env.now
        span = self.tracer.begin(self.name, "blocked", label=label)
        self.tracer.instant(self.name, "block", label=label)
        yield from self.cpu.context_switch(PRIO_KERNEL)
        value = yield event
        yield from self.cpu.scheduler_pass(PRIO_KERNEL)
        yield from self.cpu.context_switch(PRIO_KERNEL)
        self.tracer.instant(self.name, "wake", label=label)
        span.end()
        self.metrics.histogram(f"{self.name}.block_ns").record(self.env.now - t0)
        return value

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------
    def copy_user_to_system(self, nbytes: int, priority: int = PRIO_KERNEL,
                            setups: int = 1) -> Generator:
        """CPU copy from user buffer into kernel memory (the "1-copy").

        ``setups`` batches a flow-mode train's per-fragment copies into
        one bus hold charging ``setups`` copy-setup costs.
        """
        self.counters.add("copies_user_to_system", setups)
        self.counters.add("copy_bytes", nbytes)
        yield from self.memory.cpu_copy(self.cpu, nbytes, priority, label="u2s",
                                        setups=setups)

    def copy_system_to_user(self, nbytes: int, priority: int = PRIO_KERNEL,
                            setups: int = 1) -> Generator:
        """CPU copy from kernel memory to the user buffer (receive side)."""
        self.counters.add("copies_system_to_user", setups)
        self.counters.add("copy_bytes", nbytes)
        yield from self.memory.cpu_copy(self.cpu, nbytes, priority, label="s2u",
                                        setups=setups)

    def copy_user_to_user(self, nbytes: int, priority: int = PRIO_KERNEL) -> Generator:
        """Same-node process-to-process copy (CLIC local delivery)."""
        self.counters.add("copies_user_to_user")
        self.counters.add("copy_bytes", nbytes)
        yield from self.memory.cpu_copy(self.cpu, nbytes, priority, label="u2u")

    # ------------------------------------------------------------------
    # protocol demux
    # ------------------------------------------------------------------
    def register_protocol(self, ethertype: int, handler: Callable) -> None:
        """Install a protocol rx entry: ``handler(skb) -> Generator``."""
        if ethertype in self.protocol_handlers:
            raise ValueError(f"ethertype {ethertype:#06x} already registered")
        self.protocol_handlers[ethertype] = handler

    def deliver_rx(self, ethertype: int, skb, in_irq_context: bool) -> None:
        """Route a received buffer to its protocol module.

        Default path: schedule a bottom half (Figure 8a).  With
        ``direct_rx_dispatch`` the handler generator is returned to the
        caller to run inline in IRQ context — see :meth:`direct_rx`.
        """
        handler = self.protocol_handlers.get(ethertype)
        if handler is None:
            self.counters.add("rx_unknown_ethertype")
            return
        self.bottom_halves.schedule(lambda h=handler, s=skb: h(s))

    def direct_rx(self, ethertype: int, skb) -> Generator:
        """Figure 8(b): run the protocol rx inline (caller is the driver,
        already in interrupt context)."""
        handler = self.protocol_handlers.get(ethertype)
        if handler is None:
            self.counters.add("rx_unknown_ethertype")
            return
        yield from handler(skb)
