"""Per-channel fault engines compiled from a :class:`~repro.faults.plan.FaultPlan`.

A :class:`ChannelFaults` sits inside one :class:`~repro.hw.link.Channel`
and passes verdict on every frame the moment its serialization finishes:
delivered, lost to the loss model, lost to a scheduled outage, or
delivered *corrupted* (to be dropped by the receiving NIC's CRC check).

Draw discipline: the engine consumes its RNG stream in a fixed order
(loss model first, then corruption, then — for delivered frames only —
delay jitter, then duplication) and only draws for mechanisms that are
actually configured — so a plain uniform-loss plan
(:meth:`~repro.faults.plan.FaultPlan.uniform`) consumes exactly one
draw per frame, and adding a new fault family never perturbs the draw
sequence of an existing plan.
Congestion windows are a deterministic timeline: zero draws.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..sim import Counters
from .plan import BurstLoss, LinkFaultSpec, OutageWindow

__all__ = [
    "FrameVerdict",
    "FrameDecision",
    "UniformLossModel",
    "GilbertElliottModel",
    "ChannelFaults",
]


class FrameVerdict(enum.Enum):
    """What happens to one offered frame."""

    DELIVER = "deliver"
    LOST = "lost"
    OUTAGE = "outage"
    CORRUPT = "corrupt"

    @property
    def dropped(self) -> bool:
        """True when the frame never reaches the far end of the wire."""
        return self in (FrameVerdict.LOST, FrameVerdict.OUTAGE)


@dataclass(frozen=True)
class FrameDecision:
    """The full fate of one offered frame.

    Extends the bare :class:`FrameVerdict` with the adversarial-delivery
    families: how many copies arrive (duplication), how much extra
    delay each pick up (jitter-driven reordering), and whether a
    congestion window covered the frame.
    """

    verdict: FrameVerdict
    #: extra delivery delay from jitter (ns; 0 = undisturbed)
    extra_delay_ns: float = 0.0
    #: total delivered copies (1 = normal; > 1 = duplication)
    copies: int = 1
    #: a congestion window covered this frame's serialization
    congested: bool = False

    @property
    def dropped(self) -> bool:
        """True when no copy reaches the far end of the wire."""
        return self.verdict.dropped


class UniformLossModel:
    """Bernoulli (i.i.d.) frame loss — one draw per frame."""

    def __init__(self, rate: float):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be a probability (got {rate!r})")
        self.rate = rate

    def frame_lost(self, rng: np.random.Generator) -> bool:
        """One Bernoulli trial: is this frame dropped?"""
        return rng.random() < self.rate


class GilbertElliottModel:
    """Stateful two-state burst-loss channel (Gilbert–Elliott).

    Per offered frame: step the state machine, then draw against the
    current state's loss probability (skipping the draw for the
    degenerate 0.0 / 1.0 probabilities so schedules stay compact).
    """

    def __init__(self, spec: BurstLoss):
        self.spec = spec
        self.bad = False
        self.bursts = 0  # completed good->bad transitions

    def frame_lost(self, rng: np.random.Generator) -> bool:
        """Step the two-state machine, then draw this frame's fate."""
        flip = self.spec.p_bad_to_good if self.bad else self.spec.p_good_to_bad
        if rng.random() < flip:
            self.bad = not self.bad
            if self.bad:
                self.bursts += 1
        loss = self.spec.loss_bad if self.bad else self.spec.loss_good
        if loss <= 0.0:
            return False
        if loss >= 1.0:
            return True
        return rng.random() < loss


class ChannelFaults:
    """One channel's fault engine: loss model + corruption + outages."""

    def __init__(
        self,
        spec: LinkFaultSpec,
        rng: Optional[np.random.Generator],
        counters: Optional[Counters] = None,
    ):
        self.spec = spec
        self.rng = rng
        self.counters = counters if counters is not None else Counters()
        #: any draw-consuming model configured — such a channel is never
        #: provably quiet, so flow-mode trains may not cross it
        self.stochastic = bool(
            spec.loss_rate or spec.burst is not None or spec.corrupt_rate
            or spec.jitter is not None or spec.duplicate is not None
        )
        if self.stochastic and rng is None:
            raise ValueError("stochastic fault injection requires an RNG stream")
        self.model = None
        if spec.burst is not None:
            self.model = GilbertElliottModel(spec.burst)
        elif spec.loss_rate:
            self.model = UniformLossModel(spec.loss_rate)
        self._outages: Tuple[OutageWindow, ...] = tuple(sorted(spec.outages))
        self._congestion = tuple(sorted(spec.congestion, key=lambda c: c.window))

    def link_down(self, now: float) -> bool:
        """True while a scheduled outage window covers ``now``."""
        return any(w.covers(now) for w in self._outages)

    def quiet_over(self, start: float, end: float) -> bool:
        """True when this channel is provably undisturbed over ``[start, end)``.

        The flow-mode eligibility check: a stochastic model (loss,
        burst, corruption, jitter, duplication) can strike any frame, so
        its mere presence answers False; otherwise the channel is quiet
        iff no scheduled outage or congestion window intersects the
        interval.
        """
        if self.stochastic:
            return False
        for w in self._outages:
            if w.start_ns < end and start < w.end_ns:
                return False
        for c in self._congestion:
            w = c.window
            if w.start_ns < end and start < w.end_ns:
                return False
        return True

    # -- congestion (deterministic: no draws) ------------------------------
    def congested(self, now: float) -> bool:
        """True while a congestion window covers ``now``."""
        return any(c.window.covers(now) for c in self._congestion)

    def congestion_factor(self, now: float) -> float:
        """Serialization-time multiplier at ``now`` (1.0 when healthy).
        Overlapping windows compound multiplicatively."""
        factor = 1.0
        for c in self._congestion:
            if c.window.covers(now):
                factor *= c.bandwidth_factor
        return factor

    def congestion_latency_ns(self, now: float) -> float:
        """Extra one-way queueing delay at ``now`` (overlaps add up)."""
        return sum(
            c.extra_latency_ns for c in self._congestion if c.window.covers(now)
        )

    def judge(self, now: float) -> FrameVerdict:
        """Pass verdict on one frame whose serialization ends at ``now``."""
        if self.link_down(now):
            self.counters.add("outage_drops")
            return FrameVerdict.OUTAGE
        if self.model is not None and self.model.frame_lost(self.rng):
            self.counters.add(
                "burst_drops" if isinstance(self.model, GilbertElliottModel) else "loss_drops"
            )
            return FrameVerdict.LOST
        if self.spec.corrupt_rate and self.rng.random() < self.spec.corrupt_rate:
            self.counters.add("corrupted")
            return FrameVerdict.CORRUPT
        return FrameVerdict.DELIVER

    def decide(self, now: float) -> FrameDecision:
        """The full fate of one frame whose serialization ends at ``now``.

        Extends :meth:`judge` with jitter and duplication.  Draw order
        is strict — outage check, loss model, corruption, *then* jitter,
        *then* duplication, and the new families draw only for frames
        that are actually delivered — so a plan without them consumes
        exactly the draws it always did.
        """
        congested = self.congested(now)
        if congested:
            self.counters.add("congested")
        verdict = self.judge(now)
        if verdict.dropped:
            return FrameDecision(verdict, congested=congested)
        extra_delay = 0.0
        jitter = self.spec.jitter
        if jitter is not None and self.rng.random() < jitter.rate:
            extra_delay = float(self.rng.random() * jitter.max_delay_ns)
            self.counters.add("jittered")
        copies = 1
        duplicate = self.spec.duplicate
        if duplicate is not None and self.rng.random() < duplicate.rate:
            copies = 1 + int(self.rng.integers(1, duplicate.max_copies + 1))
            self.counters.add("duplicated")
            self.counters.add("dup_copies", copies - 1)
        return FrameDecision(
            verdict, extra_delay_ns=extra_delay, copies=copies, congested=congested
        )
