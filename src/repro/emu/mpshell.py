"""MpShell: trace-replay link emulation with multiple virtual interfaces.

Reimplements the record-and-replay semantics of Mahimahi's ``mm-link`` (the
paper's MpShell is a Mahimahi variant): a link is a cyclic list of packet
*delivery opportunities*; at each opportunity up to one MTU of queued bytes
leaves the drop-tail buffer, then experiences a fixed one-way delay.
Multiple :class:`VirtualInterface` s share one simulator, giving the
multi-homed host the paper runs MPTCP experiments on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.conditions import LinkConditions
from repro.emu.traces import conditions_to_opportunities_ms
from repro.net.link import ConditionsSchedule
from repro.net.packet import Packet
from repro.net.path import Path
from repro.net.queue import DropTailQueue
from repro.net.simulator import Simulator
from repro.units import DEFAULT_MTU_BYTES


class TraceLink:
    """One direction of an emulated link, driven by delivery opportunities.

    API-compatible with :class:`repro.net.link.Link` so transports and
    :class:`repro.net.path.Path` cannot tell the difference.
    """

    def __init__(
        self,
        sim: Simulator,
        opportunities_ms: list[int],
        one_way_delay_ms: float,
        buffer_bytes: int,
        rng: np.random.Generator,
        loss_rate: float = 0.0,
        loss_burst: float = 1.0,
        mtu_bytes: int = DEFAULT_MTU_BYTES,
        name: str = "tracelink",
    ):
        if not opportunities_ms:
            raise ValueError("trace must contain at least one opportunity")
        if opportunities_ms[-1] <= 0:
            raise ValueError("trace period must be positive")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        self.opportunities_ms = list(opportunities_ms)
        self.period_s = self.opportunities_ms[-1] / 1000.0
        self.delay_s = one_way_delay_ms / 1000.0
        self.queue = DropTailQueue(buffer_bytes)
        self.mtu_bytes = mtu_bytes
        self.loss_rate = loss_rate
        self.loss_burst = max(loss_burst, 1.0)
        self.name = name
        self._rng = rng
        self._receiver = None
        self._index = 0
        self._base_s = 0.0
        self._burst_until_s = -1.0
        self._mean_opportunity_s = self.period_s / len(self.opportunities_ms)
        self.bytes_delivered = 0
        self.packets_delivered = 0
        self.random_losses = 0
        self.packets_sent = 0
        self._schedule_next()

    def connect(self, receiver) -> None:
        self._receiver = receiver

    def send(self, packet: Packet) -> None:
        if self._receiver is None:
            raise RuntimeError(f"{self.name}: send() before connect()")
        self.packets_sent += 1
        self.queue.push(packet)

    # -- opportunity engine ------------------------------------------------

    def _schedule_next(self) -> None:
        target_s = self._base_s + self.opportunities_ms[self._index] / 1000.0
        delay = max(0.0, target_s - self.sim.now)
        self.sim.post_at(self.sim.now + delay, self._on_opportunity)

    def _on_opportunity(self) -> None:
        budget = self.mtu_bytes
        while True:
            head = self.queue.peek()
            if head is None or head.size_bytes > budget:
                break
            packet = self.queue.pop()
            budget -= packet.size_bytes
            if self._draw_loss():
                self.random_losses += 1
            else:
                self.sim.post_at(
                    self.sim.now + self.delay_s, partial(self._deliver, packet)
                )
        self._index += 1
        if self._index >= len(self.opportunities_ms):
            self._index = 0
            self._base_s += self.period_s
        self._schedule_next()

    def _draw_loss(self) -> bool:
        # Time-window burst loss, mirroring repro.net.link.Link._draw_loss;
        # loss parameters are per reference MTU (1500 B).
        if self.sim.now < self._burst_until_s:
            return True
        if self.loss_rate <= 0.0:
            return False
        scale = self.mtu_bytes / DEFAULT_MTU_BYTES
        if self._rng.random() >= min(self.loss_rate * scale / self.loss_burst, 1.0):
            return False
        if self.loss_burst > 1.0:
            run = float(self._rng.geometric(1.0 / self.loss_burst)) - 1.0
            self._burst_until_s = (
                self.sim.now + run * self._mean_opportunity_s / scale
            )
        return True

    def _deliver(self, packet: Packet) -> None:
        self.bytes_delivered += packet.size_bytes
        self.packets_delivered += 1
        self._receiver(packet)

    @property
    def queue_drops(self) -> int:
        return self.queue.drops


@dataclass(frozen=True)
class InterfaceStats:
    """Counters for one virtual interface after a run."""

    name: str
    downlink_bytes: int
    uplink_bytes: int
    downlink_drops: int


class MpShell:
    """A multi-interface emulation shell over one simulator.

    Each interface replays a recorded channel trace: the downlink capacity
    becomes delivery opportunities, the measured RTT becomes the fixed
    propagation delay, and the measured loss rate/burstiness is replayed as
    random loss.  ``add_interface`` returns a :class:`repro.net.path.Path`
    that transports plug into directly.
    """

    #: Default drop-tail depth: about one second of the trace's mean rate
    #: (Mahimahi's unbounded default is unrealistic; a multi-second queue
    #: on a slow link starves the RTO estimator instead of dropping).
    MIN_BUFFER_PACKETS = 64
    MAX_BUFFER_PACKETS = 2048

    def __init__(self, sim: Simulator | None = None, seed: int = 0):
        self.sim = sim or Simulator()
        self._rng = np.random.default_rng(seed)
        self.interfaces: dict[str, Path] = {}

    def add_interface(
        self,
        name: str,
        samples: list[LinkConditions],
        mtu_bytes: int = DEFAULT_MTU_BYTES,
        buffer_bytes: int | None = None,
        replay_loss: bool = True,
        scheduled_loss: bool = False,
    ) -> Path:
        """Create a virtual interface replaying ``samples``.

        The data direction is the downlink (the paper's MPTCP experiments
        are downloads); ACKs ride an uplink trace built the same way.
        With ``scheduled_loss`` the per-second recorded loss/burst values
        are replayed at their original positions instead of as a trace-wide
        average (closer to the field data, beyond what Mahimahi expresses).
        """
        if name in self.interfaces:
            raise ValueError(f"interface {name!r} already exists")
        if not samples:
            raise ValueError("need at least one conditions sample")
        delay_ms = _median([s.rtt_ms for s in samples]) / 2.0
        loss = _mean([s.loss_rate for s in samples if not s.is_outage]) if replay_loss else 0.0
        burst = _mean([s.loss_burst for s in samples]) if replay_loss else 1.0

        def direction_buffer(downlink: bool) -> int:
            if buffer_bytes is not None:
                return buffer_bytes
            live = [s for s in samples if not s.is_outage] or samples
            mean_rate = sum(s.capacity_mbps(downlink) for s in live) / len(live)
            packets = int(mean_rate * 1e6 / 8.0 / mtu_bytes)  # ~1 s of rate
            packets = min(max(packets, self.MIN_BUFFER_PACKETS), self.MAX_BUFFER_PACKETS)
            return packets * mtu_bytes

        def build(downlink: bool, suffix: str) -> TraceLink:
            kwargs = dict(
                sim=self.sim,
                opportunities_ms=conditions_to_opportunities_ms(
                    samples, downlink=downlink, mtu_bytes=mtu_bytes
                ),
                one_way_delay_ms=delay_ms,
                buffer_bytes=direction_buffer(downlink),
                rng=self._rng,
                loss_rate=min(loss, 0.5),
                loss_burst=burst,
                mtu_bytes=mtu_bytes,
                name=f"{name}.{suffix}",
            )
            if scheduled_loss and replay_loss:
                return ScheduledLossTraceLink(
                    schedule=ConditionsSchedule(samples, downlink=downlink),
                    **kwargs,
                )
            return TraceLink(**kwargs)

        down = build(True, "down")
        up = build(False, "up")
        path = Path.from_links(self.sim, down, up, name=name)
        self.interfaces[name] = path
        return path

    def interface_stats(self, name: str) -> InterfaceStats:
        path = self.interfaces[name]
        return InterfaceStats(
            name=name,
            downlink_bytes=path.forward_link.bytes_delivered,
            uplink_bytes=path.reverse_link.bytes_delivered,
            downlink_drops=path.forward_link.queue_drops,
        )

    def run(self, duration_s: float) -> None:
        """Run the emulation for ``duration_s`` of simulated time."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        self.sim.run(until_s=self.sim.now + duration_s)


class ScheduledLossTraceLink(TraceLink):
    """TraceLink whose loss/burst follow the per-second schedule.

    Plain :class:`TraceLink` replays the *average* loss (what Mahimahi can
    express); this subclass consults the original conditions second by
    second, preserving loss bursts at their recorded positions.
    """

    def __init__(self, schedule: ConditionsSchedule, **kwargs):
        self._schedule = schedule
        super().__init__(**kwargs)

    def _draw_loss(self) -> bool:
        if self.sim.now < self._burst_until_s:
            return True
        p = self._schedule.loss_rate(self.sim.now)
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        burst = max(self._schedule.loss_burst(self.sim.now), 1.0)
        scale = self.mtu_bytes / DEFAULT_MTU_BYTES
        if self._rng.random() >= min(p * scale / burst, 1.0):
            return False
        if burst > 1.0:
            run = float(self._rng.geometric(1.0 / burst)) - 1.0
            self._burst_until_s = (
                self.sim.now + run * self._mean_opportunity_s / scale
            )
        return True


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[len(ordered) // 2]
