"""Forward error correction over UDP — the paper's suggested remedy.

Section 1: Starlink's elevated packet loss "calls for better congestion
control or Forward Error Correction (FEC) algorithms tailored for such
characteristics."  This module implements a block FEC transport: the
sender groups ``k`` data segments into a block and appends ``r`` repair
segments (systematic erasure code — any ``k`` of the ``k+r`` segments
reconstruct the block, the property Reed-Solomon provides); the receiver
reconstructs blocks as segments arrive.

The transport is rate-based like iPerf UDP — FEC does not help a
congestion-collapsed sender, so the experiment pairs it with a fixed
sending rate just under capacity, the regime a rate-based video call or
QUIC-with-FEC stack would occupy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.packet import Packet
from repro.net.path import Path
from repro.net.simulator import Simulator


@dataclass(frozen=True)
class FecConfig:
    """Block code parameters."""

    data_segments: int = 20  # k
    repair_segments: int = 4  # r

    def __post_init__(self) -> None:
        if self.data_segments < 1:
            raise ValueError("need at least one data segment per block")
        if self.repair_segments < 0:
            raise ValueError("repair segment count cannot be negative")

    @property
    def block_size(self) -> int:
        return self.data_segments + self.repair_segments

    @property
    def overhead(self) -> float:
        """Fraction of sent bytes that are repair data."""
        return self.repair_segments / self.block_size


@dataclass
class FecStats:
    """Both-ends accounting for one FEC session."""

    segments_sent: int = 0
    segments_received: int = 0
    blocks_sent: int = 0
    blocks_recovered: int = 0  # complete after erasure repair
    blocks_intact: int = 0  # complete with no repair needed
    blocks_lost: int = 0  # unrecoverable (fewer than k arrived)
    data_bytes_delivered: int = 0

    @property
    def block_loss_rate(self) -> float:
        done = self.blocks_recovered + self.blocks_intact + self.blocks_lost
        if done == 0:
            return 0.0
        return self.blocks_lost / done


class FecReceiver:
    """Counts arrivals per block; a block completes at >= k segments."""

    def __init__(self, sim: Simulator, config: FecConfig, stats: FecStats,
                 segment_bytes: int):
        self.sim = sim
        self.config = config
        self.stats = stats
        self.segment_bytes = segment_bytes
        self._arrived: dict[int, int] = {}
        self._delivered: set[int] = set()
        self.delivery_log: list[tuple[float, int]] = []

    def on_data(self, packet: Packet) -> None:
        self.stats.segments_received += 1
        block_id = packet.seq // self.config.block_size
        count = self._arrived.get(block_id, 0) + 1
        self._arrived[block_id] = count
        if (
            count == self.config.data_segments
            and block_id not in self._delivered
        ):
            # Any k of the k+r symbols reconstruct the k data segments.
            self._delivered.add(block_id)
            self.stats.data_bytes_delivered += (
                self.config.data_segments * self.segment_bytes
            )
            self.delivery_log.append(
                (self.sim.now, self.config.data_segments)
            )

    def finalize(self, blocks_sent: int, exclude_tail: int = 8) -> None:
        """Classify sent blocks once the run ends.

        The last ``exclude_tail`` blocks are skipped: their segments may
        still be in flight when the run stops, which would misclassify
        them as losses.
        """
        for block_id in range(max(blocks_sent - exclude_tail, 0)):
            arrived = self._arrived.get(block_id, 0)
            if arrived >= self.config.block_size:
                self.stats.blocks_intact += 1
            elif block_id in self._delivered:
                self.stats.blocks_recovered += 1
            else:
                self.stats.blocks_lost += 1


class FecSender:
    """Paces ``k+r`` segments per block at a configured data rate."""

    def __init__(
        self,
        sim: Simulator,
        path: Path,
        data_rate_mbps: float,
        config: FecConfig | None = None,
        segment_bytes: int = 1500,
        flow_id: int = 0,
    ):
        if data_rate_mbps <= 0:
            raise ValueError(f"data rate must be positive, got {data_rate_mbps}")
        self.sim = sim
        self.path = path
        self.config = config or FecConfig()
        self.segment_bytes = segment_bytes
        self.flow_id = flow_id
        self.stats = FecStats()
        # Wire rate includes the repair overhead.
        wire_rate = data_rate_mbps / (1.0 - self.config.overhead)
        self.interval_s = segment_bytes * 8.0 / (wire_rate * 1e6)
        self._next_seq = 0

    def start(self) -> None:
        self._send_next()

    def _send_next(self) -> None:
        self.stats.segments_sent += 1
        if self._next_seq % self.config.block_size == 0:
            self.stats.blocks_sent += 1
        self.path.send_data(
            Packet(
                flow_id=self.flow_id,
                size_bytes=self.segment_bytes,
                seq=self._next_seq,
                sent_time_s=self.sim.now,
            )
        )
        self._next_seq += 1
        self.sim.post_at(self.sim.now + self.interval_s, self._send_next)

    def on_ack(self, packet: Packet) -> None:  # pragma: no cover - no ACKs
        """FEC-over-UDP has no ACK channel; present for Path symmetry."""


def open_fec_flow(
    sim: Simulator,
    path: Path,
    data_rate_mbps: float,
    config: FecConfig | None = None,
    segment_bytes: int = 1500,
) -> tuple[FecSender, FecReceiver]:
    """Create a wired FEC sender/receiver pair over ``path``."""
    sender = FecSender(
        sim,
        path,
        data_rate_mbps,
        config=config,
        segment_bytes=segment_bytes,
    )
    receiver = FecReceiver(sim, sender.config, sender.stats, segment_bytes)
    path.connect(receiver.on_data, sender.on_ack)
    return sender, receiver
