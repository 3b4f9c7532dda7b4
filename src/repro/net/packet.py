"""Packet representation shared by all transports."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

_packet_ids = itertools.count()

#: Size of a bare ACK segment (bytes) — header only.
ACK_SIZE_BYTES = 60


@dataclass(slots=True)
class Packet:
    """One simulated packet.

    ``seq`` is the transport-level sequence number in *segments* (not
    bytes); ``data_seq`` is the MPTCP data-level sequence for segments that
    belong to an MPTCP connection (-1 otherwise).
    """

    flow_id: int
    size_bytes: int
    seq: int = -1
    ack: int = -1  # cumulative ack (next expected seq), -1 if not an ack
    data_seq: int = -1
    data_ack: int = -1
    is_ack: bool = False
    sent_time_s: float = 0.0
    #: Advertised receive window (segments) carried on ACKs.
    rwnd: int = 1 << 30
    #: True when this is a retransmission (for accounting parity with
    #: the paper's tcpdump analysis).
    retransmit: bool = False
    #: SACK block [sack_start, sack_end) reported on ACKs (-1 when absent):
    #: the contiguous out-of-order run containing the most recent arrival.
    sack_start: int = -1
    sack_end: int = -1
    #: Echo of the sender's transmission timestamp, for RTT sampling even
    #: on retransmitted sequences (Karn's algorithm made simple).
    timestamp_echo_s: float = -1.0
    packet_id: int = field(default_factory=_packet_ids.__next__)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes}")
