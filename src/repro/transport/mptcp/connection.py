"""MPTCP connection: subflows, data-level sequencing, shared receive buffer.

The pieces that matter for the paper's Section 6 findings:

* each subflow is a full TCP sender (own congestion window, RTT estimate,
  loss recovery) on its own path;
* data segments carry a *data sequence number*; the receiver reassembles
  the data stream across subflows in a **shared, bounded** meta buffer;
* the advertised window on every ACK is the meta buffer's free space, so a
  loss on one subflow makes in-flight data from the other subflow pile up
  in the meta buffer until the hole is repaired — head-of-line blocking.
  With default-sized buffers this throttles MPTCP to "marginal gains"
  (sometimes collapse); with buffers >10x BDP the two paths aggregate;
* on a subflow retransmission timeout its unacknowledged data is
  *reinjected* onto the other subflows, the standard MPTCP remedy for a
  stalled path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.net.packet import ACK_SIZE_BYTES, Packet
from repro.net.path import Path
from repro.net.simulator import Simulator
from repro.transport.mptcp.scheduler import Scheduler, make_scheduler
from repro.transport.tcp import TcpSender


class Subflow(TcpSender):
    """One MPTCP subflow: TCP mechanics, data assigned by the connection."""

    def __init__(
        self,
        connection: "MptcpConnection",
        subflow_id: int,
        path: Path,
        segment_bytes: int,
        congestion: str,
    ):
        super().__init__(
            connection.sim,
            path,
            flow_id=subflow_id,
            segment_bytes=segment_bytes,
            congestion=congestion,
            receiver_buffer_segments=connection.buffer_segments,
        )
        self.connection = connection
        self.subflow_id = subflow_id
        #: subflow seq -> data seq for everything sent and not yet acked.
        self._data_map: dict[int, int] = {}

    # -- hooks into the TcpSender machinery --------------------------------

    def has_space(self) -> bool:
        """Congestion/receive window space for one more segment."""
        if not self._started:
            return False
        if self._recover >= 0 and self.snd_una < self._recover:  # in_recovery
            occupancy = self._pipe()
        else:
            occupancy = self.snd_nxt - self.snd_una
        return occupancy < self._window()

    def send_one(self) -> None:
        """Transmit the next data segment (called by the connection pump)."""
        self._transmit(self.snd_nxt, retransmit=False)
        self.snd_nxt += 1
        self._arm_rto()

    def _send_new_data(self, budget: int, occupancy: int) -> None:
        # New-data transmission is centralized in the connection's pump so
        # the scheduler sees every opportunity.  Subflow-level hole
        # retransmissions stay local (handled by _send_retransmissions).
        self.connection.pump()

    def _transmit(self, seq: int, retransmit: bool) -> None:
        if retransmit:
            data_seq = self._data_map.get(seq)
            if data_seq is None:
                # The data-level ACK already covered it (e.g. the segment
                # was reinjected and delivered via another subflow); send a
                # subflow-level filler to keep subflow sequencing coherent.
                data_seq = -1
        else:
            data_seq = self.connection.assign_data_seq()
            self._data_map[seq] = data_seq
        self.stats.segments_sent += 1
        if retransmit:
            self.stats.retransmissions += 1
        self.path.send_data(
            Packet(
                flow_id=self.flow_id,
                size_bytes=self.segment_bytes,
                seq=seq,
                data_seq=data_seq if data_seq is not None else -1,
                sent_time_s=self.sim.now,
                retransmit=retransmit,
            )
        )

    def on_ack(self, packet: Packet) -> None:
        old_una = self.snd_una
        self.connection.on_meta_ack(packet)
        super().on_ack(packet)
        if self.snd_una > old_una:
            for seq in range(old_una, self.snd_una):
                self._data_map.pop(seq, None)
            self.connection.pump()

    def _on_rto(self) -> None:
        had_inflight = self.inflight > 0
        super()._on_rto()
        if had_inflight:
            # Reinjection: hand this subflow's stuck data to the others.
            stuck = [
                self._data_map[seq]
                for seq in range(self.snd_una + 1, self.snd_nxt)
                if seq in self._data_map
            ]
            self.connection.reinject(stuck)

    def outstanding_data_seqs(self) -> list[int]:
        """Data seqs currently mapped onto this subflow (unacked)."""
        return sorted(self._data_map.values())


@dataclass
class MptcpStats:
    """Connection-level accounting."""

    segments_sent: int = 0
    retransmissions: int = 0
    reinjections: int = 0

    @property
    def retransmission_rate(self) -> float:
        if self.segments_sent == 0:
            return 0.0
        return self.retransmissions / self.segments_sent


class MptcpConnection:
    """Sender side of an MPTCP connection over multiple paths."""

    def __init__(
        self,
        sim: Simulator,
        scheduler: str | Scheduler = "blest",
        buffer_segments: int = 4096,
        segment_bytes: int = 1500,
        congestion: str = "cubic",
    ):
        if buffer_segments < 1:
            raise ValueError("meta buffer must hold at least one segment")
        self.sim = sim
        self.scheduler: Scheduler = (
            make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        )
        self.buffer_segments = buffer_segments
        self.segment_bytes = segment_bytes
        self.congestion = congestion
        self.subflows: list[Subflow] = []
        self._next_data_seq = 0
        self._data_ack = 0  # highest cumulative data-level ACK seen
        self._meta_rwnd = buffer_segments
        self._reinjection_queue: list[int] = []
        self._reinjected: set[int] = set()
        self._pumping = False
        self.stats = MptcpStats()

    # -- setup -------------------------------------------------------------

    def add_subflow(self, path: Path, receiver: "MptcpReceiver") -> Subflow:
        """Create a subflow over ``path``, wired to the shared receiver."""
        subflow = Subflow(
            self,
            subflow_id=len(self.subflows),
            path=path,
            segment_bytes=self.segment_bytes,
            congestion=self.congestion,
        )
        self.subflows.append(subflow)
        receiver.attach_subflow(subflow.subflow_id, path)
        path.connect(partial(receiver.on_data, subflow.subflow_id), subflow.on_ack)
        return subflow

    def start(self) -> None:
        if not self.subflows:
            raise RuntimeError("start() with no subflows")
        for subflow in self.subflows:
            subflow._started = True
        self.pump()

    # -- data-level sequencing ----------------------------------------------

    def assign_data_seq(self) -> int:
        """Next data segment for a subflow: reinjections first, then new."""
        if self._reinjection_queue:
            return self._reinjection_queue.pop(0)
        seq = self._next_data_seq
        self._next_data_seq += 1
        return seq

    def can_assign_data(self) -> bool:
        if self._reinjection_queue:
            return True
        return self.send_window_left() > 0

    def send_window_left(self) -> float:
        """Segments still allowed by the data-level receive window."""
        return self._data_ack + self._meta_rwnd - self._next_data_seq

    def reinject(self, data_seqs: list[int]) -> None:
        """Queue stuck data for transmission on other subflows."""
        for ds in data_seqs:
            if ds >= self._data_ack and ds not in self._reinjected and ds >= 0:
                self._reinjection_queue.append(ds)
                self._reinjected.add(ds)
                self.stats.reinjections += 1
        self.pump()

    def on_meta_ack(self, packet: Packet) -> None:
        """Track the data-level ACK and shared window from any subflow ACK."""
        if packet.data_ack > self._data_ack:
            self._data_ack = packet.data_ack
            self._reinjected = {
                ds for ds in self._reinjected if ds >= self._data_ack
            }
            self._reinjection_queue = [
                ds for ds in self._reinjection_queue if ds >= self._data_ack
            ]
        self._meta_rwnd = max(packet.rwnd, 1)

    # -- scheduling ----------------------------------------------------------

    def pump(self) -> None:
        """Send as much new data as windows and the scheduler allow."""
        if self._pumping:
            return  # transmit paths re-enter via _try_send; flatten it
        self._pumping = True
        subflows = self.subflows
        pick = self.scheduler.pick
        try:
            while self.can_assign_data():
                available = [sf for sf in subflows if sf.has_space()]
                if not available:
                    break
                chosen = pick(available, self)
                if chosen is None:
                    break  # scheduler elects to wait (BLEST blocking guard)
                chosen.send_one()
        finally:
            self._pumping = False
        self._refresh_stats()

    def _refresh_stats(self) -> None:
        sent = retransmissions = 0
        for sf in self.subflows:
            sent += sf.stats.segments_sent
            retransmissions += sf.stats.retransmissions
        self.stats.segments_sent = sent
        self.stats.retransmissions = retransmissions


class MptcpReceiver:
    """Receiver side: per-subflow ACK state + shared meta reassembly buffer."""

    def __init__(
        self,
        sim: Simulator,
        buffer_segments: int,
        segment_bytes: int = 1500,
    ):
        self.sim = sim
        self.buffer_segments = buffer_segments
        self.segment_bytes = segment_bytes
        self.meta_rcv_next = 0
        self._meta_ooo: set[int] = set()
        self.bytes_received = 0
        self.delivery_log: list[tuple[float, int]] = []
        self._paths: dict[int, Path] = {}
        self._subflow_rcv_next: dict[int, int] = {}
        self._subflow_ooo: dict[int, set[int]] = {}

    def attach_subflow(self, subflow_id: int, path: Path) -> None:
        self._paths[subflow_id] = path
        self._subflow_rcv_next[subflow_id] = 0
        self._subflow_ooo[subflow_id] = set()

    @property
    def advertised_window(self) -> int:
        """Free space in the shared meta buffer (segments)."""
        return max(0, self.buffer_segments - len(self._meta_ooo))

    def on_data(self, subflow_id: int, packet: Packet) -> None:
        """Ingest a data segment from one subflow; ACK at both levels."""
        self._ingest_meta(packet.data_seq)
        self._ack_subflow(subflow_id, packet)

    def _ingest_meta(self, data_seq: int) -> None:
        if data_seq < 0 or data_seq < self.meta_rcv_next:
            return  # filler retransmit or duplicate delivery
        if data_seq == self.meta_rcv_next:
            delivered = 1
            self.meta_rcv_next += 1
            while self.meta_rcv_next in self._meta_ooo:
                self._meta_ooo.discard(self.meta_rcv_next)
                self.meta_rcv_next += 1
                delivered += 1
            self.bytes_received += delivered * self.segment_bytes
            self.delivery_log.append((self.sim.now, delivered))
        elif len(self._meta_ooo) < self.buffer_segments:
            self._meta_ooo.add(data_seq)
        # else: buffer overrun (sender violated the window) — drop.

    def _ack_subflow(self, subflow_id: int, packet: Packet) -> None:
        rcv_next = self._subflow_rcv_next[subflow_id]
        ooo = self._subflow_ooo[subflow_id]
        seq = packet.seq
        if seq == rcv_next:
            rcv_next += 1
            while rcv_next in ooo:
                ooo.discard(rcv_next)
                rcv_next += 1
        elif seq > rcv_next:
            ooo.add(seq)
        self._subflow_rcv_next[subflow_id] = rcv_next

        self._paths[subflow_id].send_ack(
            Packet(
                flow_id=subflow_id,
                size_bytes=ACK_SIZE_BYTES,
                ack=rcv_next,
                data_ack=self.meta_rcv_next,
                is_ack=True,
                rwnd=self.advertised_window,
                timestamp_echo_s=packet.sent_time_s,
                sent_time_s=self.sim.now,
            )
        )


def open_mptcp_connection(
    sim: Simulator,
    paths: list[Path],
    scheduler: str | Scheduler = "blest",
    buffer_segments: int = 4096,
    segment_bytes: int = 1500,
    congestion: str = "cubic",
) -> tuple[MptcpConnection, MptcpReceiver]:
    """Create an MPTCP connection with one subflow per path.

    The returned connection still needs :meth:`MptcpConnection.start`.
    """
    if not paths:
        raise ValueError("need at least one path")
    connection = MptcpConnection(
        sim,
        scheduler=scheduler,
        buffer_segments=buffer_segments,
        segment_bytes=segment_bytes,
        congestion=congestion,
    )
    receiver = MptcpReceiver(sim, buffer_segments, segment_bytes)
    for path in paths:
        connection.add_subflow(path, receiver)
    return connection, receiver
