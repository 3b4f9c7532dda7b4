"""Congestion-control algorithms: NewReno-style AIMD and CUBIC.

Both operate in units of segments.  The interface is deliberately small —
``on_ack`` / ``on_loss`` / ``on_rto`` — so TCP senders and MPTCP subflows
share implementations.  CUBIC is the Linux default the paper's iPerf runs
used; Reno is kept for the ablation bench ("better congestion control ...
tailored for such characteristics", Section 1).
"""

from __future__ import annotations

from typing import Protocol


class CongestionControl(Protocol):
    """Window evolution driven by ACK/loss events."""

    cwnd: float
    ssthresh: float

    def on_ack(self, newly_acked: int, rtt_s: float, now_s: float) -> None: ...

    def on_loss(self, now_s: float) -> None: ...

    def on_rto(self, now_s: float, inflight: float | None = None) -> None: ...


_INITIAL_CWND = 10.0
_MIN_CWND = 2.0


class Reno:
    """NewReno AIMD: slow start, congestion avoidance, halve on loss."""

    def __init__(self):
        self.cwnd = _INITIAL_CWND
        self.ssthresh = float("inf")

    def on_ack(self, newly_acked: int, rtt_s: float, now_s: float) -> None:
        if newly_acked <= 0:
            return
        # A cumulative ACK can cover far more than a window after a hole
        # fills; growth is still clocked at one window per RTT.
        newly_acked = min(newly_acked, max(int(self.cwnd), 1))
        if self.cwnd < self.ssthresh:
            self.cwnd += newly_acked  # slow start: +1 per acked segment
        else:
            self.cwnd += newly_acked / self.cwnd  # congestion avoidance

    def on_loss(self, now_s: float) -> None:
        self.ssthresh = max(self.cwnd / 2.0, _MIN_CWND)
        self.cwnd = self.ssthresh

    def on_rto(self, now_s: float, inflight: float | None = None) -> None:
        # RFC 5681: ssthresh = max(FlightSize / 2, 2) — during an outage the
        # flight stays large, so recovery re-enters slow start with a usable
        # threshold instead of grinding up from two segments.
        flight = self.cwnd if inflight is None else max(inflight, self.cwnd)
        self.ssthresh = max(flight / 2.0, _MIN_CWND)
        self.cwnd = _MIN_CWND


class Cubic:
    """CUBIC (RFC 8312) with standard constants.

    Window grows as ``W(t) = C*(t-K)^3 + W_max`` since the last loss, with
    the TCP-friendly region as a floor.  Fast convergence is included.
    """

    C = 0.4
    BETA = 0.7

    def __init__(self):
        self.cwnd = _INITIAL_CWND
        self.ssthresh = float("inf")
        self._w_max = 0.0
        self._epoch_start_s = -1.0
        self._w_est = 0.0  # TCP-friendly (Reno-equivalent) window estimate
        self._acked_in_epoch = 0
        #: K of the cubic curve and the W_max it was computed for.
        self._k = 0.0
        self._k_w_max = -1.0

    def on_ack(self, newly_acked: int, rtt_s: float, now_s: float) -> None:
        if newly_acked <= 0:
            return
        # Same per-RTT clocking cap as Reno (see above).
        newly_acked = min(newly_acked, max(int(self.cwnd), 1))
        if self.cwnd < self.ssthresh:
            self.cwnd += newly_acked
            return
        if self._epoch_start_s < 0:
            self._epoch_start_s = now_s
            self._w_max = max(self._w_max, self.cwnd)
            self._w_est = self.cwnd
            self._acked_in_epoch = 0
        t = now_s - self._epoch_start_s
        if self._w_max != self._k_w_max:  # K only moves with W_max
            self._k = ((self._w_max * (1.0 - self.BETA)) / self.C) ** (1.0 / 3.0)
            self._k_w_max = self._w_max
        k = self._k
        target = self.C * (t + rtt_s - k) ** 3 + self._w_max
        # TCP-friendly region: emulate Reno's growth from the epoch start.
        self._acked_in_epoch += newly_acked
        self._w_est += newly_acked * (
            3.0 * (1.0 - self.BETA) / (1.0 + self.BETA) / max(self.cwnd, 1.0)
        )
        target = max(target, self._w_est)
        if target > self.cwnd:
            # Approach the target over one RTT.
            self.cwnd += (target - self.cwnd) / max(self.cwnd, 1.0) * newly_acked
        else:
            self.cwnd += newly_acked / (100.0 * max(self.cwnd, 1.0))

    def on_loss(self, now_s: float) -> None:
        # Fast convergence: shrink the remembered peak when losses repeat.
        if self.cwnd < self._w_max:
            self._w_max = self.cwnd * (1.0 + self.BETA) / 2.0
        else:
            self._w_max = self.cwnd
        self.cwnd = max(self.cwnd * self.BETA, _MIN_CWND)
        self.ssthresh = self.cwnd
        self._epoch_start_s = -1.0

    def on_rto(self, now_s: float, inflight: float | None = None) -> None:
        flight = self.cwnd if inflight is None else max(inflight, self.cwnd)
        self._w_max = max(self._w_max, flight)
        self.ssthresh = max(flight / 2.0, _MIN_CWND)
        self.cwnd = _MIN_CWND
        self._epoch_start_s = -1.0


def make_congestion_control(name: str) -> CongestionControl:
    """Factory: ``"cubic"`` (default everywhere) or ``"reno"``."""
    table = {"cubic": Cubic, "reno": Reno}
    if name not in table:
        raise KeyError(f"unknown congestion control {name!r}; options: {sorted(table)}")
    return table[name]()
