"""Output checks: cheap domain invariants, never a pinned golden digest.

Every check returns a list of human-readable problems (empty means the
output passed), so a deliberate model change that keeps the invariants
keeps passing while a broken or corrupted output fails loudly.
"""

from __future__ import annotations

import bisect
import math
import os
from typing import Any, Iterable

#: Slack on capacity bounds for float rounding of the trace conversion.
_BOUND_REL_SLACK = 1e-9


def check_repeat_digests(digests: Iterable[str]) -> list[str]:
    """Every repeat of one pass at one seed must produce the same digest."""
    distinct = sorted(set(digests))
    if len(distinct) > 1:
        return [f"output digest differs across repeats: {', '.join(distinct)}"]
    return []


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


class RecordScheduleCheck:
    """Streams campaign test records (``record_to_dict`` form) and checks them.

    * per drive, test ids run contiguously from ``drive_id * stride``;
    * record ``k`` of a drive is window ``k // len(networks)`` on network
      ``networks[k % len(networks)]``, of the test kind the cycle
      schedules for that window;
    * each test holds ``test_duration_s`` one-second samples, and window
      starts are ``window_period_s`` apart;
    * no value is NaN or infinite, throughput is non-negative and loss
      and retransmission rates lie in [0, 1].
    """

    def __init__(
        self,
        networks: tuple[str, ...],
        cycle: list[tuple[str, str, int]],
        test_duration_s: float,
        window_period_s: float,
        stride: int,
    ) -> None:
        self.networks = tuple(networks)
        self.cycle = list(cycle)
        self.test_duration_s = int(test_duration_s)
        self.window_period_s = float(window_period_s)
        self.stride = int(stride)
        self.count = 0
        self.problems: list[str] = []
        self._drive: int | None = None
        self._index = 0
        self._first_start: float | None = None

    def _fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def add(self, rec: dict[str, Any]) -> None:
        self.count += 1
        drive = rec.get("drive_id")
        if drive != self._drive:
            self._drive = drive
            self._index = 0
            self._first_start = None
        k = self._index
        self._index += 1
        tag = f"drive {drive} record {k}"
        if rec.get("test_id") != drive * self.stride + k:
            self._fail(f"{tag}: test id {rec.get('test_id')} out of schedule")
        window, lane = divmod(k, len(self.networks))
        if rec.get("network") != self.networks[lane]:
            self._fail(f"{tag}: network {rec.get('network')} != {self.networks[lane]}")
        kind = self.cycle[window % len(self.cycle)]
        got = (rec.get("protocol"), rec.get("direction"), rec.get("parallel"))
        if got != kind:
            self._fail(f"{tag}: test kind {got} != scheduled {kind}")
        retx = rec.get("retransmission_rate")
        if not _finite(retx) or not 0.0 <= retx <= 1.0:
            self._fail(f"{tag}: retransmission rate {retx} outside [0, 1]")
        samples = rec.get("samples") or []
        if len(samples) != self.test_duration_s:
            self._fail(f"{tag}: {len(samples)} samples != {self.test_duration_s}")
            return
        start = samples[0].get("time_s")
        if not _finite(start):
            self._fail(f"{tag}: start time {start} is not finite")
            return
        if self._first_start is None:
            self._first_start = start - window * self.window_period_s
        expected = self._first_start + window * self.window_period_s
        if abs(start - expected) > 1e-6:
            self._fail(f"{tag}: window starts at {start}, schedule says {expected}")
        for i, sample in enumerate(samples):
            for key in ("time_s", "throughput_mbps", "rtt_ms", "speed_kmh"):
                if not _finite(sample.get(key)):
                    self._fail(f"{tag}: sample {i} {key}={sample.get(key)} not finite")
                    return
            if sample["throughput_mbps"] < 0:
                self._fail(f"{tag}: sample {i} negative throughput")
            loss = sample.get("loss_rate")
            if not _finite(loss) or not 0.0 <= loss <= 1.0:
                self._fail(f"{tag}: sample {i} loss {loss} outside [0, 1]")
            if abs(sample["time_s"] - (start + i)) > 1e-6:
                self._fail(f"{tag}: sample {i} not one second after the previous")
                return

    def result(self, expected_count: int | None = None) -> list[str]:
        problems = list(self.problems)
        if self.count == 0:
            problems.append("no test records")
        if expected_count is not None and self.count != expected_count:
            problems.append(f"{self.count} records != {expected_count} expected")
        return problems


def capacity_bound_bytes(capacities_mbps: Iterable[float], mtu_bytes: int) -> float:
    """Bytes a link can carry: the capacity integral over one-second samples.

    A packet is clocked out at the rate in force when it starts, so each
    one-second rate step can over-credit at most one packet: one MTU per
    sample (plus one) absorbs that.
    """
    caps = [max(0.0, float(c)) for c in capacities_mbps]
    integral = sum(caps) * 1e6 / 8.0
    return (integral + mtu_bytes * (len(caps) + 1)) * (1.0 + _BOUND_REL_SLACK)


def looped_trace_bound_bytes(
    opportunities_ms: list[int], duration_s: float, mtu_bytes: int
) -> float:
    """Bytes an MpShell link can deliver in ``duration_s``.

    MpShell, like Mahimahi's ``mm-link``, loops its delivery-opportunity
    list with a period equal to the last opportunity's timestamp, and
    each opportunity releases at most one MTU.
    """
    if not opportunities_ms:
        return 0.0
    period_ms = opportunities_ms[-1]
    full, rest = divmod(duration_s * 1000.0, period_ms)
    count = int(full) * len(opportunities_ms) + bisect.bisect_right(opportunities_ms, rest)
    return count * mtu_bytes * (1.0 + _BOUND_REL_SLACK)


def check_delivery(label: str, bytes_received: int, bound_bytes: float) -> list[str]:
    """Delivered bytes are non-negative and within the capacity integral."""
    if not isinstance(bytes_received, int) or bytes_received < 0:
        return [f"{label}: bytes received {bytes_received!r} is not a count"]
    if bytes_received > bound_bytes:
        return [
            f"{label}: {bytes_received} bytes received exceeds the trace "
            f"capacity integral {bound_bytes:.0f}"
        ]
    return []


def check_series(label: str, series: Iterable[float], bins: int) -> list[str]:
    """A 1 Hz throughput series: right length, finite, non-negative."""
    values = list(series)
    problems = []
    if len(values) != bins:
        problems.append(f"{label}: series has {len(values)} bins, expected {bins}")
    if any(not _finite(v) or v < 0 for v in values):
        problems.append(f"{label}: series holds a negative or non-finite value")
    return problems


def check_ratio(label: str, value: float) -> list[str]:
    if not _finite(value) or not 0.0 <= value <= 1.0:
        return [f"{label}: {value} outside [0, 1]"]
    return []


def check_job_states(states: dict[str, str]) -> list[str]:
    """Every served job reached ``done``."""
    return [
        f"job {label} ended in state {state!r}, not 'done'"
        for label, state in sorted(states.items())
        if state != "done"
    ]


def check_identical_files(path_a: str, path_b: str) -> list[str]:
    try:
        with open(path_a, "rb") as handle:
            blob_a = handle.read()
        with open(path_b, "rb") as handle:
            blob_b = handle.read()
    except OSError as exc:
        return [f"cannot compare {path_a} and {path_b}: {exc}"]
    if blob_a != blob_b:
        return [f"{os.path.basename(path_a)} differs between {path_a} and {path_b}"]
    return []


def check_shards(paths: list[str], verify) -> list[str]:
    """``verify`` (``repro.store.verify_shard``) passes on every shard."""
    if not paths:
        return ["no shards to verify"]
    return [f"shard {path} failed verification" for path in paths if not verify(path)]
