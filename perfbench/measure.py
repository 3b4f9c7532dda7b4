"""Small measurement helpers: statistics, metric names, environment, digests."""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
from typing import Any, Callable, Iterable

import numpy

#: Metric and workload names: a letter or digit first, then up to 63
#: letters, digits, ``_``, ``.`` or ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Metric units: up to 16 letters, digits, ``_``, ``/``, ``%``, ``.`` or ``-``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def median(values: Iterable[float]) -> float:
    data = list(values)
    if not data:
        raise ValueError("median of no values")
    return statistics.median(data)


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    data = list(values)
    if len(data) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def relative_spread(values: Iterable[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        raise ValueError("relative spread is undefined for a zero median")
    return (q3 - q1) / abs(q2)


#: Nominal duration of one calibration round: a reference second is the
#: time in which the round runs ``1 / REFERENCE_S`` times.
REFERENCE_S = 0.015
#: Rounds per calibration; their median is the estimate.
CALIBRATION_ROUNDS = 5

_CAL_ARRAY = numpy.arange(4096, dtype=float)
# A 16 MB table read at scattered positions: the campaign's working set
# is hundreds of megabytes, so cache and memory contention matter too.
_CAL_TABLE = numpy.arange(1 << 21, dtype=float)
_CAL_INDEX = (numpy.arange(1 << 16, dtype=numpy.int64) * 7919) % (1 << 21)


def _calibration_round() -> float:
    start = time.perf_counter()
    heap: list[tuple[int, int]] = []
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(8000):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        table[i & 1023] = acc
        acc += 1.5 * (i & 7)
        if len(heap) > 500:
            heapq.heappop(heap)
    for i in range(60):
        acc += float(numpy.sqrt(_CAL_ARRAY * 1.0001 + i).sum())
    for i in range(4):
        acc += float(_CAL_TABLE[(_CAL_INDEX + i) % (1 << 21)].sum())
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds one fixed round of work takes right now on the host running it.

    The round mixes what the workloads spend their time on: heap pushes
    and pops, dict stores and float arithmetic in the interpreter, plus
    small numpy reductions.  Shared hosts change speed by tens of
    percent within minutes, and single rounds jitter by about 20 %;
    the median of several rounds, taken next to each timed operation,
    cancels most of both.
    """
    return median(_calibration_round() for _ in range(CALIBRATION_ROUNDS))


class ReferenceClock:
    """Times operations in wall seconds and in reference seconds.

    A reference second is a wall second scaled by ``REFERENCE_S`` over
    the mean of the calibration runs just before and just after the
    operation.  Calibration runs between operations, never inside one.
    """

    def __init__(self) -> None:
        self._last = calibrate()

    def time(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """``(result, wall seconds, reference seconds)`` of ``fn()``."""
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        cal = calibrate()
        ref = wall * REFERENCE_S / ((self._last + cal) / 2.0)
        self._last = cal
        return result, wall, ref


def peak_rss_mb() -> float:
    """Peak resident memory of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Linux reports kibibytes.
    return max(own, children) / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict[str, Any]:
    """The stamp every result carries."""
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
    }


def canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


class Digest:
    """Streaming SHA-256 over canonical JSON items."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, obj: Any) -> None:
        self._hash.update(canonical(obj))
        self._hash.update(b"\n")

    def add_bytes(self, blob: bytes) -> None:
        self._hash.update(blob)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
