"""Minimal discrete-event simulator.

A binary-heap event loop with stable FIFO ordering for simultaneous events.
All transport and link code in :mod:`repro.transport` and :mod:`repro.emu`
runs on top of this loop.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.obs.recorder import get_recorder


class Simulator:
    """Event loop: schedule callbacks at absolute or relative times."""

    def __init__(self, recorder=None):
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self.now = 0.0
        self._stopped = False
        #: Deepest the heap has been (mirrors ``sim.heap_depth_max``).
        self._heap_max = 0
        obs = recorder if recorder is not None else get_recorder()
        self._m_fired = obs.counter("sim.events_fired")
        self._m_cancelled = obs.counter("sim.events_cancelled")
        self._m_heap_max = obs.gauge("sim.heap_depth_max")

    def schedule(self, delay_s: float, callback: Callable[[], None]) -> "EventHandle":
        """Run ``callback`` after ``delay_s`` seconds of simulated time."""
        if delay_s < 0:
            raise ValueError(f"delay must be non-negative, got {delay_s}")
        return self.schedule_at(self.now + delay_s, callback)

    def schedule_at(self, time_s: float, callback: Callable[[], None]) -> "EventHandle":
        """Run ``callback`` at absolute simulated time ``time_s``."""
        if time_s < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time_s} < now {self.now}"
            )
        handle = EventHandle(callback)
        heap = self._heap
        heapq.heappush(heap, (time_s, next(self._counter), callback, handle))
        if len(heap) > self._heap_max:
            self._heap_max = len(heap)
            self._m_heap_max.set_max(self._heap_max)
        return handle

    def post_at(self, time_s: float, callback: Callable[[], None]) -> None:
        """:meth:`schedule_at` for an event nobody will cancel: no handle
        is made.  Links post two such events per packet, so this is the
        hottest call of a packet-level run."""
        if time_s < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time_s} < now {self.now}"
            )
        heap = self._heap
        heapq.heappush(heap, (time_s, next(self._counter), callback, None))
        if len(heap) > self._heap_max:
            self._heap_max = len(heap)
            self._m_heap_max.set_max(self._heap_max)

    def run(self, until_s: float | None = None) -> None:
        """Process events until the heap drains, time exceeds ``until_s``,
        or :meth:`stop` fires.

        A run cut short by :meth:`stop` leaves ``now`` at the last
        processed event; only a run that exhausts its window (or drains
        the heap under a deadline) fast-forwards the clock to ``until_s``.
        """
        self._stopped = False
        heap = self._heap
        heappop = heapq.heappop
        limit = float("inf") if until_s is None else until_s
        fired = cancelled = 0
        try:
            while heap and not self._stopped:
                if heap[0][0] > limit:
                    break
                time_s, _, callback, handle = heappop(heap)
                if handle is not None and handle.cancelled:
                    cancelled += 1
                    continue
                self.now = time_s
                callback()
                fired += 1
        finally:
            # Counted once per run rather than per event; the totals are
            # the same.
            if fired:
                self._m_fired.inc(fired)
            if cancelled:
                self._m_cancelled.inc(cancelled)
        if until_s is not None and not self._stopped and self.now < until_s:
            self.now = until_s

    def stop(self) -> None:
        """Halt :meth:`run` after the current event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled queued events."""
        return sum(1 for *_, h in self._heap if h is None or not h.cancelled)


class EventHandle:
    """Cancellation token for a scheduled event (e.g. a retransmit timer)."""

    __slots__ = ("_callback", "cancelled")

    def __init__(self, callback: Callable[[], None]):
        self._callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def fire(self) -> None:
        if not self.cancelled:
            self._callback()

    # Heap entries compare on (time, counter); the handle must never be
    # compared, but heapq requires orderability when ties occur without a
    # counter.  The counter guarantees uniqueness, so any comparison that
    # reaches the handle indicates a bug.
    def __lt__(self, other: object) -> bool:  # pragma: no cover
        raise TypeError("EventHandle ordering should never be needed")
