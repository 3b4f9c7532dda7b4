"""Lightweight span tracer: nested wall-clock timings, no magic.

Spans time the *pipeline* (wall clock via ``time.perf_counter``), never
the simulation: starting or finishing a span touches no RNG stream and no
simulated clock, so tracing a campaign cannot change its dataset.

Usage::

    tracer = SpanTracer()
    with tracer.span("campaign.drive", drive="0", route="interstate-0"):
        with tracer.span("campaign.tests"):
            ...
    tracer.spans  # -> [Span(name="campaign.tests", depth=1, ...), ...]
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any


@dataclass
class Span:
    """One completed timed region."""

    name: str
    start_s: float
    duration_s: float
    depth: int
    parent: str | None = None
    meta: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "span",
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "depth": self.depth,
            "parent": self.parent,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "Span":
        return cls(
            name=raw["name"],
            start_s=float(raw["start_s"]),
            duration_s=float(raw["duration_s"]),
            depth=int(raw["depth"]),
            parent=raw.get("parent"),
            meta=dict(raw.get("meta", {})),
        )


class _ActiveSpan:
    """Context manager for one in-flight span (reused API, tiny state)."""

    __slots__ = ("_tracer", "name", "meta", "_start")

    def __init__(
        self, tracer: "SpanTracer", name: str, meta: dict[str, str]
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.meta = meta
        self._start = 0.0

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._stack.append(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        end = time.perf_counter()
        stack = self._tracer._stack
        stack.pop()
        self._tracer.spans.append(
            Span(
                name=self.name,
                start_s=self._start - self._tracer._epoch,
                duration_s=end - self._start,
                depth=len(stack),
                parent=stack[-1] if stack else None,
                meta=self.meta,
            )
        )


class SpanTracer:
    """Collects completed spans; nesting tracked via an explicit stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[str] = []
        self._epoch = time.perf_counter()

    def span(self, name: str, /, **meta: object) -> _ActiveSpan:
        """A context manager timing ``name``; nests under any open span."""
        return _ActiveSpan(self, name, {k: str(v) for k, v in meta.items()})

    def record(self, name: str, /, duration_s: float, **meta: object) -> Span:
        """Append an already-measured span (no timing of our own).

        The drive pool uses this to graft attempt-measured drive
        durations into the parent tracer: the span nests under whatever
        span is currently open (``campaign.run`` in-process,
        ``campaign.parallel`` with forked workers), with its start
        back-dated so ``start + duration`` is now.
        """
        now = time.perf_counter() - self._epoch
        span = Span(
            name=name,
            start_s=max(0.0, now - duration_s),
            duration_s=float(duration_s),
            depth=len(self._stack),
            parent=self._stack[-1] if self._stack else None,
            meta={k: str(v) for k, v in meta.items()},
        )
        self.spans.append(span)
        return span

    def timings(self) -> dict[str, dict[str, float]]:
        """Aggregate spans by name: count / total / min / max / mean."""
        agg: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = agg.get(span.name)
            if entry is None:
                agg[span.name] = {
                    "count": 1,
                    "total_s": span.duration_s,
                    "min_s": span.duration_s,
                    "max_s": span.duration_s,
                }
            else:
                entry["count"] += 1
                entry["total_s"] += span.duration_s
                entry["min_s"] = min(entry["min_s"], span.duration_s)
                entry["max_s"] = max(entry["max_s"], span.duration_s)
        for entry in agg.values():
            entry["mean_s"] = entry["total_s"] / entry["count"]
        return agg

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]
