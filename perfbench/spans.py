"""Span tracing from outside the program: wrap public calls of each layer.

A :class:`Tracer` replaces chosen methods (at their class) and functions
(in every ``repro`` module that holds them by name) with wrappers that
record one span per call: name, start, end, parent span and the
operation id shared by every span of one benchmark operation.  Spans
stay in flat in-memory columns until :meth:`Tracer.write` dumps them
once the run is over.  :meth:`Tracer.uninstall` restores the originals.

Spans opened by a forked process are lost with it, which is why a traced
served-jobs pass runs its jobs in-process (see ``workloads.py``).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from typing import Any, Callable

#: ``count(args, kwargs, result)`` -> work units one call did.
CountFn = Callable[[tuple, dict, Any], float]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        #: Work units per span name, summed over every call.
        self.units: dict[str, float] = {}
        self.op_id = 0
        #: While False, wrappers call straight through (output checks).
        self.active = True
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._epoch = time.perf_counter()
        #: Instances collected by :meth:`collect`, per class name.
        self.instances: dict[str, dict[int, Any]] = {}

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrapper(self, original: Callable, name: str, count: CountFn | None) -> Callable:
        nid = self._name_id(name)
        self.units.setdefault(name, 0.0)
        stack = self._stack
        name_of, start, end, parent, op = (
            self.name_of, self.start, self.end, self.parent, self.op,
        )
        clock = time.perf_counter
        units = self.units
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            index = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if count is not None:
                units[name] += count(args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def wrap_method(self, cls: type, attr: str, name: str, count: CountFn | None = None) -> None:
        """Trace ``cls.attr`` (defined on ``cls`` itself) as span ``name``."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, count))

    def wrap_function(self, module: Any, attr: str, name: str, count: CountFn | None = None) -> None:
        """Trace ``module.attr`` everywhere a ``repro`` module imported it."""
        original = getattr(module, attr)
        wrapped = self._wrapper(original, name, count)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def collect(self, cls: type) -> None:
        """Remember every instance ``cls`` constructs (no span)."""
        original = cls.__dict__["__init__"]
        bucket = self.instances.setdefault(cls.__name__, {})

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            bucket[id(obj)] = obj

        self._patches.append((cls, "__init__", original))
        cls.__init__ = init

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def collected(self, cls_name: str) -> list[Any]:
        return list(self.instances.get(cls_name, {}).values())

    # -- aggregation -----------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: outermost calls, inclusive and self seconds.

        A call nested in a call of the same name (a subclass override
        calling ``super()``, a JSON write delegating to the bytes write)
        counts once, through its outermost span.  Self time is a span's
        duration minus the part its direct child spans cover.
        """
        n = len(self.start)
        child_cover = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_cover[p] += self.end[i] - self.start[i]
        out = {
            name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "units": self.units.get(name, 0.0)}
            for name in self.names
        }
        for i in range(n):
            entry = out[self.names[self.name_of[i]]]
            duration = self.end[i] - self.start[i]
            entry["self_s"] += duration - child_cover[i]
            p = self.parent[i]
            if p >= 0 and self.name_of[p] == self.name_of[i]:
                continue
            entry["calls"] += 1
            entry["incl_s"] += duration
        return out

    def write(self, path: str) -> int:
        """Dump every span as one JSON line; returns the span count."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names, "columns": ["name", "start_s", "end_s", "parent", "op"]}) + "\n")
            epoch = self._epoch
            for i in range(len(self.start)):
                handle.write(
                    f"[{self.name_of[i]},{self.start[i] - epoch:.7f},"
                    f"{self.end[i] - epoch:.7f},{self.parent[i]},{self.op[i]}]\n"
                )
        return len(self.start)
