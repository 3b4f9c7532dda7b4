"""End-to-end and per-layer benchmark for the ``repro`` package.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload against the source tree next to this directory and
prints one JSON result line; ``perfbench/README.md`` explains the
workloads and metrics.
"""

from __future__ import annotations

import os
import sys

#: Checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The package source the benchmark measures.
SRC = os.path.join(ROOT, "src")
#: Scratch space for service roots, span dumps and result files.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


class MissingSourceError(RuntimeError):
    """The checkout has no ``src/repro`` to benchmark."""


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Refuses to fall back to any installed copy of ``repro``: the
    benchmark measures the source tree it ships with or nothing.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingSourceError(f"no repro package under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
