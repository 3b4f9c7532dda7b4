"""Helpers shared by the test and benchmark suites."""

import os


def store_bytes(root) -> dict[str, bytes]:
    """Every file of a checkpoint store directory, keyed by name.

    Two stores are byte-identical exactly when these dicts are equal.
    """
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as handle:
            out[name] = handle.read()
    return out
