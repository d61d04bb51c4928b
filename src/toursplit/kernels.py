"""Solver kernel selection: compiled extension when available, pure fallback.

Set ``TOURSPLIT_BACKEND=pure`` or ``TOURSPLIT_BACKEND=compiled`` to force a
lane (the latter raises if the extension was not built).
"""

from __future__ import annotations

import os

_forced = os.environ.get("TOURSPLIT_BACKEND", "").strip().lower()

if _forced == "pure":
    from . import _core_py as _impl

    BACKEND = "pure"
elif _forced == "compiled":
    from . import _core as _impl  # type: ignore[attr-defined]

    BACKEND = "compiled"
elif _forced:
    raise ValueError(f"unknown TOURSPLIT_BACKEND value: {_forced!r}")
else:
    try:
        from . import _core as _impl  # type: ignore[attr-defined]

        BACKEND = "compiled"
    except ImportError:
        from . import _core_py as _impl

        BACKEND = "pure"

shortest_cycle = _impl.shortest_cycle
cycle_lengths_by_subset = _impl.cycle_lengths_by_subset
min_max_partition = _impl.min_max_partition

# The pure partition search reads a table that computes each subset's value
# on first read, from a seeded limit; the compiled search copies a whole
# table into C, so only the pure lane exports these two.
if BACKEND == "pure":
    LazySubsetTable = _impl.LazySubsetTable
    partition_limit = _impl.partition_limit
