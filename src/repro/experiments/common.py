"""Shared scenario access for the experiment harnesses.

The harnesses follow the paper's methodology — profile once, then
re-partition under many budgets/rates (§4.3) — through the workbench's
:class:`~repro.workbench.store.ProfileStore`: measurements are cached by
content hash (scenario + params + profiler configuration) and every
caller gets *defensive copies* materialized from the cached payload, so
one harness mutating a graph or profile can never corrupt another.

Set the ``REPRO_STORE`` environment variable to a directory to make the
cache durable across processes; by default it lives in memory for the
current process only.

All harness profiling runs use the batched executor (the workbench
default): the measurement is provably identical to the scalar run (see
``tests/dataflow/test_batch_equivalence.py``), and every figure driver
built on these helpers inherits the speedup.
"""

from __future__ import annotations

import os

from ..dataflow.graph import StreamGraph
from ..platforms import get_platform
from ..profiler.profiler import Measurement
from ..profiler.records import GraphProfile
from ..workbench.store import ProfileStore

#: Environment variable naming a durable store directory.
STORE_ENV = "REPRO_STORE"

_STORE: ProfileStore | None = None


def default_store() -> ProfileStore:
    """The process-wide store the harnesses share (honours ``REPRO_STORE``)."""
    global _STORE
    if _STORE is None:
        root = os.environ.get(STORE_ENV)
        _STORE = ProfileStore(root or None)
    return _STORE


def clear_cache() -> None:
    """Drop the in-process handle to the shared store.

    The next :func:`default_store` call re-reads ``REPRO_STORE`` — note
    that entries in a durable store directory survive this; only the
    in-memory payload cache is discarded.  Benchmarks that must time
    *fresh* profiling should use a private ``ProfileStore()`` instead.
    """
    global _STORE
    _STORE = None


def measurement_for(
    scenario: str, **params
) -> tuple[StreamGraph, Measurement]:
    """(graph, measurement) for a registered scenario, cached by content."""
    return default_store().measurement(scenario, params)


def profile_for(scenario: str, platform_name: str, **params) -> GraphProfile:
    """A scenario's profile costed on a named platform."""
    _, measurement = measurement_for(scenario, **params)
    return measurement.on(get_platform(platform_name))
