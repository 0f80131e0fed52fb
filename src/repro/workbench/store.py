"""The profile store: content-hash-keyed, durable, defensive.

The paper's methodology profiles *once* and re-partitions many times
(§4.3); the :class:`ProfileStore` makes the expensive half of that
durable.  A measurement is keyed by the content hash of everything that
determines it — scenario name + version, fully-resolved parameters, and
the profiler configuration — so any process asking for the same triple
gets the cached record, across restarts when the store has a root
directory.

Two properties the old ``functools.lru_cache`` in ``experiments.common``
did not have:

* **isolation** — every :meth:`measurement` call materializes *fresh*
  objects from the cached payload (a new graph, a new
  :class:`~repro.profiler.profiler.Measurement`).  The lru_cache handed
  the same mutable ``StreamGraph``/``Measurement`` to every caller, so
  one harness mutating a profile silently corrupted every other
  experiment in the process.
* **durability** — with ``root`` set, payloads live on disk as
  JSON and survive process restarts; a fresh process
  reconstructs byte-identical profiles without re-executing the graph.

``root=None`` keeps the store in memory (payload dicts, still
materialized per call) — the right default for tests and one-shot runs.

The on-disk side is two functions shared with the result cache:
:func:`~repro.workbench.artifacts.write_document` (atomic, race-safe,
content-addressed sidecars) and :func:`read_entry` (digest-checked,
degrade-to-miss, mtime-touching).
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..dataflow.graph import StreamGraph
from ..profiler.profiler import Measurement, Profiler
from ..runtime.frames import SidecarError
from . import artifacts
from .scenarios import Scenario, WorkbenchError, get_scenario

#: Profiler settings participating in the content key, with the
#: workbench default (batched execution — what the experiment harnesses
#: use).
DEFAULT_PROFILER_CONFIG = {"batch": True}


def profiler_config(
    profiler: Profiler | Mapping[str, Any] | None,
) -> dict[str, Any]:
    """The content-key-relevant configuration of a profiler.

    ``profiler`` may be a :class:`Profiler`, a config mapping (the wire
    form), or ``None`` (the workbench default).  A mapping may name only
    the keys of :data:`DEFAULT_PROFILER_CONFIG`, missing keys take their
    defaults, and ``batch`` must be a bool; anything else raises
    :class:`WorkbenchError`, so every path that keys or builds a
    profiler from wire input rejects a malformed config the same way.
    """
    if profiler is None:
        return dict(DEFAULT_PROFILER_CONFIG)
    if isinstance(profiler, Profiler):
        return {"batch": profiler.batch}
    if not isinstance(profiler, Mapping):
        raise WorkbenchError(
            f"profiler config must be a mapping, not "
            f"{type(profiler).__name__}"
        )
    unknown = sorted(set(profiler) - set(DEFAULT_PROFILER_CONFIG))
    if unknown:
        raise WorkbenchError(f"unknown profiler config keys: {unknown}")
    config = {**DEFAULT_PROFILER_CONFIG, **profiler}
    if not isinstance(config["batch"], bool):
        raise WorkbenchError(
            f"profiler config 'batch' must be a bool, not "
            f"{config['batch']!r}"
        )
    return config


@dataclass
class StoreStats:
    """Cache behaviour counters (observability + tests)."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    write_errors: int = 0


def store_dir(root: str | os.PathLike | None) -> Path | None:
    """The durable directory ``root`` names (``None``: in memory).

    A comma list or an ``@manifest.json`` reference was the spelling of
    a replicated ring, which no longer exists; read literally it would
    name a fresh, empty directory and every lookup would miss, so it is
    refused with a :class:`WorkbenchError` instead.  A leading ``~``
    expands to the home directory, as a shell would expand it.
    """
    if root is None:
        return None
    text = str(root)
    if text.startswith("@") or "," in text:
        raise WorkbenchError(
            f"store {text!r} looks like a replicated-store ring spec; "
            f"the replicated store was removed: pass one directory"
        )
    return Path(root).expanduser()


def read_entry(path: Path) -> tuple[dict[str, Any], dict[str, Any]] | None:
    """One durable entry's ``(document, arrays)``, or ``None`` on a miss.

    A missing, truncated, partial, vanished, or digest-mismatched entry
    is a miss, never poison; the next write overwrites it.  So is one
    written under another schema or schema version: keys do not include
    the version, so an entry an older build wrote is re-solved and
    replaced rather than decoded or forwarded.  A hit bumps
    the entry's mtime, the LRU clock of
    :class:`~repro.workbench.cache.StoreJanitor` eviction, so recency
    tracks use rather than creation.
    """
    if not path.exists():
        return None
    try:
        document, arrays = artifacts.read_document(path)
    except (OSError, ValueError, SidecarError):
        return None
    if not artifacts.is_current(document):
        return None
    try:
        os.utime(path)
    except OSError:
        pass  # removed by the janitor since: the caller has the payload
    return document, arrays


@dataclass
class _CacheEntry:
    document: dict[str, Any]
    arrays: dict[str, Any] = field(default_factory=dict)


class ProfileStore:
    """Content-hash-keyed storage for profiling measurements + artifacts.

    Args:
        root: the directory durable entries live in (created lazily),
            or ``None`` for a purely in-memory store.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = store_dir(root)
        self._memory: dict[str, _CacheEntry] = {}
        self.stats = StoreStats()

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def measurement_key(
        scenario: Scenario,
        params: Mapping[str, Any],
        profiler: Profiler | None = None,
    ) -> str:
        """Content hash identifying one measurement.

        The scenario's :meth:`~Scenario.content_fingerprint` is part of
        the hash, so re-registering a scenario whose graph builder
        changed structurally (or whose version/fingerprint was bumped)
        stops matching measurements recorded under the old code instead
        of silently serving them.
        """
        blob = json.dumps(
            {
                "scenario": scenario.name,
                "scenario_version": scenario.version,
                "scenario_fingerprint": scenario.content_fingerprint(params),
                "params": {k: params[k] for k in sorted(params)},
                "profiler": profiler_config(profiler),
            },
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:32]

    # -- low-level payload cache -------------------------------------------

    def _path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _load_entry(self, key: str) -> _CacheEntry | None:
        entry = self._memory.get(key)
        if entry is not None:
            return entry
        if self.root is None:
            return None
        # A bad durable entry is a cache miss; the re-profile
        # overwrites it.
        loaded = read_entry(self._path_for(key))
        if loaded is None:
            return None
        document, arrays = loaded
        entry = _CacheEntry(document=document, arrays=arrays)
        self._memory[key] = entry
        self.stats.disk_hits += 1
        return entry

    def _store_entry(self, key: str, obj: Any, graph_ref) -> _CacheEntry:
        document, arrays = artifacts.to_document(obj, graph_ref)
        if self.root is not None:
            try:
                artifacts.write_document(self._path_for(key), document, arrays)
            except OSError:
                # A failed durable write costs persistence, not
                # correctness: the in-memory entry still serves this
                # process, and the next process re-profiles.
                self.stats.write_errors += 1
        entry = _CacheEntry(document=document, arrays=arrays)
        self._memory[key] = entry
        return entry

    # -- measurements -------------------------------------------------------

    def measurement(
        self,
        scenario: str | Scenario,
        params: Mapping[str, Any] | None = None,
        profiler: Profiler | None = None,
    ) -> tuple[StreamGraph, Measurement]:
        """The (graph, measurement) pair for a scenario at some parameters.

        Profiles on a cache miss; returns freshly materialized objects on
        every call — mutating them cannot affect other callers or the
        stored payload.
        """
        scenario = get_scenario(scenario)
        params = scenario.resolve_params(params or {})
        key = self.measurement_key(scenario, params, profiler)
        graph_ref = {"scenario": scenario.name, "params": dict(params)}

        entry = self._load_entry(key)
        graph = None
        if entry is None:
            self.stats.misses += 1
            graph, source_data, source_rates = scenario.instantiate(params)
            prof = profiler or Profiler(**DEFAULT_PROFILER_CONFIG)
            measured = prof.measure(graph, source_data, source_rates)
            entry = self._store_entry(key, measured, graph_ref)
            # The profiling graph is not cached anywhere (only the
            # serialized document is), so handing it to this caller is
            # as isolated as a fresh build — and saves one.
        else:
            self.stats.hits += 1
        if graph is None:
            graph = scenario.build(params)
        measurement = artifacts.from_document(
            copy.deepcopy(entry.document), entry.arrays, graph
        )
        return graph, measurement

    # -- generic artifacts --------------------------------------------------

    def put(self, name: str, obj: Any, graph_ref=None) -> str:
        """Store an arbitrary artifact under a caller-chosen name."""
        key = f"artifact-{hashlib.sha256(name.encode()).hexdigest()[:24]}"
        self._store_entry(key, obj, graph_ref)
        return key

    def get(self, name: str, graph: StreamGraph | None = None) -> Any:
        """Load an artifact stored with :meth:`put`."""
        key = f"artifact-{hashlib.sha256(name.encode()).hexdigest()[:24]}"
        entry = self._load_entry(key)
        if entry is None:
            raise WorkbenchError(f"no stored artifact named {name!r}")
        return artifacts.from_document(
            copy.deepcopy(entry.document), entry.arrays, graph
        )

    # -- maintenance --------------------------------------------------------

    def clear_memory(self) -> None:
        """Drop the in-process payload cache (disk entries survive)."""
        self._memory.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = str(self.root) if self.root is not None else "memory"
        return (
            f"ProfileStore({where}, {len(self._memory)} cached, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
