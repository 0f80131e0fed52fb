"""The profile store, and the durable document store under it.

The paper's methodology profiles *once* and re-partitions many times
(§4.3); the :class:`ProfileStore` makes the expensive half of that
durable.  A measurement is keyed by the content hash of everything that
determines it — scenario name + version, fully-resolved parameters, and
the profiler configuration — so any process asking for the same triple
gets the cached record, across restarts when the store has a root
directory.

Every :meth:`~ProfileStore.measurement` call materializes *fresh*
objects (a new graph, a new
:class:`~repro.profiler.profiler.Measurement`) from the stored document,
so a caller that mutates its profile cannot change what any other
caller gets.  ``root=None`` keeps the store in memory — the right
default for tests and one-shot runs.

Profiles and cached answers
(:class:`~repro.workbench.cache.ResultCache`) share one directory and
one mechanism, :class:`DocumentStore`: one path rule, one locked memory
map of at most :data:`MEMORY_ENTRIES` entries, one read that turns a bad
file into a miss, and one counted write through
:func:`~repro.workbench.artifacts.write_document`.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from ..dataflow.graph import StreamGraph
from ..profiler.profiler import Measurement, Profiler
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


#: Entries one :class:`DocumentStore` keeps in memory, so a long-lived
#: process's resident set stays flat however many keys it serves; an
#: evicted durable entry is re-read from disk on its next use.
MEMORY_ENTRIES = 1024


@dataclass
class StoreStats:
    """One store's counters: lookups that hit (in memory or on disk)
    and missed, the disk hits among the hits, entries stored, and
    durable writes that failed."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    stores: int = 0
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


def _same(document: dict[str, Any]) -> Any:
    return document


class DocumentStore:
    """JSON documents in one directory, behind a bounded memory map.

    Each key's document lives in ``root / f"{prefix}{key}.json"``.
    The memory map keeps at most :data:`MEMORY_ENTRIES` values, least
    recently used evicted first; one lock guards it and :attr:`stats`,
    since the partition server shares a cache across its connection
    threads.  ``root=None`` keeps entries in memory only.
    """

    def __init__(self, root: Path | None, prefix: str = "") -> None:
        self.root = root
        self.prefix = prefix
        self.stats = StoreStats()
        self._memory: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()

    def _path_for(self, key: str) -> Path:
        return self.root / f"{self.prefix}{key}.json"

    def _keep_locked(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        if len(self._memory) > MEMORY_ENTRIES:
            self._memory.popitem(last=False)

    def lookup(
        self, key: str, wrap: Callable[[dict[str, Any]], Any] = _same
    ) -> Any | None:
        """The value kept for ``key``, else ``wrap`` of its durable
        document (kept from now on), else ``None``; counted as a hit
        or a miss.  A memory hit takes the lock once."""
        with self._lock:
            value = self._memory.get(key)
            if value is not None:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                return value
        document = self.read(key)
        value = None if document is None else wrap(document)
        with self._lock:
            if value is None:
                self.stats.misses += 1
            else:
                self._keep_locked(key, value)
                self.stats.hits += 1
                self.stats.disk_hits += 1
        return value

    def read(self, key: str) -> dict[str, Any] | None:
        """``key``'s durable document, or ``None`` on a miss.

        A missing, truncated, vanished, or non-object entry is a miss,
        never poison; the next write overwrites it.  So is one written
        under another schema or schema version: keys do not include the
        version, so an entry an older build wrote is re-solved and
        replaced rather than decoded or forwarded.  A hit bumps the
        entry's mtime, the LRU clock of
        :class:`~repro.workbench.cache.StoreJanitor` eviction, so
        recency tracks use rather than creation.
        """
        if self.root is None:
            return None
        path = self._path_for(key)
        if not path.exists():
            return None
        try:
            document, _ = artifacts.read_document(path)
        except (OSError, ValueError):
            return None
        if not artifacts.is_current(document):
            return None
        try:
            os.utime(path)
        except OSError:
            pass  # removed by the janitor since: the caller has the payload
        return document

    def keep(self, key: str, value: Any) -> None:
        """Keep ``value`` in memory as the most recently used; counted
        as one store."""
        with self._lock:
            self._keep_locked(key, value)
            self.stats.stores += 1

    def write(
        self, key: str, document: dict[str, Any], encoded: bytes | None = None
    ) -> None:
        """Write ``key``'s durable entry, from ``encoded`` (the
        document's ``encode_message`` bytes) when the caller has them.

        A failed write costs persistence, not correctness: it is
        counted in :attr:`stats`, never raised, and the next process
        to miss re-computes the entry.
        """
        if self.root is None:
            return
        try:
            artifacts.write_document(
                self._path_for(key), document, encoded=encoded
            )
        except OSError:
            self.count_write_errors(1)

    def count_write_errors(self, count: int) -> None:
        """Count durable writes that failed, here or in another
        process."""
        with self._lock:
            self.stats.write_errors += count

    def clear_memory(self) -> None:
        """Drop the in-process view (disk entries survive)."""
        with self._lock:
            self._memory.clear()


class ProfileStore:
    """Content-hash-keyed storage for profiling measurements + artifacts.

    Args:
        root: the directory durable entries live in (created lazily),
            or ``None`` for a purely in-memory store.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = store_dir(root)
        # Each key's document; every read materializes fresh objects.
        self._documents = DocumentStore(self.root)
        self.stats = self._documents.stats

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

        document = self._documents.lookup(key)
        if document is None:
            graph, source_data, source_rates = scenario.instantiate(params)
            prof = profiler or Profiler(**DEFAULT_PROFILER_CONFIG)
            measured = prof.measure(graph, source_data, source_rates)
            document = artifacts.to_document(measured, graph_ref)
            self._documents.write(key, document)
            self._documents.keep(key, document)
            # The profiling graph is not cached anywhere (only the
            # serialized document is), so handing it to this caller is
            # as isolated as a fresh build — and saves one.
        else:
            graph = scenario.build(params)
        measurement = artifacts.from_document(
            copy.deepcopy(document), graph=graph
        )
        return graph, measurement
