"""Result cache + store lifecycle: memoized serving and bounded disk.

Profiling is durable in the :class:`~repro.workbench.store.ProfileStore`;
this module makes re-partitioning durable too, and keeps the shared
directory bounded:

* :class:`ResultCache` — content-addressed memoization of solved
  :class:`~repro.core.partitioner.PartitionResult` artifacts.  A request
  is keyed by everything that determines its answer — scenario name,
  version, and :meth:`~repro.workbench.scenarios.Scenario.content_fingerprint`,
  resolved parameters, profiler configuration, resolved platform, and
  the full request payload (objective, budgets, rate, formulation,
  gap and time limit) — so a hit can be served *byte-identically in
  canonical form* without touching the solver.  Entries live next to
  the profile store's in the same directory, through the same
  :class:`~repro.workbench.store.DocumentStore`, which is what lets
  every server worker (and every server process) share one cache
  through the store directory.

* :class:`StoreJanitor` — eviction/GC for a durable store directory:
  TTL expiry, LRU size/count budgets (disk hits bump entry mtimes, so
  recency tracks *use*), and cleanup of leftover temp files and
  unparseable entries.  Every removal is a single atomic unlink and
  every reader already degrades a vanished entry to a cache miss, so
  the janitor is safe to run while writers write and readers read; a
  *grace window* (mtime-based) protects in-flight writes, whose temp
  file legitimately precedes its rename into place.

``python -m repro store gc|stats`` exposes the janitor on the command
line; ``tests/workbench/test_janitor.py`` runs it against live
concurrent writers.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ..core.cut import InfeasiblePartition
from ..core.partitioner import PartitionResult
from ..dataflow.graph import StreamGraph
from ..profiler.profiler import Profiler
from ..runtime.frames import decode_message, encode_message
from . import artifacts
from .scenarios import Scenario, get_scenario
from .store import DocumentStore, profiler_config, store_dir

#: Filename prefix of result-cache entries inside a store directory.
RESULT_PREFIX = "result-"

#: ``kind`` tag of a cached infeasible answer (no artifact exists to
#: store, but the *knowledge* that the request is infeasible is itself a
#: solver outcome worth memoizing).
_INFEASIBLE_KIND = "infeasible_result"


def result_key(
    scenario: str | Scenario,
    params: Mapping[str, Any] | None,
    profiler: Profiler | Mapping[str, Any] | None,
    platform: str,
    request: Any,
) -> str:
    """Content hash identifying one partition request's answer.

    ``profiler`` may be a :class:`Profiler`, a config mapping (the wire
    form), or ``None`` (the workbench default configuration) — all three
    normalize to the same key, mirroring how the session and the server
    resolve the same defaults; a malformed mapping raises
    :class:`~repro.workbench.scenarios.WorkbenchError`.  ``platform`` is
    the serving default; the request's own platform, when set, wins.
    The key is shared verbatim by :meth:`Session.partition_many` and the
    partition server, which is what makes one durable directory a single
    cache for both.
    """
    scenario = get_scenario(scenario)
    params = scenario.resolve_params(params or {})
    cfg = profiler_config(profiler)
    payload = dict(request.to_payload())
    payload["platform"] = payload.get("platform") or platform
    blob = json.dumps(
        {
            "kind": "partition_result",
            "scenario": scenario.name,
            "scenario_version": scenario.version,
            "scenario_fingerprint": scenario.content_fingerprint(params),
            "params": {k: params[k] for k in sorted(params)},
            "profiler": cfg,
            "request": payload,
        },
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


#: Serializes first encodings and decodings, so each entry's wire
#: form and its decoded answer are each built at most once.
_WIRE_LOCK = threading.Lock()


class CacheEntry:
    """One remembered answer: its document and its wire form.

    Built from either side; the other is derived on first use and
    kept.  :meth:`wire` encodes the answer on first use, so a hit
    served over the network costs no ``json.dumps``.  An entry built
    from ``wire`` alone (a fresh answer a server worker encoded) is
    forwarded as is and decoded only if something reads
    :attr:`document`; only solved partitions travel that way, since an
    infeasible answer is sent as ``null``, so such an entry is never
    :attr:`infeasible`.  The memory LRU bounds the kept bytes along
    with the entries.
    """

    __slots__ = ("_document", "_wire")

    def __init__(
        self,
        document: dict[str, Any] | None = None,
        wire: bytes | None = None,
    ) -> None:
        self._document = document
        self._wire = wire

    @property
    def document(self) -> dict[str, Any]:
        with _WIRE_LOCK:
            if self._document is None:
                self._document = decode_message(self._wire)
            return self._document

    @property
    def infeasible(self) -> bool:
        """Whether this entry records a proven-infeasible request."""
        document = self._document
        return (
            document is not None
            and document.get("kind") == _INFEASIBLE_KIND
        )

    def wire(self) -> bytes:
        """``encode_message(document)``, built at most once."""
        with _WIRE_LOCK:
            if self._wire is None:
                self._wire = encode_message(self._document)
            return self._wire


def infeasible_document() -> dict[str, Any]:
    """The document a cached infeasible answer is stored as."""
    return {
        "schema": "repro.workbench",
        "schema_version": artifacts.SCHEMA_VERSION,
        "kind": _INFEASIBLE_KIND,
        "payload": None,
    }


class ResultCache:
    """Content-addressed storage of solved partition results.

    Args:
        root: directory shared with a durable
            :class:`~repro.workbench.store.ProfileStore` (entries are
            distinguished by the :data:`RESULT_PREFIX` filename prefix),
            or ``None`` for a purely in-process cache.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = store_dir(root)
        self._entries = DocumentStore(self.root, RESULT_PREFIX)
        self.stats = self._entries.stats

    # -- lookups ------------------------------------------------------------

    def lookup(self, key: str) -> CacheEntry | None:
        """The cached entry, or ``None`` on miss (a corrupt disk entry
        included); a disk hit touches the entry's mtime so the
        janitor's LRU policies see the use."""
        return self._entries.lookup(key, CacheEntry)

    def materialize(
        self, entry: CacheEntry, graph: StreamGraph | None = None
    ) -> PartitionResult | None:
        """Reconstruct a cached entry (``None`` for cached infeasibility).

        The returned result is materialized from the stored document, so
        its canonical form is byte-identical to the solve that populated
        the entry; the document is deep-copied first so callers can
        never mutate the cached payload through shared sub-objects.
        """
        if entry.infeasible:
            return None
        return artifacts.from_document(
            copy.deepcopy(entry.document), graph=graph
        )

    # -- population ---------------------------------------------------------

    def store(
        self,
        key: str,
        result: PartitionResult | None,
        graph_ref: Mapping[str, Any] | None = None,
    ) -> None:
        """Record one solved answer (``None`` = proven infeasible)."""
        if result is None:
            document = infeasible_document()
        else:
            document = artifacts.to_document(result, graph_ref)
        self.store_document(key, document)

    def store_document(
        self,
        key: str,
        document: dict[str, Any] | None,
        wire: bytes | None = None,
    ) -> CacheEntry | None:
        """Record an already-serialized answer.

        Returns the remembered entry.  ``wire`` is the answer's
        ``encode_message(document)`` when the caller has already
        encoded it (a server worker about to reply): the entry keeps
        those bytes, and the durable write is made from them.
        ``document=None`` records infeasibility, mirroring the ``None``
        slots the worker protocol uses for skipped requests, and
        returns ``None``.
        """
        if document is None:
            self.store(key, None)
            return None
        self._entries.write(key, document, encoded=wire)
        entry = CacheEntry(document, wire)
        self._entries.keep(key, entry)
        return entry

    def remember(self, key: str, entry: CacheEntry | None) -> None:
        """Count one stored answer and keep it in memory, writing
        nothing: the partition server's workers already wrote the
        durable entry.  ``None`` records infeasibility."""
        if entry is None:
            entry = CacheEntry(infeasible_document())
        self._entries.keep(key, entry)

    def add_store_errors(self, count: int) -> None:
        """Count durable writes that failed in another process."""
        self._entries.count_write_errors(count)

    def raise_infeasible(self, key: str) -> None:
        """The error a cached-infeasible hit raises under strict mode."""
        raise InfeasiblePartition(
            f"request is infeasible (cached result {key})"
        )

    def clear_memory(self) -> None:
        """Drop the in-process view (disk entries survive)."""
        self._entries.clear_memory()


# ---------------------------------------------------------------------------
# GC
# ---------------------------------------------------------------------------


@dataclass
class GCStats:
    """What one :meth:`StoreJanitor.sweep` saw and did."""

    scanned_entries: int = 0
    live_entries: int = 0
    live_bytes: int = 0
    removed_expired: int = 0
    removed_lru: int = 0
    removed_corrupt: int = 0
    removed_temp_files: int = 0
    reclaimed_bytes: int = 0
    dry_run: bool = False

    @property
    def removed_entries(self) -> int:
        return self.removed_expired + self.removed_lru + self.removed_corrupt


@dataclass
class _Entry:
    """One complete store entry: a parseable JSON file."""

    path: Path
    mtime: float
    size: int
    kind: str


class StoreJanitor:
    """Eviction/GC over one durable store directory.

    Policies (all optional, combined):

    * ``ttl`` — entries unused (mtime) for longer than this many seconds
      are expired;
    * ``max_bytes`` / ``max_entries`` — over budget, least-recently-used
      entries (mtime order; disk hits touch entries) are evicted until
      the directory fits;
    * garbage sweep (always on) — leftover ``*.tmp.*`` files (killed
      writers) and unparseable JSON bodies are removed.

    ``grace_seconds`` is the concurrency guard: nothing younger than the
    grace window is ever removed, which protects in-flight writes (a
    fresh temp file whose rename is still pending looks exactly like a
    killed writer's leftover) and just-written entries.  Everything
    else is safe by construction: removals are atomic unlinks, and
    every store/cache reader treats a vanished entry as a miss.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        ttl: float | None = None,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        grace_seconds: float = 60.0,
    ) -> None:
        self.root = store_dir(root)
        self.ttl = ttl
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.grace_seconds = grace_seconds

    # -- scanning -----------------------------------------------------------

    @staticmethod
    def _kind_of(path: Path) -> str:
        if path.name.startswith(RESULT_PREFIX):
            return "result"
        return "measurement"

    def _scan(self):
        """(entries, corrupt json paths, temp files)."""
        entries: list[_Entry] = []
        corrupt: list[Path] = []
        temps: list[Path] = []
        try:
            listing = sorted(self.root.iterdir())
        except OSError:
            return entries, corrupt, temps
        for path in listing:
            if ".tmp." in path.name:
                temps.append(path)
                continue
            if not path.name.endswith(".json"):
                continue
            try:
                stat = path.stat()
                artifacts.read_document(path)
            except (OSError, ValueError):
                # Vanished mid-scan (concurrent GC/writer), truncated,
                # or not a JSON object: a miss for every reader.
                if path.exists():
                    corrupt.append(path)
                continue
            entries.append(
                _Entry(
                    path=path,
                    mtime=stat.st_mtime,
                    size=stat.st_size,
                    kind=self._kind_of(path),
                )
            )
        return entries, corrupt, temps

    # -- reporting ----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """A machine-readable snapshot (``python -m repro store stats``)."""
        entries, corrupt, temps = self._scan()
        kinds: dict[str, int] = {}
        for entry in entries:
            kinds[entry.kind] = kinds.get(entry.kind, 0) + 1
        return {
            "root": str(self.root),
            "entries": len(entries),
            "entries_by_kind": {k: kinds[k] for k in sorted(kinds)},
            "entry_bytes": sum(e.size for e in entries),
            "corrupt_entries": len(corrupt),
            "temp_files": len(temps),
        }

    # -- sweeping -----------------------------------------------------------

    def sweep(
        self, dry_run: bool = False, now: float | None = None
    ) -> GCStats:
        """Apply every policy once; returns what was (or would be) done."""
        now = time.time() if now is None else now
        cutoff = now - self.grace_seconds
        entries, corrupt, temps = self._scan()
        gc = GCStats(scanned_entries=len(entries), dry_run=dry_run)

        def removable(path: Path) -> bool:
            # Strictly older than the cutoff: an entry *exactly* at the
            # grace edge is still inside its grace window and is kept.
            try:
                return path.stat().st_mtime < cutoff
            except OSError:
                return False

        def unlink(path: Path) -> int:
            size = _size_of(path)
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    return 0
            return size

        for path in temps:
            if removable(path):
                gc.reclaimed_bytes += unlink(path)
                gc.removed_temp_files += 1
        for path in corrupt:
            if removable(path):
                gc.reclaimed_bytes += unlink(path)
                gc.removed_corrupt += 1

        live: list[_Entry] = []
        for entry in entries:
            expired = (
                self.ttl is not None
                and entry.mtime < now - self.ttl
                and entry.mtime < cutoff
            )
            if expired:
                gc.reclaimed_bytes += unlink(entry.path)
                gc.removed_expired += 1
            else:
                live.append(entry)

        # LRU: oldest-mtime first until both budgets fit; entries inside
        # the grace window are never candidates.
        if self.max_bytes is not None or self.max_entries is not None:
            live.sort(key=lambda e: e.mtime)
            total = sum(e.size for e in live)
            count = len(live)
            survivors: list[_Entry] = []
            for entry in live:
                over_bytes = (
                    self.max_bytes is not None and total > self.max_bytes
                )
                over_count = (
                    self.max_entries is not None and count > self.max_entries
                )
                if (over_bytes or over_count) and entry.mtime < cutoff:
                    gc.reclaimed_bytes += unlink(entry.path)
                    gc.removed_lru += 1
                    total -= entry.size
                    count -= 1
                else:
                    survivors.append(entry)
            live = survivors

        gc.live_entries = len(live)
        gc.live_bytes = sum(e.size for e in live)
        return gc


def _size_of(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0
