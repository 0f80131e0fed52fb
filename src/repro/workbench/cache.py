"""Result cache + store lifecycle: memoized serving and bounded disk.

This module closes the serving loop the rest of the workbench left
open.  The profile-once half of the paper's workflow has been durable
since the :class:`~repro.workbench.store.ProfileStore` landed; the
re-partition-many half still re-solved its MILP for every repeated
request, and the durable store itself only ever grew (same-key writer
races even orphan the loser's content-addressed sidecar on disk).  Two
classes fix both ends of the lifecycle:

* :class:`ResultCache` — content-addressed memoization of solved
  :class:`~repro.core.partitioner.PartitionResult` artifacts.  A request
  is keyed by everything that determines its answer — scenario name,
  version, and :meth:`~repro.workbench.scenarios.Scenario.content_fingerprint`,
  resolved parameters, profiler configuration, resolved platform, and
  the full request payload (objective, budgets, rate, formulation,
  gap and time limit) — so a hit can be served *byte-identically in
  canonical form* without touching the solver.  Entries live next to
  the profile store's in the same directory, written with the same
  writer-race-safe content-addressed
  :func:`~repro.workbench.artifacts.write_document` convention, which
  is what lets every server worker (and every server
  process) share one cache through the store directory.

* :class:`StoreJanitor` — eviction/GC for a durable store directory:
  TTL expiry, LRU size/count budgets (disk hits bump entry mtimes, so
  recency tracks *use*), an orphan-sidecar sweep for the race losers,
  and leftover temp-file cleanup.  Every removal is a single atomic
  unlink and every reader already degrades a vanished entry to a cache
  miss, so the janitor is safe to run while writers write and readers
  read; a *grace window* (mtime-based) protects in-flight writes, whose
  sidecar legitimately precedes its JSON body on disk.

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
from .store import profiler_config, read_entry, store_dir

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
    """One remembered answer: ``(document, arrays)`` and its wire form.

    Built from either side; the other is derived on first use and
    kept.  Unpacks like the plain pair.  :meth:`wire` encodes the
    answer on first use, so a hit served over the network costs no
    ``json.dumps`` or ``np.savez``.  An entry built by
    :meth:`from_wire` (a fresh answer a server worker encoded) is
    forwarded as is and decoded only if something reads
    :attr:`document` or :attr:`arrays`.  The memory LRU bounds the
    kept bytes along with the entries.
    """

    __slots__ = ("_answer", "_wire")

    def __init__(
        self,
        document: dict[str, Any] | None = None,
        arrays: dict[str, Any] | None = None,
        wire: tuple[bytes, bytes] | None = None,
    ) -> None:
        self._answer = None if document is None else (document, arrays or {})
        self._wire = wire

    @classmethod
    def from_wire(cls, header: bytes, body: bytes) -> "CacheEntry":
        """An entry around ``encode_message(document, arrays)`` bytes.

        Only solved partitions travel as wire bytes: an infeasible
        answer is sent as ``null`` (see the server's result frames), so
        such an entry is never :attr:`infeasible`.
        """
        return cls(wire=(header, body))

    def _decoded(self) -> tuple[dict[str, Any], dict[str, Any]]:
        with _WIRE_LOCK:
            if self._answer is None:
                self._answer = decode_message(*self._wire)
            return self._answer

    @property
    def document(self) -> dict[str, Any]:
        return self._decoded()[0]

    @property
    def arrays(self) -> dict[str, Any]:
        return self._decoded()[1]

    def __iter__(self):
        return iter(self._decoded())

    @property
    def infeasible(self) -> bool:
        """Whether this entry records a proven-infeasible request."""
        answer = self._answer
        return (
            answer is not None and answer[0].get("kind") == _INFEASIBLE_KIND
        )

    def wire(self) -> tuple[bytes, bytes]:
        """``encode_message(document, arrays)``, built at most once."""
        with _WIRE_LOCK:
            if self._wire is None:
                self._wire = encode_message(*self._answer)
            return self._wire


def _infeasible_document() -> dict[str, Any]:
    """The document a cached infeasible answer is stored as."""
    return {
        "schema": "repro.workbench",
        "schema_version": artifacts.SCHEMA_VERSION,
        "kind": _INFEASIBLE_KIND,
        "payload": None,
    }


@dataclass
class ResultCacheStats:
    """Hit/miss/store counters (observability + the CLI ``--stats``)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    store_errors: int = 0


class ResultCache:
    """Content-addressed storage of solved partition results.

    Args:
        root: directory shared with a durable
            :class:`~repro.workbench.store.ProfileStore` (entries are
            distinguished by the :data:`RESULT_PREFIX` filename prefix),
            or ``None`` for a purely in-process cache.
        max_memory_entries: LRU bound on the in-process payload cache,
            so a long-lived server's resident set stays flat however
            many distinct requests it serves (disk entries — bounded by
            the :class:`StoreJanitor` instead — are unaffected; an
            evicted durable entry is simply re-read on its next hit).
            ``None`` removes the bound.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        max_memory_entries: int | None = 1024,
    ) -> None:
        self.root = store_dir(root)
        self.max_memory_entries = max_memory_entries
        self._memory: dict[str, CacheEntry] = {}
        # The partition server shares one cache across its
        # per-connection handler threads; the LRU bookkeeping (and the
        # counters) must not interleave.
        self._lock = threading.Lock()
        self.stats = ResultCacheStats()

    def _remember(self, key: str, entry: CacheEntry) -> None:
        """Insert as most-recently-used; evict the oldest over the cap."""
        with self._lock:
            self._memory.pop(key, None)
            self._memory[key] = entry
            if self.max_memory_entries is not None:
                while len(self._memory) > self.max_memory_entries:
                    self._memory.pop(next(iter(self._memory)))

    def _path_for(self, key: str) -> Path:
        return self.root / f"{RESULT_PREFIX}{key}.json"

    # -- lookups ------------------------------------------------------------

    def lookup(self, key: str) -> CacheEntry | None:
        """The cached ``(document, arrays)`` entry, or ``None`` on miss.

        Corrupt/truncated disk entries degrade to a miss (exactly like
        the profile store); a disk hit touches the entry's mtime so the
        janitor's LRU policies see the use.
        """
        with self._lock:
            entry = self._memory.get(key)
        if entry is None and self.root is not None:
            loaded = read_entry(self._path_for(key))
            if loaded is not None:
                document, arrays = loaded
                # Keep the payload in the on-wire shape: the disk
                # convention's sidecar pointer is local bookkeeping,
                # not part of the document (see store_document).
                document.pop("npz", None)
                entry = CacheEntry(document, arrays)
        if entry is None:
            with self._lock:
                self.stats.misses += 1
            return None
        self._remember(key, entry)
        with self._lock:
            self.stats.hits += 1
        return entry

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
        document, arrays = entry
        return artifacts.from_document(copy.deepcopy(document), arrays, graph)

    # -- population ---------------------------------------------------------

    def store(
        self,
        key: str,
        result: PartitionResult | None,
        graph_ref: Mapping[str, Any] | None = None,
    ) -> None:
        """Record one solved answer (``None`` = proven infeasible)."""
        if result is None:
            document, arrays = _infeasible_document(), {}
        else:
            document, arrays = artifacts.to_document(result, graph_ref)
        self.store_document(key, document, arrays)

    def store_document(
        self,
        key: str,
        document: dict[str, Any] | None,
        arrays: Mapping[str, Any] | None,
        wire: tuple[bytes, bytes] | None = None,
    ) -> CacheEntry | None:
        """Record an already-serialized answer.

        Returns the remembered entry.  ``wire`` is the answer's
        ``encode_message(document, arrays)`` when the caller has
        already encoded it (a server worker about to reply): the entry
        keeps those bytes, and the durable write is made from them.
        ``document=None`` records infeasibility, mirroring the ``None``
        slots the worker protocol uses for skipped requests, and
        returns ``None``.
        """
        if document is None:
            self.store(key, None)
            return None
        arrays = dict(arrays or {})
        if self.root is not None:
            # write_document records its sidecar name *in* the document
            # it writes; hand it a copy so the caller's dict and the
            # remembered entry stay in the pure wire shape.
            try:
                artifacts.write_document(
                    self._path_for(key),
                    dict(document),
                    arrays,
                    encoded=wire,
                )
            except OSError:
                # A failed durable write must not fail the request:
                # the in-memory entry below still answers this
                # process; only cross-process sharing is lost.
                with self._lock:
                    self.stats.store_errors += 1
        entry = CacheEntry(document, arrays, wire)
        self.remember(key, entry)
        return entry

    def remember(self, key: str, entry: CacheEntry | None) -> None:
        """Count one stored answer and keep it in memory, writing
        nothing: the partition server's workers already wrote the
        durable entry.  ``None`` records infeasibility."""
        if entry is None:
            entry = CacheEntry(_infeasible_document())
        self._remember(key, entry)
        with self._lock:
            self.stats.stores += 1

    def add_store_errors(self, count: int) -> None:
        """Count durable writes that failed in another process."""
        with self._lock:
            self.stats.store_errors += count

    def raise_infeasible(self, key: str) -> None:
        """The error a cached-infeasible hit raises under strict mode."""
        raise InfeasiblePartition(
            f"request is infeasible (cached result {key})"
        )

    def clear_memory(self) -> None:
        """Drop the in-process view (disk entries survive)."""
        self._memory.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = str(self.root) if self.root is not None else "memory"
        return (
            f"ResultCache({where}, {len(self._memory)} cached, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )


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
    removed_orphan_sidecars: int = 0
    removed_temp_files: int = 0
    reclaimed_bytes: int = 0
    dry_run: bool = False

    @property
    def removed_entries(self) -> int:
        return self.removed_expired + self.removed_lru + self.removed_corrupt


@dataclass
class _Entry:
    """One complete store entry: JSON body + (optional) npz sidecar."""

    path: Path
    mtime: float
    size: int
    npz: Path | None
    kind: str


class StoreJanitor:
    """Eviction/GC over one durable store directory.

    Policies (all optional, combined):

    * ``ttl`` — entries unused (mtime) for longer than this many seconds
      are expired;
    * ``max_bytes`` / ``max_entries`` — over budget, least-recently-used
      entries (mtime order; disk hits touch entries) are evicted until
      the directory fits;
    * orphan sweep (always on) — npz sidecars no live JSON references
      (same-key write-race losers), leftover ``*.tmp.*`` files, and
      unparseable JSON bodies are removed.

    ``grace_seconds`` is the concurrency guard: nothing younger than the
    grace window is ever removed, which protects in-flight writes (a
    fresh sidecar whose JSON has not landed yet looks exactly like an
    orphan) and just-written entries.  Everything else is safe by
    construction: removals are atomic unlinks, and every store/cache
    reader treats a vanished or half-gone entry as a miss.
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
        if path.name.startswith("artifact-"):
            return "artifact"
        return "measurement"

    def _scan(self):
        """(entries, corrupt json paths, orphan sidecars, temp files)."""
        entries: list[_Entry] = []
        corrupt: list[Path] = []
        sidecars: dict[str, Path] = {}
        temps: list[Path] = []
        try:
            listing = sorted(self.root.iterdir())
        except OSError:
            return entries, corrupt, [], temps
        json_paths: list[Path] = []
        for path in listing:
            name = path.name
            if ".tmp." in name:
                temps.append(path)
            elif name.endswith(".npz"):
                sidecars[name] = path
            elif name.endswith(".json"):
                json_paths.append(path)
        for path in json_paths:
            try:
                stat = path.stat()
                document = json.loads(path.read_text())
                npz_name = document.get("npz")
            except (OSError, ValueError):
                # Vanished mid-scan (concurrent GC/writer) or truncated.
                if path.exists():
                    corrupt.append(path)
                continue
            npz = sidecars.pop(npz_name, None) if npz_name else None
            size = stat.st_size
            if npz is not None:
                try:
                    size += npz.stat().st_size
                except OSError:
                    npz = None
            entries.append(
                _Entry(
                    path=path,
                    mtime=stat.st_mtime,
                    size=size,
                    npz=npz,
                    kind=self._kind_of(path),
                )
            )
        return entries, corrupt, list(sidecars.values()), temps

    # -- reporting ----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """A machine-readable snapshot (``python -m repro store stats``)."""
        entries, corrupt, orphans, temps = self._scan()
        kinds: dict[str, int] = {}
        for entry in entries:
            kinds[entry.kind] = kinds.get(entry.kind, 0) + 1
        return {
            "root": str(self.root),
            "entries": len(entries),
            "entries_by_kind": {k: kinds[k] for k in sorted(kinds)},
            "entry_bytes": sum(e.size for e in entries),
            "corrupt_entries": len(corrupt),
            "orphan_sidecars": len(orphans),
            "orphan_bytes": sum(_size_of(p) for p in orphans),
            "temp_files": len(temps),
        }

    # -- sweeping -----------------------------------------------------------

    def sweep(
        self, dry_run: bool = False, now: float | None = None
    ) -> GCStats:
        """Apply every policy once; returns what was (or would be) done."""
        now = time.time() if now is None else now
        cutoff = now - self.grace_seconds
        entries, corrupt, orphans, temps = self._scan()
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

        for path in orphans:
            if removable(path):
                gc.reclaimed_bytes += unlink(path)
                gc.removed_orphan_sidecars += 1
        for path in temps:
            if removable(path):
                gc.reclaimed_bytes += unlink(path)
                gc.removed_temp_files += 1
        for path in corrupt:
            if removable(path):
                gc.reclaimed_bytes += unlink(path)
                gc.removed_corrupt += 1

        def evict(entry: _Entry) -> None:
            gc.reclaimed_bytes += unlink(entry.path)
            if entry.npz is not None:
                gc.reclaimed_bytes += unlink(entry.npz)

        live: list[_Entry] = []
        for entry in entries:
            expired = (
                self.ttl is not None
                and entry.mtime < now - self.ttl
                and entry.mtime < cutoff
            )
            if expired:
                evict(entry)
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
                    evict(entry)
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
