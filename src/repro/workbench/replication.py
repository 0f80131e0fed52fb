"""Replicated durable store: consistent-hash placement, quorum writes,
read-repair, and anti-entropy.

The profile-once / re-partition-many economics of the paper (§4.3) only
hold if profiles and memoized results *survive* failures — and until
this module, one store directory was a single point of loss even though
the compute side of the serving stack is elastic and self-healing.
:class:`ReplicatedStore` fixes the storage side: it presents the same
layout interface a single directory does (see :class:`SingleLayout`),
but spreads content-addressed entries across N *backends* (directories
today, shard owners later) via a deterministic consistent-hash ring
with R-way replica placement — the partition-function + directory +
rebalancer pattern applied to our own storage layer.

The moving parts:

* :class:`HashRing` — sha256-based ring with virtual nodes.  Placement
  is a pure function of the entry name and the backend identifiers
  (independent of ``PYTHONHASHSEED``, process, or platform), so every
  session, server, and worker process computes the same replica set
  for the same key with no coordination.
* **Quorum writes** — :meth:`ReplicatedStore.write` pushes an entry
  through the race-safe
  :func:`~repro.workbench.artifacts.write_document` to each designated
  replica, with per-backend failure accounting; the write succeeds iff
  at least ``write_quorum`` replicas land (majority by default).  A
  quorum failure raises ``OSError`` — exactly what the store/cache
  callers already degrade on (counted in ``write_errors`` /
  ``store_errors``).
* **Read-repair** — :meth:`ReplicatedStore.read` falls through the
  designated replicas in ring order, verifies the content-addressed
  npz sidecar digest against the bytes actually read, and rewrites
  missing/corrupt copies from the first good one.  When no designated
  replica answers (the ring was resized under the entry), every other
  backend is consulted and a recovered entry is re-replicated onto its
  new home.
* **Anti-entropy** — :meth:`ReplicatedStore.anti_entropy` sweeps the
  union key set, re-replicates under-replicated entries (after a
  backend was lost or the ring resized) and prunes stray off-ring
  copies behind a grace window.  The
  :class:`~repro.workbench.cache.StoreJanitor` runs it as the first
  phase of every replicated sweep.

Writes are byte-identical across replicas by construction: ``np.savez``
is deterministic (fixed zip timestamps), so the content-addressed
sidecar name — and the JSON document referencing it — come out the
same bytes on every backend.  That is what lets read-repair and
anti-entropy compare replicas by content hash alone and lets chaos
tests pin the whole layer byte-identical under seeded
:class:`~repro.workbench.faults.FaultPlan` schedules (the replica-
scoped ``store.read`` site injects per-backend loss/corruption; the
``store.write`` site already fires once per replica write).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from bisect import bisect_right, insort
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..runtime.frames import SidecarError, unpack_arrays
from . import artifacts, faults

#: Errors a replica read degrades on (miss, never poison) — the same
#: set ``load_artifact`` treats as typed failures, so a replica whose
#: npz sidecar vanished entirely behaves exactly like a damaged one:
#: fall through to the next replica.
DEGRADE_ERRORS = (OSError, ValueError, SidecarError)


def _touch(path: Path) -> None:
    """Bump an entry's mtime (the janitor's LRU clock); best-effort."""
    try:
        os.utime(path)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Consistent-hash ring
# ---------------------------------------------------------------------------


class HashRing:
    """A deterministic consistent-hash ring with virtual nodes.

    Positions are the first 8 bytes of sha256 over
    ``"{backend}#{replica_index}"`` tokens, so the ring layout is a
    pure function of the backend identifiers — stable across
    processes, platforms, and hash seeds.  ``vnodes`` virtual points
    per backend keep key shares within a few percent of 1/N.
    """

    def __init__(
        self, backends: Sequence[str] = (), vnodes: int = 64
    ) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self.backends: list[str] = []
        self._points: list[tuple[int, str]] = []
        for backend in backends:
            self.add(backend)

    @staticmethod
    def _hash(token: str) -> int:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def add(self, backend: str) -> None:
        """Insert a backend's virtual points (idempotence is an error)."""
        backend = str(backend)
        if backend in self.backends:
            raise ValueError(f"backend {backend!r} already on the ring")
        self.backends.append(backend)
        for index in range(self.vnodes):
            insort(self._points, (self._hash(f"{backend}#{index}"), backend))

    def remove(self, backend: str) -> None:
        """Drop a backend and every virtual point it owns."""
        backend = str(backend)
        if backend not in self.backends:
            raise ValueError(f"backend {backend!r} is not on the ring")
        self.backends.remove(backend)
        self._points = [p for p in self._points if p[1] != backend]

    def replicas_for(self, key: str, n: int) -> list[str]:
        """The first ``n`` *distinct* backends clockwise from the key.

        The walk starts at the ring position of sha256(key) and
        collects distinct owners, so adding or removing one backend
        only relocates the keys whose walk crosses the changed points
        (~1/N of them) and never reorders the replica set of an
        untouched key.
        """
        if not self._points:
            return []
        n = min(n, len(self.backends))
        start = bisect_right(self._points, (self._hash(key), ""))
        chosen: list[str] = []
        total = len(self._points)
        for step in range(total):
            _, backend = self._points[(start + step) % total]
            if backend not in chosen:
                chosen.append(backend)
                if len(chosen) == n:
                    break
        return chosen

    def __len__(self) -> int:
        return len(self.backends)


# ---------------------------------------------------------------------------
# Layouts: where entries live on disk
# ---------------------------------------------------------------------------


class SingleLayout:
    """The classic layout: every entry in one directory.

    Reproduces the exact pre-replication semantics of the profile
    store and result cache — existence check, degrade-to-miss on any
    truncated/partial/vanished entry, mtime touch on disk hits.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def write(
        self,
        name: str,
        document: dict[str, Any],
        arrays: Mapping[str, Any],
        indent: int | None = None,
    ) -> None:
        artifacts.write_document(
            self.root / name, document, arrays, indent=indent
        )

    def read(
        self, name: str
    ) -> tuple[dict[str, Any], dict[str, Any]] | None:
        path = self.root / name
        if not path.exists():
            return None
        try:
            document, arrays = artifacts.read_document(path)
        except DEGRADE_ERRORS:
            # Truncated/partial/vanished entries degrade to a miss,
            # never poison future runs; a re-profile overwrites them.
            return None
        _touch(path)
        return document, arrays

    def spec(self) -> str:
        return str(self.root)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SingleLayout({self.root})"


@dataclass
class BackendStats:
    """Per-backend replica health counters."""

    writes: int = 0
    write_errors: int = 0
    reads: int = 0
    read_failures: int = 0
    repairs: int = 0


@dataclass
class ReplicationStats:
    """Logical (whole-ring) counters for one :class:`ReplicatedStore`."""

    writes: int = 0
    quorum_failures: int = 0
    reads: int = 0
    read_misses: int = 0
    read_repairs: int = 0
    recovered_reads: int = 0
    re_replicated: int = 0
    pruned_replicas: int = 0


@dataclass
class AntiEntropyStats:
    """What one :meth:`ReplicatedStore.anti_entropy` pass saw and did."""

    scanned_keys: int = 0
    re_replicated: int = 0
    pruned: int = 0
    repair_errors: int = 0
    unreadable_keys: int = 0
    dry_run: bool = False


class ReplicatedStore:
    """N-backend, R-replica layout over consistent-hash placement.

    Presents the same ``write``/``read`` surface as
    :class:`SingleLayout`, so a
    :class:`~repro.workbench.store.ProfileStore` or
    :class:`~repro.workbench.cache.ResultCache` constructed over it is
    replication-transparent.  One instance may be shared by a store
    and a cache (the :class:`~repro.workbench.session.Session` and the
    server both do), so the counters describe the whole directory.

    Args:
        backends: backend directories (created lazily by writes).
        replicas: copies per entry (clamped to the backend count).
        write_quorum: replica writes that must land for a write to
            succeed; default is a majority of the effective replicas.
        vnodes: virtual points per backend on the ring.
        on_event: optional ``(kind, detail)`` callback fired on
            backend health *transitions* (``store-degraded`` when a
            backend starts failing, ``store-restored`` when it serves
            again) — the server wires this into its
            :class:`~repro.workbench.membership.MembershipLog`.
    """

    def __init__(
        self,
        backends: Sequence[str | Path],
        replicas: int = 2,
        write_quorum: int | None = None,
        vnodes: int = 64,
        on_event: Callable[[str, str], None] | None = None,
    ) -> None:
        names = [str(b) for b in backends]
        if not names:
            raise ValueError("a replicated store needs >= 1 backend")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate backends: {names}")
        if write_quorum is not None and write_quorum < 1:
            raise ValueError("write_quorum must be >= 1")
        self.replicas = max(1, int(replicas))
        self.vnodes = vnodes
        self._explicit_quorum = write_quorum
        self.ring = HashRing(names, vnodes=vnodes)
        self.on_event = on_event
        self.stats = ReplicationStats()
        self.per_backend: dict[str, BackendStats] = {
            b: BackendStats() for b in names
        }
        # Fault-plan targeting index: assigned at add time, monotone,
        # never reused — rule ``backend: 1`` keeps meaning the second
        # backend ever added even across ring resizes.
        self._backend_index: dict[str, int] = {
            b: i for i, b in enumerate(names)
        }
        self._next_index = len(names)
        self._failing: set[str] = set()
        self._lock = threading.Lock()

    # -- ring membership ----------------------------------------------------

    @property
    def backends(self) -> list[str]:
        return list(self.ring.backends)

    @property
    def effective_replicas(self) -> int:
        return min(self.replicas, len(self.ring.backends))

    @property
    def write_quorum(self) -> int:
        if self._explicit_quorum is not None:
            return min(self._explicit_quorum, self.effective_replicas)
        return self.effective_replicas // 2 + 1

    def add_backend(self, backend: str | Path) -> None:
        """Grow the ring; run :meth:`anti_entropy` after to populate."""
        backend = str(backend)
        with self._lock:
            self.ring.add(backend)
            self.per_backend.setdefault(backend, BackendStats())
            if backend not in self._backend_index:
                self._backend_index[backend] = self._next_index
                self._next_index += 1

    def remove_backend(self, backend: str | Path) -> None:
        """Shrink the ring; run :meth:`anti_entropy` after to re-home."""
        with self._lock:
            self.ring.remove(str(backend))

    def replicas_for(self, name: str) -> list[str]:
        """The designated replica backends for one entry name."""
        with self._lock:
            return self.ring.replicas_for(name, self.effective_replicas)

    # -- health-transition events -------------------------------------------

    def _note_failure(self, backend: str, detail: str) -> None:
        with self._lock:
            fresh = backend not in self._failing
            self._failing.add(backend)
        if fresh and self.on_event is not None:
            self.on_event("store-degraded", f"{backend}: {detail}")

    def _note_success(self, backend: str) -> None:
        with self._lock:
            recovered = backend in self._failing
            self._failing.discard(backend)
        if recovered and self.on_event is not None:
            self.on_event("store-restored", backend)

    # -- writes -------------------------------------------------------------

    def write(
        self,
        name: str,
        document: dict[str, Any],
        arrays: Mapping[str, Any],
        indent: int | None = None,
    ) -> None:
        """Quorum write: push to every designated replica, succeed iff
        at least ``write_quorum`` land.

        Each replica write goes through the race-safe
        ``write_document`` (its ``store.write`` fault site fires once
        per replica, scoped by backend index).  A quorum failure
        raises ``OSError`` — the callers' existing failed-durable-
        write path counts it and keeps serving from memory.
        """
        targets = self.replicas_for(name)
        wrote = 0
        last_error: OSError | None = None
        for backend in targets:
            try:
                artifacts.write_document(
                    Path(backend) / name,
                    document,
                    arrays,
                    indent=indent,
                    backend=self._backend_index[backend],
                )
            except OSError as exc:
                last_error = exc
                with self._lock:
                    self.per_backend[backend].write_errors += 1
                self._note_failure(backend, f"write failed: {exc}")
            else:
                wrote += 1
                with self._lock:
                    self.per_backend[backend].writes += 1
                self._note_success(backend)
        with self._lock:
            self.stats.writes += 1
            quorum = self.write_quorum
            if wrote < quorum:
                self.stats.quorum_failures += 1
        if wrote < quorum:
            raise OSError(
                f"write quorum not met for {name!r}: "
                f"{wrote}/{quorum} replicas landed"
            ) from last_error

    # -- reads --------------------------------------------------------------

    def read(
        self, name: str
    ) -> tuple[dict[str, Any], dict[str, Any]] | None:
        """Replica fall-through read with hash verification and repair.

        Designated replicas are tried in ring order; the first copy
        whose JSON parses and whose npz sidecar matches its
        content-addressed digest wins.  Failed designated replicas are
        then rewritten from the winner (read-repair).  If *no*
        designated replica answers, every other backend is consulted —
        an entry stranded by a ring resize is recovered and
        re-replicated onto its new home.
        """
        targets = self.replicas_for(name)
        found: tuple[dict[str, Any], dict[str, Any]] | None = None
        found_backend: str | None = None
        failed: list[str] = []
        for backend in targets:
            copy = self._read_replica(backend, name)
            if copy is None:
                failed.append(backend)
                with self._lock:
                    self.per_backend[backend].read_failures += 1
                continue
            found, found_backend = copy, backend
            break
        recovered = False
        if found is None:
            for backend in self.backends:
                if backend in targets:
                    continue
                copy = self._read_replica(backend, name)
                if copy is not None:
                    found, found_backend = copy, backend
                    recovered = True
                    break
        with self._lock:
            self.stats.reads += 1
            if found is None:
                self.stats.read_misses += 1
        if found is None or found_backend is None:
            return None
        document, arrays = found
        repair_targets = list(targets) if recovered else failed
        for backend in repair_targets:
            self._repair(backend, name, document, arrays)
        with self._lock:
            self.per_backend[found_backend].reads += 1
            if recovered:
                self.stats.recovered_reads += 1
        _touch(Path(found_backend) / name)
        return document, arrays

    def _repair(
        self,
        backend: str,
        name: str,
        document: Mapping[str, Any],
        arrays: Mapping[str, Any],
    ) -> bool:
        """Rewrite one replica from a known-good copy (best-effort)."""
        try:
            artifacts.write_document(
                Path(backend) / name,
                dict(document),
                arrays,
                backend=self._backend_index[backend],
            )
        except OSError as exc:
            with self._lock:
                self.per_backend[backend].write_errors += 1
            self._note_failure(backend, f"repair failed: {exc}")
            return False
        with self._lock:
            self.per_backend[backend].repairs += 1
            self.stats.read_repairs += 1
        self._note_success(backend)
        return True

    def _read_replica(
        self, backend: str, name: str
    ) -> tuple[dict[str, Any], dict[str, Any]] | None:
        """One replica's copy, or ``None`` if missing/corrupt.

        The chaos ``store.read`` site fires here, scoped by backend
        index — ``miss`` and ``corrupt`` actions make this replica
        unreadable for one occurrence window, exercising fall-through
        and read-repair deterministically.
        """
        rule = faults.hit(
            "store.read", backend=self._backend_index.get(backend)
        )
        if rule is not None:
            if rule.action == "delay":
                time.sleep(rule.delay)
            elif rule.action in ("miss", "corrupt"):
                return None
        path = Path(backend) / name
        try:
            document = json.loads(path.read_text())
        except DEGRADE_ERRORS:
            return None
        if not isinstance(document, dict):
            return None
        arrays: dict[str, Any] = {}
        npz_name = document.get("npz")
        if npz_name:
            try:
                blob = (path.with_name(npz_name)).read_bytes()
            except OSError:
                return None
            # The sidecar name embeds sha256(bytes)[:16]; verifying it
            # against the bytes actually read catches silent replica
            # corruption, not just truncation.
            digest = hashlib.sha256(blob).hexdigest()[:16]
            parts = npz_name.rsplit(".", 2)
            if len(parts) != 3 or parts[1] != digest:
                return None
            try:
                arrays = unpack_arrays(blob)
            except SidecarError:
                return None
        return document, arrays

    # -- deletion (janitor eviction) ----------------------------------------

    def delete(self, name: str) -> int:
        """Unlink an entry (JSON + sidecar) from every backend; the
        reclaimed byte count.  Missing copies are fine."""
        reclaimed = 0
        for backend in self.backends:
            path = Path(backend) / name
            npz_name = None
            try:
                npz_name = json.loads(path.read_text()).get("npz")
            except DEGRADE_ERRORS:
                pass
            doomed = [path]
            if npz_name:
                doomed.append(path.with_name(npz_name))
            for victim in doomed:
                try:
                    size = victim.stat().st_size
                    victim.unlink()
                except OSError:
                    continue
                reclaimed += size
        return reclaimed

    # -- anti-entropy -------------------------------------------------------

    def entry_names(self) -> set[str]:
        """Every entry name present on any backend (temp files aside)."""
        names: set[str] = set()
        for backend in self.backends:
            try:
                listing = os.listdir(backend)
            except OSError:
                continue
            for fname in listing:
                if fname.endswith(".json") and ".tmp." not in fname:
                    names.add(fname)
        return names

    def anti_entropy(
        self,
        grace_seconds: float = 60.0,
        prune: bool = True,
        dry_run: bool = False,
        now: float | None = None,
    ) -> AntiEntropyStats:
        """Reconcile replicas across the whole ring.

        For every entry name on any backend: read each backend's copy
        (bypassing the chaos read site — reconciliation must converge
        even mid-schedule), pick the freshest valid copy, rewrite any
        designated replica lacking a valid one (re-replication), and —
        behind the grace window — prune copies stranded on backends
        the ring no longer designates.  Safe against concurrent
        readers/writers for the same reason the janitor is: repairs
        are write-then-rename, prunes are atomic unlinks, and every
        reader degrades a vanished copy to the next replica.
        """
        now = time.time() if now is None else now
        cutoff = now - grace_seconds
        stats = AntiEntropyStats(dry_run=dry_run)
        for name in sorted(self.entry_names()):
            stats.scanned_keys += 1
            targets = self.replicas_for(name)
            valid: dict[str, tuple[dict[str, Any], dict[str, Any]]] = {}
            mtimes: dict[str, float] = {}
            holders: dict[str, float] = {}
            for backend in self.backends:
                path = Path(backend) / name
                try:
                    mtime = path.stat().st_mtime
                except OSError:
                    continue
                holders[backend] = mtime
                copy = self._read_plain(backend, name)
                if copy is not None:
                    valid[backend] = copy
                    mtimes[backend] = mtime
            if not valid:
                # Every copy is corrupt: nothing to repair from.  The
                # per-backend hygiene sweep removes them once stale.
                stats.unreadable_keys += 1
                continue
            freshest = max(
                valid,
                key=lambda b: (mtimes[b], -self._backend_index[b]),
            )
            document, arrays = valid[freshest]
            for backend in targets:
                if backend in valid:
                    continue
                if dry_run:
                    stats.re_replicated += 1
                    continue
                if self._repair(backend, name, document, arrays):
                    stats.re_replicated += 1
                    with self._lock:
                        self.stats.re_replicated += 1
                        # _repair counts toward read_repairs; undo —
                        # anti-entropy repairs are tracked separately.
                        self.stats.read_repairs -= 1
                else:
                    stats.repair_errors += 1
            if not prune:
                continue
            for backend, mtime in holders.items():
                if backend in targets or mtime >= cutoff:
                    continue
                stats.pruned += 1
                if dry_run:
                    continue
                path = Path(backend) / name
                npz_name = None
                if backend in valid:
                    npz_name = valid[backend][0].get("npz")
                for victim in [path] + (
                    [path.with_name(npz_name)] if npz_name else []
                ):
                    try:
                        victim.unlink()
                    except OSError:
                        pass
                with self._lock:
                    self.stats.pruned_replicas += 1
        return stats

    def _read_plain(
        self, backend: str, name: str
    ) -> tuple[dict[str, Any], dict[str, Any]] | None:
        """A replica read that never consults the fault plan."""
        plan = faults.active_plan()
        if plan is None:
            return self._read_replica(backend, name)
        with faults.injected(faults.FaultPlan()):
            return self._read_replica(backend, name)

    # -- observability ------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """A replica-placement health snapshot (``ring status``).

        Cheap existence-level scan: which designated backends hold
        each entry's JSON body.  Deep validity checking is
        :meth:`anti_entropy`'s job.
        """
        per_backend: list[dict[str, Any]] = []
        holders: dict[str, list[str]] = {}
        for backend in self.backends:
            entries = 0
            size = 0
            healthy = True
            try:
                listing = os.listdir(backend)
            except OSError:
                healthy = Path(backend).exists()
                listing = []
            for fname in listing:
                if ".tmp." in fname:
                    continue
                try:
                    size += (Path(backend) / fname).stat().st_size
                except OSError:
                    continue
                if fname.endswith(".json"):
                    entries += 1
                    holders.setdefault(fname, []).append(backend)
            per_backend.append(
                {
                    "dir": backend,
                    "healthy": healthy,
                    "entries": entries,
                    "bytes": size,
                    "failing": backend in self._failing,
                }
            )
        under = 0
        strays = 0
        want = self.effective_replicas
        for name, present in holders.items():
            targets = self.replicas_for(name)
            if sum(1 for b in targets if b in present) < want:
                under += 1
            strays += sum(1 for b in present if b not in targets)
        return {
            "backends": per_backend,
            "replicas": self.replicas,
            "effective_replicas": want,
            "write_quorum": self.write_quorum,
            "keys": len(holders),
            "under_replicated": under,
            "stray_replicas": strays,
        }

    def stats_payload(self) -> dict[str, Any]:
        """Counter snapshot for the server's ``stats`` wire op."""
        with self._lock:
            payload = asdict(self.stats)
            payload.update(
                {
                    "replicas": self.replicas,
                    "effective_replicas": self.effective_replicas,
                    "write_quorum": self.write_quorum,
                    "backends": [
                        dict(
                            asdict(self.per_backend[b]),
                            dir=b,
                            failing=b in self._failing,
                        )
                        for b in self.ring.backends
                    ],
                }
            )
        return payload

    # -- serialization ------------------------------------------------------

    def spec(self) -> dict[str, Any]:
        """A picklable/JSON spec; inverse of :meth:`from_spec`.  This
        is what the server ships to worker processes at spawn."""
        return {
            "backends": self.backends,
            "replicas": self.replicas,
            "write_quorum": self._explicit_quorum,
            "vnodes": self.vnodes,
        }

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "ReplicatedStore":
        if "backends" not in spec:
            raise ValueError(
                "replicated-store spec needs a 'backends' list"
            )
        unknown = set(spec) - {
            "backends", "replicas", "write_quorum", "vnodes"
        }
        if unknown:
            raise ValueError(
                f"unknown replicated-store spec fields: {sorted(unknown)}"
            )
        return cls(
            backends=list(spec["backends"]),
            replicas=int(spec.get("replicas", 2)),
            write_quorum=spec.get("write_quorum"),
            vnodes=int(spec.get("vnodes", 64)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReplicatedStore({len(self.ring.backends)} backends, "
            f"r={self.effective_replicas}, q={self.write_quorum})"
        )

    def __str__(self) -> str:
        return f"ring:{','.join(self.backends)}"


# ---------------------------------------------------------------------------
# Spec plumbing shared by stores, caches, the janitor, the server, the CLI
# ---------------------------------------------------------------------------

Layout = SingleLayout | ReplicatedStore


def as_layout(
    root: "str | Path | Mapping[str, Any] | Layout | None",
) -> "Layout | None":
    """Normalize every store-location shape into a layout (or ``None``).

    Accepted: ``None`` (in-memory), a directory path, a
    ``dir1,dir2,...`` comma list (a 2-replica ring), ``@manifest.json``
    (a ring manifest holding a :meth:`ReplicatedStore.spec`), a spec
    mapping, or an existing layout instance (shared, stats and all).
    """
    if root is None:
        return None
    if isinstance(root, (SingleLayout, ReplicatedStore)):
        return root
    if isinstance(root, Mapping):
        return ReplicatedStore.from_spec(root)
    # Same a,b,c|@manifest grammar as every backend-naming CLI flag;
    # the manifest payload here is a ReplicatedStore ring spec.
    from .transport import split_spec

    payload, items = split_spec(str(root))
    if payload is not None:
        return ReplicatedStore.from_spec(payload)
    if len(items) > 1:
        return ReplicatedStore(items)
    return SingleLayout(items[0] if items else str(root))


def parse_store_arg(
    text: str | None,
    replicas: int | None = None,
    write_quorum: int | None = None,
) -> "str | dict[str, Any] | None":
    """CLI ``--store`` handling: a picklable spec, with optional
    ``--replicas`` / ``--write-quorum`` overrides applied to ring
    forms (comma lists and ``@manifest`` files)."""
    if text is None:
        return None
    layout = as_layout(text)
    if isinstance(layout, SingleLayout):
        return str(layout.root)
    spec = layout.spec()
    if replicas is not None:
        spec["replicas"] = replicas
    if write_quorum is not None:
        spec["write_quorum"] = write_quorum
    return spec


def save_manifest(path: str | Path, store: ReplicatedStore) -> None:
    """Persist a ring spec as a manifest file (``--store @path``)."""
    Path(path).write_text(
        json.dumps(store.spec(), indent=1, sort_keys=True) + "\n"
    )
