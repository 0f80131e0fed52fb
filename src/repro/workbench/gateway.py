"""The multi-tenant gateway: an asyncio front door routing
``partition_many`` batches across a fleet of partition servers.

One :class:`~repro.workbench.server.PartitionServer` is one box: one
accept loop, one worker pool, one result-cache view.  The serving story
(ROADMAP north star) needs a *fleet* — and the cloud Partitioning
pattern supplies the shape: a **deterministic partition function**, a
**directory** mapping shards to backends, and a **router** that applies
the function at a front door: this module's :class:`Gateway`, the one
place shard dispatch and failover live.

* The partition function is the result-cache key
  (:func:`~repro.workbench.cache.result_key`) placed by rendezvous
  (highest-random-weight) hashing: each member scores
  ``sha256(f"{member}#{key}")`` and the highest score owns the key.
  Every request with the same content hash always lands on the same
  backend, so a shard *owns its slice of the result cache* — repeat
  traffic hits the backend that already solved it — and adding a
  backend moves only the ~1/(N+1) of the key space it now wins, all of
  it onto the newcomer (``test_gateway.py`` pins both).  Each request
  routes by its own key: an answer depends only on its request, so
  splitting a batch anywhere changes no answer.

* :class:`PartitionDirectory` holds the shard→backend map: seeded from
  a static ``@manifest.json`` (or a comma list), mutated at runtime by
  ``add``/``remove`` ops that emit ``shard-joined``/``shard-left``
  membership events, with backend health transitions
  (``backend-failed``/``backend-restored``) recorded as routed traffic
  fails over — the same
  :class:`~repro.workbench.membership.MembershipLog` vocabulary the
  worker pool already speaks.

* :class:`Gateway` speaks the existing :mod:`repro.runtime.frames`
  protocol on an asyncio event loop, so one process fronts many
  backends without a thread per connection.  Batches are split by
  shard, sub-batches forwarded concurrently, and the backend's wire
  documents are **relayed, not recomputed** — the np.savez/sorted-JSON
  codec is deterministic, so a routed reply is byte-identical to the
  unrouted one.  Admission control bounds the blast radius: a global
  in-flight budget plus per-tenant (client-id) quotas, both answered
  with typed :class:`~repro.workbench.transport.ServerBusy`
  backpressure *before* any backend work happens.

Wired as ``python -m repro gateway --backends h1:p1,h2:p2`` (or
``--backends @manifest.json``); ``repro partition --server`` routes
through it transparently — the client cannot tell a gateway from a
plain server.
"""

from __future__ import annotations

import asyncio
import hashlib
import threading
from dataclasses import asdict
from typing import Any, Mapping, Sequence

from ..runtime.frames import FrameError
from . import faults
from .cache import result_key
from .membership import MembershipLog
from .scenarios import WorkbenchError, get_scenario, list_scenarios
from .session import PartitionRequest
from .transport import (
    ServerError,
    ServerUnavailable,
    async_recv_message,
    async_send_message,
    format_address,
    parse_address,
    parse_targets,
    save_manifest,
)

__all__ = [
    "Gateway",
    "PartitionDirectory",
    "ROUTE_PLATFORM_DEFAULT",
    "batch_keys",
]

#: The platform assumed by the *partition function* when a batch names
#: none.  Routing stays correct whatever value is used — the function
#: only has to be deterministic — but matching the servers' default
#: platform keeps the routed key equal to the backend's cache key, so
#: each shard owns exactly its cache slice.
ROUTE_PLATFORM_DEFAULT = "tmote"


def batch_keys(
    scenario: Any,
    params: Mapping[str, Any] | None,
    profiler_cfg: Mapping[str, Any] | None,
    platform: str,
    requests: Sequence[PartitionRequest],
) -> list[str]:
    """The deterministic partition function: one routing key per request.

    Exactly the result-cache key — shared verbatim with
    :class:`~repro.workbench.cache.ResultCache` — so shard placement
    and cache residency agree by construction.
    """
    return [
        result_key(scenario, params, profiler_cfg, platform, request)
        for request in requests
    ]


def _weight(member: str, key: str) -> int:
    """A member's rendezvous score for one key (first 8 sha256 bytes)."""
    digest = hashlib.sha256(f"{member}#{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class PartitionDirectory:
    """The shard→backend map: rendezvous hashing over addresses.

    ``backends`` accepts every routing spec shape
    (:func:`~repro.workbench.transport.parse_targets` — a comma list,
    an ``@manifest.json``, a list of addresses).  Membership changes
    emit ``shard-joined``/``shard-left`` events; health transitions the
    gateway observes while routing land as
    ``backend-failed``/``backend-restored`` — all into a
    :class:`~repro.workbench.membership.MembershipLog` (the directory's
    own unless one is shared in).

    Thread-safe: the gateway changes it on its event loop while an
    embedding caller may read or change it from its own thread.
    """

    def __init__(
        self,
        backends: Any,
        log: MembershipLog | None = None,
    ) -> None:
        self.log = log if log is not None else MembershipLog()
        self._lock = threading.RLock()
        self._members: list[str] = []
        self._failed: set[str] = set()
        for backend in parse_targets(backends):
            self.add(backend)

    # -- membership ---------------------------------------------------------

    @property
    def backends(self) -> list[str]:
        """Members in join order (a snapshot)."""
        with self._lock:
            return list(self._members)

    def add(self, backend: Any) -> bool:
        """Join a backend; ``False`` if it is already a member."""
        address = format_address(backend)
        with self._lock:
            if address in self._members:
                return False
            self._members.append(address)
            self._failed.discard(address)
        self.log.record("shard-joined", None, address)
        return True

    def remove(self, backend: Any) -> bool:
        """Leave a backend; ``False`` if it was not a member.

        The last backend cannot leave — an empty directory routes
        nothing, which is an operator error, not a degraded mode.
        """
        address = format_address(backend)
        with self._lock:
            if address not in self._members:
                return False
            if len(self._members) == 1:
                raise ServerError(
                    "cannot remove the last directory backend"
                )
            self._members.remove(address)
            self._failed.discard(address)
        self.log.record("shard-left", None, address)
        return True

    # -- routing ------------------------------------------------------------

    def route(self, key: str) -> str:
        """The shard owner for one partition-function key: the member
        with the largest ``sha256(f"{member}#{key}")[:8]``.

        A pure function of the key and the member set, so join order,
        process, and hash seed do not matter.
        """
        with self._lock:
            members = list(self._members)
        if not members:
            raise ServerError("partition directory has no backends")
        # The name breaks (astronomically unlikely) score ties, so the
        # owner never depends on join order.
        return max(members, key=lambda m: (_weight(m, key), m))

    def split(self, keys: Sequence[str]) -> dict[str, list[int]]:
        """Group request indices by the shard owner of each one's
        partition-function key (:func:`batch_keys`), indices in batch
        order."""
        shards: dict[str, list[int]] = {}
        for index, key in enumerate(keys):
            shards.setdefault(self.route(key), []).append(index)
        return shards

    def chain(self, primary: str) -> list[str]:
        """The failover order for a shard: its owner, then every other
        member deterministically (sorted), so concurrent routers agree
        on where a shard re-homes while its owner is down."""
        with self._lock:
            members = list(self._members)
        return [primary] + sorted(b for b in members if b != primary)

    # -- health -------------------------------------------------------------

    def note_failure(self, backend: Any, detail: str = "") -> None:
        """Record a backend transport failure (once per transition)."""
        address = format_address(backend)
        with self._lock:
            if address in self._failed:
                return
            self._failed.add(address)
        self.log.record("backend-failed", None, f"{address}: {detail}")

    def note_ok(self, backend: Any) -> None:
        """Record a backend serving again (once per transition)."""
        address = format_address(backend)
        with self._lock:
            if address not in self._failed:
                return
            self._failed.discard(address)
        self.log.record("backend-restored", None, address)

    @property
    def failed(self) -> list[str]:
        with self._lock:
            return sorted(self._failed)

    # -- persistence --------------------------------------------------------

    def spec(self) -> dict[str, Any]:
        return {"backends": self.backends}

    def save(self, path: str) -> None:
        """Persist as the ``@manifest.json`` shape ``--backends`` reads."""
        save_manifest(path, self.backends)

    def describe(self) -> dict[str, Any]:
        """The ``directory`` op's status payload."""
        with self._lock:
            return {
                "backends": list(self._members),
                "failed": sorted(self._failed),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._members)

    def __contains__(self, backend: Any) -> bool:
        return format_address(backend) in self.backends


class _RemoteError(Exception):
    """A backend's typed application error, relayed verbatim."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message


class Gateway:
    """The asyncio front door: route, fan out, relay, backpressure.

    Args:
        backends: routing spec (comma list, ``@manifest.json``, list of
            addresses) or a ready :class:`PartitionDirectory`.
        host, port: bind address (``port=0`` picks an ephemeral port;
            read :attr:`address` after :meth:`start`).
        default_platform: platform assumed by the partition function
            (and reported for empty batches) when a batch names none;
            match the backends' ``--platform`` for exact cache-slice
            ownership.
        max_inflight: global bound on concurrently admitted
            ``partition_many`` batches; excess is answered with typed
            ``ServerBusy`` before any backend work happens.
        tenant_quota: per-tenant (client-id) bound on concurrent
            batches; batches carry the tenant in their document
            (``ServerClient(tenant=...)``), untagged traffic shares the
            ``"anonymous"`` tenant.
        connect_timeout, request_timeout: per-backend dial and exchange
            budgets for forwarded sub-batches.

    A shard whose owner is unreachable re-homes along the directory
    chain; the batch fails with retryable ``ServerUnavailable`` only
    when *every* backend refuses it.

    The event loop runs on a dedicated thread, so the gateway embeds
    exactly like a :class:`~repro.workbench.server.PartitionServer`:
    ``start()``/``close()``, a context manager, ``serve_forever()``.
    """

    def __init__(
        self,
        backends: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        default_platform: str = ROUTE_PLATFORM_DEFAULT,
        max_inflight: int = 64,
        tenant_quota: int = 16,
        connect_timeout: float = 5.0,
        request_timeout: float | None = 300.0,
    ) -> None:
        self.directory = (
            backends
            if isinstance(backends, PartitionDirectory)
            else PartitionDirectory(backends)
        )
        self._host = host
        self._port = port
        self.default_platform = default_platform
        self.max_inflight = max(int(max_inflight), 0)
        self.tenant_quota = max(int(tenant_quota), 0)
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout

        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._bound: tuple[str, int] | None = None
        self._closed = False

        # Admission + routing counters; mutated only on the event loop
        # (between awaits), read from any thread via ``stats``.
        self._inflight = 0
        self._peak_inflight = 0
        self._tenant_inflight: dict[str, int] = {}
        self.admitted = 0
        self.rejected_busy = 0
        self.rejected_quota = 0
        self.routed_batches = 0
        self.routed_shards = 0
        self.failovers = 0
        self.backend_errors = 0

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._bound is None:
            raise ServerError("gateway is not started")
        return self._bound

    @property
    def closed(self) -> bool:
        return self._closed

    def start(self) -> tuple[str, int]:
        """Bind and begin serving on a dedicated event-loop thread."""
        if self._thread is not None:
            return self.address
        self._thread = threading.Thread(
            target=self._run, name="gateway-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise ServerError("gateway failed to start within 10s")
        if self._startup_error is not None:
            raise ServerError(
                f"gateway failed to start: {self._startup_error}"
            ) from self._startup_error
        return self.address

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "Gateway":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def serve_forever(self) -> None:
        """Start and block until :meth:`close` (or KeyboardInterrupt)."""
        self.start()
        assert self._thread is not None
        try:
            while self._thread.is_alive():
                self._thread.join(timeout=0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # startup failures surface in start()
            self._startup_error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_conn, self._host, self._port
        )
        self._bound = server.sockets[0].getsockname()[:2]
        self._ready.set()
        async with server:
            await self._stop.wait()

    # -- connection handling ------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    message = await async_recv_message(reader)
                except (FrameError, OSError, asyncio.IncompleteReadError):
                    return
                if message is None:
                    return
                document, _ = message
                try:
                    await self._serve_op(writer, document)
                except (ConnectionError, OSError):
                    return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _serve_op(
        self, writer: asyncio.StreamWriter, document: Mapping[str, Any]
    ) -> None:
        op = document.get("op")
        if op == "ping":
            await async_send_message(writer, self._ping_payload())
        elif op == "stats":
            await async_send_message(writer, self._stats_payload())
        elif op == "scenarios":
            await async_send_message(
                writer,
                {
                    "ok": True,
                    "scenarios": [s.name for s in list_scenarios()],
                },
            )
        elif op == "directory":
            await self._op_directory(writer, document)
        elif op == "partition_many":
            await self._op_partition_many(writer, document)
        else:
            await async_send_message(
                writer,
                {
                    "ok": False,
                    "kind": "WorkbenchError",
                    "error": f"unknown gateway op {op!r}",
                },
            )

    def _ping_payload(self) -> dict[str, Any]:
        return {
            "ok": True,
            "gateway": True,
            "backends": len(self.directory),
            "failed_backends": len(self.directory.failed),
            "inflight": self._inflight,
            "admitted": self.admitted,
        }

    def _stats_payload(self) -> dict[str, Any]:
        return {
            "ok": True,
            "gateway": True,
            "inflight": self._inflight,
            "peak_inflight": self._peak_inflight,
            "admitted": self.admitted,
            "rejected_busy": self.rejected_busy,
            "rejected_quota": self.rejected_quota,
            "routed_batches": self.routed_batches,
            "routed_shards": self.routed_shards,
            "failovers": self.failovers,
            "backend_errors": self.backend_errors,
            "tenants": {
                tenant: count
                for tenant, count in sorted(self._tenant_inflight.items())
                if count > 0
            },
            "directory": self.directory.describe(),
            "membership": self.directory.log.to_payload(),
            "faults": asdict(faults.stats()),
        }

    async def _op_directory(
        self, writer: asyncio.StreamWriter, document: Mapping[str, Any]
    ) -> None:
        action = document.get("action", "status")
        try:
            if action == "status":
                changed = None
            elif action == "add":
                changed = self.directory.add(document.get("backend"))
            elif action == "remove":
                changed = self.directory.remove(document.get("backend"))
            else:
                raise ServerError(f"unknown directory action {action!r}")
        except ServerError as exc:
            await async_send_message(
                writer,
                {"ok": False, "kind": "ServerError", "error": str(exc)},
            )
            return
        payload: dict[str, Any] = {"ok": True, **self.directory.describe()}
        if changed is not None:
            payload["changed"] = changed
        await async_send_message(writer, payload)

    # -- partition_many: admission + routing --------------------------------

    async def _op_partition_many(
        self, writer: asyncio.StreamWriter, document: Mapping[str, Any]
    ) -> None:
        tenant = str(document.get("tenant") or "anonymous")
        if self._inflight >= self.max_inflight:
            self.rejected_busy += 1
            await async_send_message(
                writer,
                {
                    "ok": False,
                    "kind": "ServerBusy",
                    "error": (
                        f"gateway at capacity: {self._inflight} batches "
                        f"in flight (budget {self.max_inflight})"
                    ),
                },
            )
            return
        if self._tenant_inflight.get(tenant, 0) >= self.tenant_quota:
            self.rejected_quota += 1
            await async_send_message(
                writer,
                {
                    "ok": False,
                    "kind": "ServerBusy",
                    "error": (
                        f"tenant {tenant!r} quota exhausted: "
                        f"{self.tenant_quota} concurrent batches"
                    ),
                },
            )
            return
        self._inflight += 1
        self._peak_inflight = max(self._peak_inflight, self._inflight)
        self._tenant_inflight[tenant] = (
            self._tenant_inflight.get(tenant, 0) + 1
        )
        self.admitted += 1
        try:
            await self._route_batch(writer, document)
        finally:
            self._inflight -= 1
            remaining = self._tenant_inflight.get(tenant, 1) - 1
            if remaining > 0:
                self._tenant_inflight[tenant] = remaining
            else:
                self._tenant_inflight.pop(tenant, None)

    async def _route_batch(
        self, writer: asyncio.StreamWriter, document: Mapping[str, Any]
    ) -> None:
        try:
            scenario_name = document.get("scenario")
            if not scenario_name:
                raise WorkbenchError("partition_many needs a scenario name")
            scenario = get_scenario(scenario_name)
            payloads = list(document.get("requests") or [])
            requests = [PartitionRequest.from_payload(p) for p in payloads]
            platform = document.get("platform") or self.default_platform
            shards = self.directory.split(
                batch_keys(
                    scenario,
                    document.get("params") or {},
                    document.get("profiler"),
                    platform,
                    requests,
                )
            )
            self.routed_batches += 1
            self.routed_shards += len(shards)
            outcomes = await asyncio.gather(
                *(
                    self._route_shard(primary, indices, document)
                    for primary, indices in shards.items()
                ),
                return_exceptions=True,
            )
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    raise outcome
        except _RemoteError as exc:
            await async_send_message(
                writer,
                {"ok": False, "kind": exc.kind, "error": exc.message},
            )
            return
        except (WorkbenchError, ValueError) as exc:
            await async_send_message(
                writer,
                {
                    "ok": False,
                    "kind": type(exc).__name__,
                    "error": str(exc),
                },
            )
            return

        slots: list[tuple[dict | None, dict | None] | None]
        slots = [None] * len(requests)
        hits = misses = 0
        served_platform = platform
        for ack, entries in outcomes:
            hits += int(ack.get("cache_hits", 0))
            misses += int(ack.get("cache_misses", 0))
            served_platform = ack.get("platform", served_platform)
            for index, doc, arrays in entries:
                slots[index] = (doc, arrays)
        await async_send_message(
            writer,
            {
                "ok": True,
                "count": len(requests),
                "platform": served_platform,
                "cache_hits": hits,
                "cache_misses": misses,
                "routed_shards": len(shards),
            },
        )
        for index in range(len(requests)):
            slot = slots[index]
            if slot is None or slot[0] is None:
                await async_send_message(
                    writer, {"index": index, "result": None}
                )
            else:
                await async_send_message(
                    writer, {"index": index, "result": slot[0]}, slot[1]
                )

    async def _route_shard(
        self,
        primary: str,
        indices: list[int],
        document: Mapping[str, Any],
    ) -> tuple[dict[str, Any], list[tuple[int, dict | None, dict | None]]]:
        """Forward one shard's sub-batch, failing over along the chain."""
        subdoc = {k: v for k, v in document.items() if k != "tenant"}
        subdoc["requests"] = [document["requests"][i] for i in indices]
        last: BaseException | None = None
        for hop, backend in enumerate(self.directory.chain(primary)):
            rule = faults.hit("gateway.route")
            injected: BaseException | None = None
            if rule is not None:
                if rule.action == "delay":
                    await asyncio.sleep(rule.delay)
                elif rule.action == "raise":
                    injected = rule.build_error()
            try:
                if injected is not None:
                    raise injected
                ack, entries = await self._exchange(
                    backend, subdoc, len(indices)
                )
            except _RemoteError:
                # An application answer: every backend would say the
                # same, so relay it instead of failing over.
                raise
            except (
                ServerUnavailable,
                FrameError,
                OSError,
                asyncio.IncompleteReadError,
            ) as exc:
                last = exc
                self.backend_errors += 1
                self.directory.note_failure(backend, str(exc))
                continue
            self.directory.note_ok(backend)
            if hop:
                self.failovers += 1
            return ack, [
                (indices[local], doc, arrays)
                for local, doc, arrays in entries
            ]
        raise _RemoteError(
            "ServerUnavailable",
            f"no reachable backend for shard {primary}: {last}",
        )

    async def _exchange(
        self, backend: str, subdoc: Mapping[str, Any], count: int
    ) -> tuple[dict[str, Any], list[tuple[int, dict | None, dict | None]]]:
        """One sub-batch round trip: forward, collect ack + results.

        The backend's reply documents and array sidecars are returned
        *as decoded wire values* and re-encoded by the deterministic
        codec on the way out — byte-identical relay, no recompute.
        """
        host, port = parse_address(backend)
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port),
            timeout=self.connect_timeout,
        )
        try:
            await async_send_message(writer, subdoc)
            ack_msg = await asyncio.wait_for(
                async_recv_message(reader), timeout=self.request_timeout
            )
            if ack_msg is None:
                raise ServerUnavailable(
                    f"backend {backend} closed the connection"
                )
            ack, _ = ack_msg
            if not ack.get("ok"):
                raise _RemoteError(
                    ack.get("kind", "ServerError"),
                    ack.get("error", "unknown server error"),
                )
            entries: list[tuple[int, dict | None, dict | None]] = []
            for _ in range(int(ack.get("count", count))):
                message = await asyncio.wait_for(
                    async_recv_message(reader),
                    timeout=self.request_timeout,
                )
                if message is None:
                    raise ServerUnavailable(
                        f"backend {backend} closed mid-stream"
                    )
                body, arrays = message
                entries.append(
                    (int(body["index"]), body.get("result"), arrays)
                )
            return ack, entries
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass
