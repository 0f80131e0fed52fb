"""Shared connection/dispatch plumbing for the serving layer.

Everything that moves :mod:`repro.runtime.frames` messages over TCP —
the blocking :class:`~repro.workbench.server.PartitionServer`, its
:class:`~repro.workbench.server.ServerClient`, and the asyncio
:class:`~repro.workbench.gateway.Gateway` — shares this module:

* the typed transport error hierarchy (:class:`ServerError`,
  retryable :class:`ServerUnavailable`, :class:`ServerBusy`
  backpressure);
* address parsing — a single ``host:port``, an ``(host, port)`` pair,
  a ``host1:p1,host2:p2`` list, or an ``@manifest.json`` directory
  file (:func:`parse_address`, :func:`parse_targets`);
* :class:`ClientConnection` — the blocking client side of one frames
  connection, with a connect loop whose *per-attempt* socket timeout is
  capped at the remaining connect deadline (a SYN-blackholed host fails
  in ``connect_timeout``, never the full request timeout);
* :class:`FrameListener` — the accept/dispatch loop the blocking server
  runs: one thread per connection, messages handed to a callback;
* :class:`Backoff` — seeded exponential backoff with jitter, so chaos
  schedules replay with deterministic retry timing;
* ``async_send_message``/``async_recv_message`` — the same message
  codec over asyncio streams, for the gateway's event loop.

The message *bytes* are identical on every path — both directions use
:func:`repro.runtime.frames.encode_message`/``decode_message`` — which
is what lets the gateway relay backend replies byte-for-byte.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import threading
import time
from pathlib import Path
from typing import Any, BinaryIO, Callable, Mapping

import numpy as np

from ..runtime.frames import (
    LENGTH_PREFIX,
    MAX_FRAME_BYTES,
    FrameError,
    decode_message,
    encode_message,
    recv_message,
    send_message,
)
from .scenarios import WorkbenchError


class ServerError(WorkbenchError):
    """Raised for partition-server protocol or transport failures."""


class ServerUnavailable(ServerError):
    """A transport-level failure: the server is gone, unreachable, or
    the connection died mid-exchange.

    This is the *retryable* subclass — the result cache makes re-sent
    requests idempotent, so :class:`~repro.workbench.server.ServerClient`
    retries these with exponential backoff.  Remote application errors
    (unknown scenario, infeasible request, abandoned job) stay plain
    :class:`ServerError` and are never retried.
    """


class ServerBusy(ServerError):
    """Typed admission-control backpressure from the gateway.

    The batch was *rejected before any work happened* — the gateway's
    bounded in-flight budget or the caller's per-tenant quota is
    exhausted.  Deliberately not a :class:`ServerUnavailable`: the
    service is healthy, so the client must shed load (or slow down),
    not hammer the same full queue with transport retries.
    """


# ---------------------------------------------------------------------------
# Addresses and routing targets
# ---------------------------------------------------------------------------


def parse_address(address: Any) -> tuple[str, int]:
    """One ``host:port`` (or ``(host, port)`` pair) → ``(host, port)``."""
    try:
        if isinstance(address, (tuple, list)) and len(address) == 2:
            return str(address[0]), int(address[1])
        if isinstance(address, str):
            host, sep, port = address.rpartition(":")
            if sep:
                return host or "127.0.0.1", int(port)
    except (TypeError, ValueError):
        pass
    raise ServerError(f"address {address!r} is not host:port")


def format_address(address: Any) -> str:
    """Canonical ``host:port`` string form of any accepted address."""
    host, port = parse_address(address)
    return f"{host}:{port}"


def split_spec(spec: str) -> tuple[Any, list[str]]:
    """Parse the shared ``a,b,c`` | ``@manifest.json`` target grammar.

    The one spelling for every CLI flag naming backends or store
    directories (``--server``, ``--backends``, ``--store``): a comma
    list of items, or an ``@file`` reference to a JSON manifest whose
    shape the caller interprets.  Returns ``(payload, items)`` — for an
    ``@file`` reference ``payload`` is the parsed JSON document and
    ``items`` is empty; otherwise ``payload`` is ``None`` and ``items``
    is the comma-split, stripped, non-empty parts.
    """
    spec = spec.strip()
    if spec.startswith("@"):
        path = spec[1:]
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ServerError(f"cannot read manifest {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise ServerError(f"manifest {path} is not JSON: {exc}")
        return payload, []
    return None, [part.strip() for part in spec.split(",") if part.strip()]


def load_manifest(path: str | Path) -> list[str]:
    """Read a partition-directory manifest: ``{"backends": [...]}``."""
    payload, _ = split_spec(f"@{path}")
    if not isinstance(payload, Mapping) or "backends" not in payload:
        raise ServerError(
            f"backend manifest {path} needs a 'backends' list"
        )
    backends = payload["backends"]
    if not isinstance(backends, list) or not backends:
        raise ServerError(
            f"backend manifest {path} holds no backends"
        )
    return [format_address(b) for b in backends]


def save_manifest(path: str | Path, backends: list[str]) -> None:
    """Write the manifest shape :func:`load_manifest` reads."""
    Path(path).write_text(
        json.dumps(
            {"backends": [format_address(b) for b in backends]},
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )


def parse_targets(spec: Any) -> list[str]:
    """Normalize a routing spec into canonical ``host:port`` targets.

    Accepts every single-address shape :func:`parse_address` does, plus
    the multi-backend shapes the gateway and the routing client speak:
    a comma list (``"h1:p1,h2:p2"``), an ``@manifest.json`` reference,
    or a list of addresses.  Order is preserved, duplicates collapse
    (first occurrence wins) — the directory hashes *identities*, not
    list positions.
    """
    if isinstance(spec, str):
        if spec.startswith("@"):
            targets = load_manifest(spec[1:])
        else:
            _, items = split_spec(spec)
            targets = [format_address(part) for part in items]
    elif (
        isinstance(spec, (tuple, list))
        and len(spec) == 2
        and isinstance(spec[1], int)
    ):
        targets = [format_address(spec)]
    elif isinstance(spec, (tuple, list)):
        targets = [format_address(item) for item in spec]
    else:
        targets = [format_address(spec)]
    if not targets:
        raise ServerError(f"routing spec {spec!r} names no backends")
    seen: dict[str, None] = {}
    for target in targets:
        seen.setdefault(target)
    return list(seen)


# ---------------------------------------------------------------------------
# Seeded backoff
# ---------------------------------------------------------------------------


class Backoff:
    """Exponential backoff with jitter from a *private* seeded RNG.

    Each retrying component owns one of these instead of drawing from
    the module-level ``random`` — a seeded chaos schedule then replays
    with identical retry timing, and nothing in the library perturbs
    (or is perturbed by) the global RNG stream.
    """

    def __init__(
        self,
        base: float = 0.1,
        cap: float = 5.0,
        seed: int | None = None,
    ) -> None:
        self.base = base
        self.cap = cap
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """The jittered delay for retry ``attempt`` (0-based)."""
        if self.base <= 0:
            return 0.0
        delay = min(self.base * (2**attempt), self.cap)
        return delay * (0.5 + self._rng.random())

    def sleep(self, attempt: int) -> None:
        delay = self.delay(attempt)
        if delay > 0:
            time.sleep(delay)


def _set_nodelay(sock: socket.socket) -> None:
    """Turn off Nagle's algorithm on a frames socket.

    Every message is flushed on its own, and a reply is several
    messages (an ack, then one per result).  With Nagle on, a small
    segment sent while the previous one is unacknowledged waits for
    the peer's delayed ACK — a fixed ~40 ms stall per round trip.
    asyncio sets this option on its TCP transports by default; the
    blocking sockets must set it themselves.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


# ---------------------------------------------------------------------------
# Blocking client connection
# ---------------------------------------------------------------------------


class ClientConnection:
    """The client side of one frames-over-TCP connection.

    Owns the socket, its buffered stream, and the connect/teardown
    rules every blocking client needs:

    * :meth:`connect` retries a refused connection until
      ``connect_timeout`` elapses, and caps **each attempt's** socket
      timeout at the remaining connect budget — the fix for the classic
      bug where a SYN-blackholed host inherits the full request
      ``timeout`` (minutes) per attempt and ``connect_timeout`` is
      never honored.  Once connected, the socket timeout is restored to
      the request ``timeout``.
    * :meth:`send`/:meth:`recv` translate every stream-level failure
      (``OSError``, torn frame) into :class:`ServerUnavailable`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 300.0,
        connect_timeout: float = 10.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self._sock: socket.socket | None = None
        self._stream: BinaryIO | None = None

    @property
    def connected(self) -> bool:
        return self._stream is not None

    @property
    def sock(self) -> socket.socket | None:
        return self._sock

    def connect(self) -> None:
        """(Re)establish the connection; raises ServerUnavailable."""
        self.close()
        deadline = time.monotonic() + self.connect_timeout
        while True:
            remaining = deadline - time.monotonic()
            # Every attempt is capped at the remaining connect budget
            # (never the request timeout), so a blackholed host fails
            # the whole loop in ~connect_timeout.
            attempt_timeout = max(min(remaining, self.connect_timeout), 0.05)
            if self.timeout is not None:
                attempt_timeout = min(attempt_timeout, self.timeout)
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=attempt_timeout
                )
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise ServerUnavailable(
                        f"cannot connect to partition server at "
                        f"{self.host}:{self.port}"
                    ) from None
                time.sleep(0.05)
        _set_nodelay(self._sock)
        self._sock.settimeout(self.timeout)
        self._stream = self._sock.makefile("rwb")

    def close(self) -> None:
        if self._stream is not None:
            try:
                self._stream.close()
            except OSError:
                pass
            self._stream = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def send(
        self,
        document: Mapping[str, Any],
        arrays: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        if self._stream is None:
            raise ServerUnavailable("connection is not established")
        try:
            send_message(self._stream, document, arrays)
        except (FrameError, OSError) as exc:
            raise ServerUnavailable(
                f"connection to partition server failed mid-send: {exc}"
            ) from exc

    def recv(self) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        if self._stream is None:
            raise ServerUnavailable("connection is not established")
        try:
            message = recv_message(self._stream)
        except (FrameError, OSError) as exc:
            raise ServerUnavailable(
                f"connection to partition server failed mid-reply: {exc}"
            ) from exc
        if message is None:
            raise ServerUnavailable("server closed the connection")
        return message

    def settimeout(self, timeout: float | None) -> float | None:
        """Set the socket timeout; returns the previous value."""
        if self._sock is None:
            raise ServerUnavailable("connection is not established")
        previous = self._sock.gettimeout()
        self._sock.settimeout(timeout)
        return previous

    def __enter__(self) -> "ClientConnection":
        if not self.connected:
            self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Blocking listener (the server's accept/dispatch loop)
# ---------------------------------------------------------------------------


class FrameListener:
    """Accept frames connections and dispatch messages to a handler.

    The blocking server's connection plumbing, extracted: a listener
    socket, an accept thread, one handler thread per connection.  Each
    received message's document is handed to ``handler(stream,
    document)``; the handler writes replies to the same stream.  A torn
    frame, a dead peer, or handler-side stream failure ends that
    connection only.

    :meth:`fileno_snapshot` lists the listener and every live
    connection fd — what a freshly forked worker process must close so
    torn-down client connections still deliver EOF.
    """

    def __init__(
        self,
        host: str,
        port: int,
        handler: Callable[[BinaryIO, dict[str, Any]], None],
        backlog: int = 16,
    ) -> None:
        self._host = host
        self._port = port
        self._handler = handler
        self._backlog = backlog
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._closed = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise ServerError("listener is not started")
        return self._listener.getsockname()[:2]

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def start(self) -> tuple[str, int]:
        if self._listener is not None:
            return self.address
        self._listener = socket.create_server(
            (self._host, self._port), backlog=self._backlog
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="server-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        if self._listener is not None:
            # Closing the fd alone does not wake a thread blocked in
            # accept(); shutting the listener down makes accept() fail
            # at once, so the join below does not sit out its timeout.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conn_lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)

    def fileno_snapshot(self) -> list[int]:
        """Fds a forked child must close: listener + live connections."""
        fds: list[int] = []
        if self._listener is not None:
            try:
                fds.append(self._listener.fileno())
            except OSError:
                pass
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                fd = conn.fileno()
            except OSError:
                continue
            if fd >= 0:
                fds.append(fd)
        return fds

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with self._conn_lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._handle_conn, args=(conn,), daemon=True
            ).start()

    def _handle_conn(self, conn: socket.socket) -> None:
        try:
            _set_nodelay(conn)
            stream = conn.makefile("rwb")
            while not self._closed.is_set():
                try:
                    message = recv_message(stream)
                except (FrameError, OSError):
                    return
                if message is None:
                    return
                document, _ = message
                try:
                    self._handler(stream, document)
                except (BrokenPipeError, OSError):
                    return
        except OSError:
            return  # closed under us by close() before the first read
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            conn.close()


# ---------------------------------------------------------------------------
# Asyncio message IO (the gateway's side of the same protocol)
# ---------------------------------------------------------------------------


async def async_send_message(
    writer: asyncio.StreamWriter,
    document: Mapping[str, Any],
    arrays: Mapping[str, np.ndarray] | None = None,
) -> None:
    """Write one message to an asyncio stream and drain.

    Same frame bytes as :func:`repro.runtime.frames.send_message`; the
    chaos hook is *not* consulted here — transport faults against the
    gateway are scheduled at its own ``gateway.route`` site instead, so
    per-process ``frames.send`` occurrence counters in existing chaos
    schedules keep their meaning.
    """
    header, body = encode_message(document, arrays)
    for payload in (header, body):
        if len(payload) > MAX_FRAME_BYTES:
            raise FrameError(
                f"frame of {len(payload)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte limit"
            )
        writer.write(LENGTH_PREFIX.pack(len(payload)))
        writer.write(payload)
    await writer.drain()


async def _read_frame_async(reader: asyncio.StreamReader) -> bytes | None:
    try:
        prefix = await reader.readexactly(LENGTH_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError(
            f"truncated frame: expected {LENGTH_PREFIX.size} bytes, "
            f"got {len(exc.partial)}"
        ) from exc
    (length,) = LENGTH_PREFIX.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(
            f"truncated frame: expected {length} bytes, "
            f"got {len(exc.partial)}"
        ) from exc


async def async_recv_message(
    reader: asyncio.StreamReader,
) -> tuple[dict[str, Any], dict[str, np.ndarray]] | None:
    """Read one message from an asyncio stream; ``None`` on clean EOF."""
    header = await _read_frame_async(reader)
    if header is None:
        return None
    body = await _read_frame_async(reader)
    if body is None:
        raise FrameError("message truncated after its document frame")
    return decode_message(header, body)
