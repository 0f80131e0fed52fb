"""The shared client/server plumbing under the server and the gateway.

Pins the contracts the serving layers lean on: address and manifest
parsing (every spec shape normalizes to canonical ``host:port``
targets, and a client refuses a spec naming several backends), the
*per-attempt* connect deadline (a dead backend must fail in about
``connect_timeout`` seconds even when the request ``timeout`` is
minutes), the seeded, instance-private backoff RNG, and
``TCP_NODELAY`` on both ends of a blocking frames connection (with
Nagle on, every served round trip stalls ~40 ms on the peer's delayed
ACK).
"""

from __future__ import annotations

import json
import socket as socket_mod
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.frames import send_message
from repro.workbench import (
    PartitionDirectory,
    PartitionRequest,
    PartitionServer,
    ServerClient,
    Session,
)
from repro.workbench.transport import (
    Backoff,
    ClientConnection,
    FrameListener,
    ServerError,
    ServerUnavailable,
    format_address,
    load_manifest,
    parse_address,
    parse_targets,
)


def write_manifest(path, backends) -> None:
    """Write the ``@manifest.json`` shape ``--backends`` reads."""
    path.write_text(json.dumps({"backends": backends}), encoding="utf-8")


# ---------------------------------------------------------------------------
# Address / manifest / routing-spec parsing
# ---------------------------------------------------------------------------


def test_parse_address_shapes():
    assert parse_address("127.0.0.1:7453") == ("127.0.0.1", 7453)
    assert parse_address(("10.0.0.1", 80)) == ("10.0.0.1", 80)
    assert parse_address(["h", 9]) == ("h", 9)
    # A bare ":port" defaults the host.
    assert parse_address(":7453") == ("127.0.0.1", 7453)


@pytest.mark.parametrize(
    "bad", ["no-port", "h:notaport", 7453, ("h",), ("h", "x", 1), None]
)
def test_parse_address_rejects_garbage(bad):
    with pytest.raises(ServerError):
        parse_address(bad)


@pytest.mark.parametrize(
    "bad",
    ["h1:1,h2:2", "h1:1, h2:2", "@fleet.json:1", "h 1:2", "h\t1:2",
     ("h1,h2", 1), ("@fleet.json", 1)],
)
def test_parse_address_rejects_multi_target_hosts(bad):
    """A comma list or a manifest reference in a single-address slot is
    refused, not read as one bogus host (``"h1:1,h2"`` on port 2)."""
    with pytest.raises(ServerError, match="not host:port"):
        parse_address(bad)
    with pytest.raises(ServerError, match="not host:port"):
        format_address(bad)


def test_manifest_entry_holding_a_comma_list_is_rejected(tmp_path):
    """One manifest entry naming two backends fails when the manifest
    is read, instead of joining the directory as one unreachable
    backend and failing over silently at connect time."""
    path = tmp_path / "fleet.json"
    path.write_text(
        json.dumps({"backends": ["127.0.0.1:1,127.0.0.1:2"]}),
        encoding="utf-8",
    )
    with pytest.raises(ServerError, match="not host:port"):
        parse_targets(f"@{path}")
    with pytest.raises(ServerError, match="not host:port"):
        PartitionDirectory(f"@{path}")
    with pytest.raises(ServerError, match="not host:port"):
        PartitionDirectory(["127.0.0.1:1,127.0.0.1:2"])


def test_parse_targets_shapes():
    assert parse_targets("h1:1") == ["h1:1"]
    assert parse_targets("h1:1,h2:2") == ["h1:1", "h2:2"]
    assert parse_targets(" h1:1 , h2:2 ,") == ["h1:1", "h2:2"]
    assert parse_targets(("h1", 1)) == ["h1:1"]
    assert parse_targets(["h1:1", ("h2", 2)]) == ["h1:1", "h2:2"]


def test_parse_targets_dedups_preserving_order():
    assert parse_targets("h2:2,h1:1,h2:2") == ["h2:2", "h1:1"]


def test_parse_targets_rejects_empty():
    with pytest.raises(ServerError, match="no backends"):
        parse_targets("  ,  ,")
    with pytest.raises(ServerError):
        parse_targets([])


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "ring.json"
    write_manifest(path, [["h1", 1], "h2:2"])
    assert load_manifest(path) == ["h1:1", "h2:2"]
    # The @manifest spec shape routes through the same loader.
    assert parse_targets(f"@{path}") == ["h1:1", "h2:2"]


@pytest.mark.parametrize(
    "payload",
    ["not json", "[]", '{"nodes": []}', '{"backends": []}',
     '{"backends": "h1:1"}'],
)
def test_manifest_rejects_malformed(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload, encoding="utf-8")
    with pytest.raises(ServerError):
        load_manifest(path)


def test_manifest_missing_file_is_typed(tmp_path):
    with pytest.raises(ServerError, match="cannot read"):
        load_manifest(tmp_path / "absent.json")


_hosts = st.from_regex(r"[a-z][a-z0-9.-]{0,20}", fullmatch=True)
_ports = st.integers(min_value=1, max_value=65535)
_addresses = st.builds(lambda h, p: f"{h}:{p}", _hosts, _ports)


@given(backends=st.lists(_addresses, min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_manifest_roundtrip_property(tmp_path_factory, backends):
    """Loading is identity on canonical, deduped target lists."""
    path = tmp_path_factory.mktemp("manifests") / "m.json"
    canonical = parse_targets(backends)
    write_manifest(path, canonical)
    assert load_manifest(path) == canonical


@given(backends=st.lists(_addresses, min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_parse_targets_idempotent(backends):
    once = parse_targets(backends)
    assert parse_targets(once) == once
    assert parse_targets(",".join(once)) == once
    assert once == [format_address(b) for b in dict.fromkeys(once)]


# ---------------------------------------------------------------------------
# One address per client: a fleet is routed by the gateway
# ---------------------------------------------------------------------------

#: Two ports nothing listens on: a client that dialled them would retry
#: until its connect timeout ran out.
FLEET = ["127.0.0.1:1", "127.0.0.1:2"]


def fleet_manifest(tmp_path, backends) -> str:
    path = tmp_path / "fleet.json"
    write_manifest(path, backends)
    return f"@{path}"


def assert_refused_before_connecting(call) -> None:
    """``call`` raises a typed, non-retryable error naming the gateway,
    well inside the connect timeout: no socket was dialled."""
    start = time.monotonic()
    with pytest.raises(ServerError, match="gateway") as info:
        call()
    assert time.monotonic() - start < 1.0
    assert not isinstance(info.value, ServerUnavailable)


@pytest.mark.parametrize("shape", ["comma", "list", "manifest"])
def test_server_client_refuses_multi_backend_spec(tmp_path, shape):
    spec = {
        "comma": ",".join(FLEET),
        "list": list(FLEET),
        "manifest": fleet_manifest(tmp_path, FLEET),
    }[shape]
    assert_refused_before_connecting(
        lambda: ServerClient(spec, connect_timeout=30)
    )


def test_session_partition_many_refuses_multi_backend_spec():
    session = Session("eeg", params={"n_channels": 2})
    assert_refused_before_connecting(
        lambda: session.partition_many(
            [PartitionRequest(rate_factor=1.0)], server=",".join(FLEET)
        )
    )


def test_server_client_accepts_one_entry_list_and_manifest(tmp_path):
    with socket_mod.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        address = "%s:%d" % listener.getsockname()
        for spec in (
            [address],
            [address, address],  # duplicates collapse to one backend
            fleet_manifest(tmp_path, [address]),
        ):
            with ServerClient(spec, connect_timeout=5) as client:
                assert client._sock is not None


# ---------------------------------------------------------------------------
# Connect deadline (the ISSUE 9 client-hardening bugfix)
# ---------------------------------------------------------------------------


def test_connect_attempts_capped_by_connect_deadline(monkeypatch):
    """Each ``socket.create_connection`` attempt gets at most the
    *remaining* connect budget — never the 300 s request timeout the
    old code passed (which made ``connect_timeout`` decorative)."""
    seen: list[float] = []

    def refuse(addr, timeout=None):
        seen.append(timeout)
        raise OSError("refused")

    monkeypatch.setattr(
        "repro.workbench.transport.socket.create_connection", refuse
    )
    conn = ClientConnection(
        "192.0.2.1", 9, timeout=300.0, connect_timeout=0.5
    )
    start = time.monotonic()
    with pytest.raises(ServerUnavailable, match="cannot connect"):
        conn.connect()
    elapsed = time.monotonic() - start
    assert seen, "no connect attempt recorded"
    assert all(t is not None and t <= 0.5 for t in seen)
    # The whole loop respects the connect deadline, not the request
    # timeout: refusals + 50 ms retry naps stay well under a second.
    assert elapsed < 5.0


def test_connect_attempts_never_exceed_request_timeout(monkeypatch):
    """A request timeout *shorter* than the connect budget also caps
    each attempt (no attempt may outlive either deadline)."""
    seen: list[float] = []

    def refuse(addr, timeout=None):
        seen.append(timeout)
        raise OSError("refused")

    monkeypatch.setattr(
        "repro.workbench.transport.socket.create_connection", refuse
    )
    conn = ClientConnection("192.0.2.1", 9, timeout=0.2, connect_timeout=5.0)
    with pytest.raises(ServerUnavailable):
        conn.connect()
    assert seen
    assert all(t <= 0.2 for t in seen)


def test_successful_connect_restores_request_timeout():
    """After connecting, the socket runs under the *request* timeout."""
    listener = socket_mod.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()
    try:
        conn = ClientConnection(host, port, timeout=123.0, connect_timeout=1.0)
        conn.connect()
        try:
            assert conn.connected
            assert conn.sock.gettimeout() == 123.0
        finally:
            conn.close()
        assert not conn.connected
    finally:
        listener.close()


# ---------------------------------------------------------------------------
# Nagle off on every blocking frames socket
# ---------------------------------------------------------------------------


def nodelay(sock) -> bool:
    return bool(
        sock.getsockopt(socket_mod.IPPROTO_TCP, socket_mod.TCP_NODELAY)
    )


def test_server_client_socket_has_nodelay(tmp_path):
    with PartitionServer(workers=0, store=str(tmp_path)) as srv:
        with ServerClient(srv.address) as client:
            assert client.ping()["ok"]
            assert nodelay(client._sock)


def test_frame_listener_connections_have_nodelay():
    def echo(stream, document):
        send_message(stream, {"echo": document})

    listener = FrameListener("127.0.0.1", 0, echo)
    host, port = listener.start()
    conn = ClientConnection(host, port, timeout=5.0)
    try:
        conn.connect()
        conn.send({"op": "ping"})
        # A reply means the handler thread has set up its connection.
        assert conn.recv() == {"echo": {"op": "ping"}}
        served = list(listener._conns)
        assert len(served) == 1
        assert nodelay(served[0])
    finally:
        conn.close()
        listener.close()


# ---------------------------------------------------------------------------
# Seeded backoff
# ---------------------------------------------------------------------------


def test_backoff_is_deterministic_per_seed():
    a = [Backoff(base=0.1, seed=42).delay(i) for i in range(6)]
    b = [Backoff(base=0.1, seed=42).delay(i) for i in range(6)]
    c = [Backoff(base=0.1, seed=43).delay(i) for i in range(6)]
    assert a == b
    assert a != c


def test_backoff_bounds():
    backoff = Backoff(base=0.1, cap=5.0, seed=0)
    for attempt in range(12):
        delay = backoff.delay(attempt)
        ceiling = min(0.1 * 2**attempt, 5.0)
        assert 0.5 * ceiling <= delay <= 1.5 * ceiling
    assert Backoff(base=0.0, seed=0).delay(3) == 0.0


def test_backoff_does_not_touch_global_random():
    """The jitter comes from a private RNG: the module-level stream is
    byte-for-byte undisturbed by client retries."""
    import random

    random.seed(1234)
    expected = [random.random() for _ in range(4)]
    random.seed(1234)
    backoff = Backoff(base=0.1, seed=7)
    for attempt in range(8):
        backoff.delay(attempt)
    assert [random.random() for _ in range(4)] == expected


# ---------------------------------------------------------------------------
# split_spec: the one shared "dir1,dir2,...|@manifest.json" parser
# ---------------------------------------------------------------------------


def test_split_spec_comma_list():
    from repro.workbench.transport import split_spec

    payload, items = split_spec(" a, b ,,c ")
    assert payload is None
    assert items == ["a", "b", "c"]


def test_split_spec_single_item_and_empty():
    from repro.workbench.transport import split_spec

    assert split_spec("alpha") == (None, ["alpha"])
    assert split_spec("") == (None, [])
    assert split_spec("  ,  ") == (None, [])


def test_split_spec_manifest(tmp_path):
    from repro.workbench.transport import split_spec

    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"backends": ["x", "y"], "replicas": 2}))
    payload, items = split_spec(f"@{path}")
    assert payload == {"backends": ["x", "y"], "replicas": 2}
    assert items == []


def test_split_spec_manifest_errors(tmp_path):
    from repro.workbench.transport import split_spec

    with pytest.raises(ServerError, match="cannot read manifest"):
        split_spec(f"@{tmp_path / 'missing.json'}")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ServerError, match="is not JSON"):
        split_spec(f"@{bad}")
