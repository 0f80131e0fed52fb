"""Length-prefixed framing shared by the runtime wire formats.

Two layers live here:

* **Frames** — the ``<I``-length-prefix convention every runtime wire
  format in this repo already speaks (:mod:`repro.runtime.marshal` uses
  it for byte strings, tuples, and array payloads inside one radio
  element).  :func:`write_frame`/:func:`read_frame` apply the same
  convention to a byte stream, which is what a TCP connection needs:
  each frame is a 4-byte little-endian length followed by that many
  payload bytes.

* **Messages** — the partition server's unit of exchange: one JSON
  document in one frame.  A served answer's document is the one
  :func:`repro.workbench.artifacts.write_document` puts on disk.

Truncated streams raise :class:`FrameError` — a half-written frame must
fail loudly, mirroring :class:`repro.runtime.marshal.MarshalError` for
corrupt element payloads.
"""

from __future__ import annotations

import json
import struct
import time
from typing import Any, BinaryIO, Callable, Mapping

#: The 4-byte little-endian length prefix every runtime wire format uses
#: (element byte strings, tuple arities, array lengths, stream frames).
LENGTH_PREFIX = struct.Struct("<I")

#: Upper bound on a single frame; a corrupt length prefix must not make
#: a reader try to allocate gigabytes.
MAX_FRAME_BYTES = 1 << 30


class FrameError(Exception):
    """Raised for truncated or oversized frames on a byte stream."""


class InjectedFault(OSError):
    """A scheduled transport fault (see :mod:`repro.workbench.faults`).

    An ``OSError`` subclass on purpose: every transport caller already
    treats an ``OSError`` on a stream as "this connection is gone", so
    injected drops and truncations exercise exactly the production
    error paths.
    """


#: Fault-injection hook (``None`` in production).  When set — by
#: :func:`repro.workbench.faults.install` — :func:`send_frame` asks it
#: for an action before every send; the hook returns ``None`` (no
#: fault) or a rule-like object with ``action``/``delay`` attributes.
_fault_hook: Callable[[str], Any] | None = None


def set_fault_hook(hook: Callable[[str], Any] | None) -> None:
    """Arm (or, with ``None``, disarm) the frame fault-injection hook."""
    global _fault_hook
    _fault_hook = hook


def write_frame(stream: BinaryIO, payload: bytes) -> None:
    """Write one length-prefixed frame."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    stream.write(LENGTH_PREFIX.pack(len(payload)))
    stream.write(payload)


def _read_exact(stream: BinaryIO, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; ``None`` on clean EOF at a boundary."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if chunks:
                got = count - remaining
                raise FrameError(
                    f"truncated frame: expected {count} bytes, got {got}"
                )
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks) if chunks else b""


def read_frame(stream: BinaryIO) -> bytes | None:
    """Read one frame; ``None`` on a clean end-of-stream.

    A stream ending *inside* a frame (mid-prefix or mid-payload) raises
    :class:`FrameError`.
    """
    prefix = _read_exact(stream, LENGTH_PREFIX.size)
    if prefix is None:
        return None
    (length,) = LENGTH_PREFIX.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    if length == 0:
        return b""
    payload = _read_exact(stream, length)
    if payload is None:
        raise FrameError(f"truncated frame: expected {length} bytes, got 0")
    return payload


# ---------------------------------------------------------------------------
# Messages: one JSON document per frame
# ---------------------------------------------------------------------------


def encode_message(document: Mapping[str, Any]) -> bytes:
    """Encode one message as its frame payload: sorted-key JSON.

    The canonical wire form shared by every transport in this repo —
    server, client and gateway alike — so a message relayed through an
    intermediary re-encodes byte-identically.
    """
    return json.dumps(document, sort_keys=True).encode("utf-8")


def decode_message(frame: bytes) -> dict[str, Any]:
    """Decode one frame payload back into its document.

    Raises :class:`FrameError` for malformed JSON (an empty frame
    included) or a non-object document.
    """
    try:
        document = json.loads(frame.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"malformed document frame: {exc}") from exc
    if not isinstance(document, dict):
        raise FrameError(
            f"document frame holds {type(document).__name__}, expected object"
        )
    return document


def send_message(stream: BinaryIO, document: Mapping[str, Any]) -> None:
    """Write one message as one frame and flush."""
    send_frame(stream, encode_message(document))


def send_frame(stream: BinaryIO, frame: bytes) -> None:
    """Write one already-encoded message (see :func:`encode_message`).

    With a fault hook armed (chaos testing only), a scheduled fault may
    delay the send, corrupt the frame in place (the stream stays
    aligned; the receiver gets a typed :class:`FrameError`), or
    drop/truncate the message and raise :class:`InjectedFault` — the
    same ``OSError`` shape a dead peer produces, so the sender's
    connection-teardown path runs.
    """
    hook = _fault_hook
    if hook is not None:
        rule = hook("frames.send")
        if rule is not None:
            if rule.action == "delay":
                time.sleep(rule.delay)
            elif rule.action == "drop":
                # The frame never makes it out; on TCP an undeliverable
                # message is a dead connection, so fail the stream.
                raise InjectedFault("injected fault: frame dropped")
            elif rule.action == "truncate":
                stream.write(LENGTH_PREFIX.pack(len(frame)))
                stream.write(frame[: max(len(frame) // 2, 1)])
                stream.flush()
                raise InjectedFault("injected fault: frame truncated")
            elif rule.action == "corrupt":
                # A NUL can never start valid JSON: the receiver fails
                # with a typed FrameError, never a silent bad payload.
                frame = b"\x00" + frame[1:]
    write_frame(stream, frame)
    stream.flush()


def recv_message(stream: BinaryIO) -> dict[str, Any] | None:
    """Read one message; ``None`` on a clean end-of-stream.

    Raises :class:`FrameError` for truncation or a frame that is not
    a JSON object — the empty second frame of a peer still speaking
    the older two-frame form among them.
    """
    frame = read_frame(stream)
    if frame is None:
        return None
    return decode_message(frame)
