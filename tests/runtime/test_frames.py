"""The length-prefixed frame protocol (repro.runtime.frames)."""

import io

import pytest

from repro.runtime.frames import (
    LENGTH_PREFIX,
    FrameError,
    encode_message,
    read_frame,
    recv_message,
    send_message,
    write_frame,
)


def test_frame_roundtrip():
    stream = io.BytesIO()
    write_frame(stream, b"hello")
    write_frame(stream, b"")
    write_frame(stream, b"\x00" * 1000)
    stream.seek(0)
    assert read_frame(stream) == b"hello"
    assert read_frame(stream) == b""
    assert read_frame(stream) == b"\x00" * 1000
    assert read_frame(stream) is None  # clean EOF


def test_truncated_payload_raises():
    stream = io.BytesIO()
    write_frame(stream, b"payload")
    data = stream.getvalue()[:-3]
    with pytest.raises(FrameError, match="truncated"):
        read_frame(io.BytesIO(data))


def test_truncated_prefix_raises():
    with pytest.raises(FrameError, match="truncated"):
        read_frame(io.BytesIO(b"\x01\x02"))


def test_oversized_length_rejected():
    stream = io.BytesIO(LENGTH_PREFIX.pack(0xFFFFFFFF))
    with pytest.raises(FrameError, match="limit"):
        read_frame(stream)


def test_marshal_shares_the_prefix_convention():
    """A marshalled byte string embeds the same <I length prefix."""
    from repro.runtime.marshal import pack

    payload = pack(b"abcd")
    assert payload[0:1] == b"R"
    (length,) = LENGTH_PREFIX.unpack_from(payload, 1)
    assert length == 4


def test_message_roundtrip():
    document = {"op": "test", "nested": {"x": [1, 2.5, None]}}
    stream = io.BytesIO()
    send_message(stream, document)
    send_message(stream, {"second": True})
    stream.seek(0)
    assert recv_message(stream) == document
    assert recv_message(stream) == {"second": True}
    assert recv_message(stream) is None


def test_send_message_writes_one_frame():
    """A message is its length prefix and its sorted-key JSON, and
    nothing after it."""
    document = {"b": [1, 2.5], "a": None}
    header = encode_message(document)
    assert header == b'{"a": null, "b": [1, 2.5]}'
    stream = io.BytesIO()
    send_message(stream, document)
    assert stream.getvalue() == LENGTH_PREFIX.pack(len(header)) + header


def test_two_frame_peer_fails_typed():
    """A peer still sending a document frame and then an empty body
    frame is read as one good message, then a typed error — never a
    silent misread of the empty frame."""
    stream = io.BytesIO()
    write_frame(stream, encode_message({"op": "x"}))
    write_frame(stream, b"")
    stream.seek(0)
    assert recv_message(stream) == {"op": "x"}
    with pytest.raises(FrameError, match="malformed document frame"):
        recv_message(stream)


def test_message_truncated_inside_its_frame_raises():
    stream = io.BytesIO()
    send_message(stream, {"op": "x"})
    stream = io.BytesIO(stream.getvalue()[:-2])
    with pytest.raises(FrameError, match="truncated"):
        recv_message(stream)


def test_malformed_document_frame_raises():
    stream = io.BytesIO()
    write_frame(stream, b"not json")
    stream.seek(0)
    with pytest.raises(FrameError, match="malformed"):
        recv_message(stream)


def test_non_object_document_rejected():
    stream = io.BytesIO()
    write_frame(stream, b"[1, 2]")
    stream.seek(0)
    with pytest.raises(FrameError, match="expected object"):
        recv_message(stream)


def test_oversized_write_rejected_before_any_byte():
    """The write side enforces the frame bound too — and leaves the
    stream untouched when it rejects."""
    from repro.runtime.frames import MAX_FRAME_BYTES

    class Huge(bytes):
        # A bytes subclass lying about its length: exercises the size
        # check without allocating a real 1 GiB payload.
        def __len__(self):
            return MAX_FRAME_BYTES + 1

    stream = io.BytesIO()
    with pytest.raises(FrameError, match="exceeds"):
        write_frame(stream, Huge(b"x"))
    assert stream.getvalue() == b""


def test_mid_prefix_eof_raises():
    """A stream ending inside the 4-byte length prefix is truncation,
    not clean EOF."""
    for cut in (1, 2, 3):
        stream = io.BytesIO(LENGTH_PREFIX.pack(5)[:cut])
        with pytest.raises(FrameError, match="truncated"):
            read_frame(stream)


def test_mid_frame_eof_consumes_nothing_after_error():
    """Truncation inside a payload raises without leaking a partial
    read back to the caller (the stream is simply exhausted)."""
    stream = io.BytesIO(LENGTH_PREFIX.pack(10) + b"abc")
    with pytest.raises(FrameError, match="expected 10 bytes, got 3"):
        read_frame(stream)
    assert stream.read() == b""


def test_fault_hook_drop_and_truncate_raise_injected_fault():
    from repro.runtime import frames
    from repro.runtime.frames import InjectedFault

    class Rule:
        def __init__(self, action, delay=0.0):
            self.action = action
            self.delay = delay

    try:
        frames.set_fault_hook(lambda site: Rule("drop"))
        stream = io.BytesIO()
        with pytest.raises(InjectedFault):
            send_message(stream, {"k": 1})
        assert stream.getvalue() == b""  # nothing escaped

        frames.set_fault_hook(lambda site: Rule("truncate"))
        stream = io.BytesIO()
        with pytest.raises(InjectedFault):
            send_message(stream, {"k": 1})
        # A half-written document frame: the receiver sees truncation.
        stream.seek(0)
        with pytest.raises(FrameError):
            recv_message(stream)
    finally:
        frames.set_fault_hook(None)
    assert isinstance(InjectedFault("x"), OSError)


def test_fault_hook_corrupt_keeps_stream_aligned():
    """A corrupted document frame fails typed at the receiver, and the
    *next* message on the stream is still readable."""
    from repro.runtime import frames

    class Rule:
        action = "corrupt"
        delay = 0.0

    fire = iter([Rule(), None])
    try:
        frames.set_fault_hook(lambda site: next(fire))
        stream = io.BytesIO()
        send_message(stream, {"seq": 1})
        send_message(stream, {"seq": 2})
    finally:
        frames.set_fault_hook(None)
    stream.seek(0)
    with pytest.raises(FrameError, match="malformed document frame"):
        recv_message(stream)
    assert recv_message(stream) == {"seq": 2}
