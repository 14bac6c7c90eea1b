"""Frame-level fuzzing of the dist wire protocol.

Whatever bytes a peer writes before closing — random length prefixes,
truncated frames, oversized segments, headers that are not JSON or not
a typed mapping — :func:`recv_frame` must either return a well-formed
frame or raise :class:`ProtocolError` / :class:`ConnectionError`.  Any
other exception type, or a receive that blocks past the socket timeout
(surfacing as :class:`TimeoutError`), fails the test.  The result codec
gets the same treatment for blob lengths that do not match the blob.
"""

from __future__ import annotations

import json
import socket
import struct
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.protocol import (
    MAX_SEGMENT_BYTES,
    ProtocolError,
    decode_results,
    encode_results,
    recv_frame,
    send_frame,
)
from repro.runner.spec import RunSpec, execute_spec

PREFIX = struct.Struct(">II")
#: Longest a fuzzed receive may block; a hang shows up as TimeoutError.
RECV_TIMEOUT_S = 5.0

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.floats(allow_nan=False, allow_infinity=False),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)
headers = st.dictionaries(st.text(max_size=6), json_values, max_size=4).map(
    lambda d: {**d, "type": "job"}
)


def _receive(data: bytes, close: bool = True):
    """``recv_frame`` on one end of a socketpair after the peer wrote ``data``.

    The peer writes from a thread (``data`` may exceed the socket
    buffer) and then closes unless ``close`` is false.  Returns the
    frame, or the exception ``recv_frame`` raised.
    """
    rx, tx = socket.socketpair()
    rx.settimeout(RECV_TIMEOUT_S)

    def write() -> None:
        try:
            tx.sendall(data)
        except OSError:
            pass  # the receiver gave up early and closed its end
        if close:
            tx.close()

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return recv_frame(rx)
    except Exception as exc:  # noqa: BLE001 - the caller checks the type
        return exc
    finally:
        rx.close()
        writer.join(timeout=RECV_TIMEOUT_S)
        tx.close()
        assert not writer.is_alive(), "peer writer still blocked"


def _assert_clean(outcome) -> None:
    if isinstance(outcome, BaseException):
        assert isinstance(outcome, (ProtocolError, ConnectionError)), (
            repr(outcome)
        )
    else:
        header, blob = outcome
        assert isinstance(header, dict) and "type" in header
        assert isinstance(blob, bytes)


def _frame(header_bytes: bytes, blob: bytes = b"") -> bytes:
    return PREFIX.pack(len(header_bytes), len(blob)) + header_bytes + blob


class TestRecvFrame:
    @settings(max_examples=60, deadline=None)
    @given(
        json_len=st.integers(min_value=0, max_value=2**32 - 1),
        blob_len=st.integers(min_value=0, max_value=2**32 - 1),
        body=st.binary(max_size=300),
    )
    def test_random_length_prefixes(self, json_len, blob_len, body):
        _assert_clean(_receive(PREFIX.pack(json_len, blob_len) + body))

    @settings(max_examples=60, deadline=None)
    @given(header=headers, blob=st.binary(max_size=200), data=st.data())
    def test_truncated_frame_then_close(self, header, blob, data):
        frame = _frame(json.dumps(header).encode(), blob)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        outcome = _receive(frame[:cut])
        assert isinstance(outcome, ConnectionError), repr(outcome)

    @settings(max_examples=30, deadline=None)
    @given(header=headers, blob=st.binary(max_size=200))
    def test_whole_frame_round_trips(self, header, blob):
        rx, tx = socket.socketpair()
        try:
            send_frame(tx, header, blob)
            got, got_blob = recv_frame(rx)
        finally:
            rx.close()
            tx.close()
        got.pop("_nbytes")
        assert got == header and got_blob == blob

    @settings(max_examples=30, deadline=None)
    @given(
        big=st.integers(min_value=MAX_SEGMENT_BYTES + 1, max_value=2**32 - 1),
        small=st.integers(min_value=0, max_value=64),
        header_is_big=st.booleans(),
    )
    def test_oversized_segment_refused_without_reading_it(
        self, big, small, header_is_big
    ):
        # The peer stays open: a receiver that tried to read (or
        # allocate) the oversized segment would block and time out.
        lengths = (big, small) if header_is_big else (small, big)
        prefix = PREFIX.pack(*lengths)
        outcome = _receive(prefix, close=False)
        assert isinstance(outcome, ProtocolError), repr(outcome)

    @settings(max_examples=60, deadline=None)
    @given(raw=st.binary(min_size=1, max_size=200))
    def test_non_json_header(self, raw):
        try:
            json.loads(raw.decode())
        except (ValueError, RecursionError):
            pass
        else:
            return  # happens to be valid JSON; covered below
        outcome = _receive(_frame(raw))
        assert isinstance(outcome, ProtocolError), repr(outcome)

    @settings(max_examples=60, deadline=None)
    @given(value=json_values)
    def test_non_mapping_header(self, value):
        if isinstance(value, dict):
            value.pop("type", None)  # a mapping without a type is not typed
        outcome = _receive(_frame(json.dumps(value).encode()))
        assert isinstance(outcome, ProtocolError), repr(outcome)

    def test_deeply_nested_header(self):
        depth = 100_000
        outcome = _receive(_frame(b"[" * depth + b"]" * depth))
        assert isinstance(outcome, ProtocolError), repr(outcome)


@pytest.fixture(scope="module")
def encoded():
    """Metadata + blob of two real results: an RLE trace and none."""
    results = [
        execute_spec(RunSpec("video-player", seed=1, max_seconds=0.5,
                             trace_policy="rle")),
        execute_spec(RunSpec("video-player", seed=2, max_seconds=0.5,
                             trace_policy="none")),
    ]
    return encode_results(results)


class TestDecodeResults:
    def test_round_trip(self, encoded):
        metas, blob = encoded
        assert len(decode_results(metas, blob)) == 2

    @settings(max_examples=40, deadline=None)
    @given(which=st.integers(min_value=0, max_value=1), data=st.data())
    def test_mismatched_blob_length(self, encoded, which, data):
        metas, blob = encoded
        n = metas[which]["blob_len"]
        wrong = data.draw(
            st.integers(min_value=-n - 8, max_value=len(blob) + 8).filter(
                lambda v: v != n
            )
        )
        bad = [dict(m) for m in metas]
        bad[which]["blob_len"] = wrong
        with pytest.raises(ProtocolError):
            decode_results(bad, blob)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_blob_truncated_or_extended(self, encoded, data):
        metas, blob = encoded
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        with pytest.raises(ProtocolError):
            decode_results(metas, blob[:cut])
        extra = data.draw(st.binary(min_size=1, max_size=16))
        with pytest.raises(ProtocolError):
            decode_results(metas, blob + extra)
