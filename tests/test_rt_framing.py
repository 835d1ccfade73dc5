"""The rt framed codec: length prefixes, incremental decode, limits.

The framing layer is the only thing standing between the asyncio
backend and a corrupted byte stream, so it is tested exhaustively:
byte-at-a-time partial reads, multiple frames per read, declared-length
rejection *before* the payload arrives, and a Hypothesis round-trip
over arbitrary JSON messages split at arbitrary chunk boundaries.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rt.framing import (
    DEFAULT_FRAME_LIMIT,
    PREFIX,
    FrameDecoder,
    FrameError,
    decode_payload,
    encode_frame,
    run_message,
    run_rows,
)


def test_round_trip_single_frame():
    message = {"type": "data", "seq": 7, "values": {"word": "stream"}}
    decoder = FrameDecoder()
    frames = decoder.feed(encode_frame(message))
    assert frames == [message]
    assert decoder.frames_decoded == 1
    assert not decoder._buffer


def test_partial_reads_byte_at_a_time():
    """A frame arriving one byte per read() decodes exactly once, at the
    final byte."""
    message = {"type": "ack", "root": 12345, "task": 3}
    payload = encode_frame(message)
    decoder = FrameDecoder()
    out = []
    for i, byte in enumerate(payload):
        frames = decoder.feed(bytes([byte]))
        if i < len(payload) - 1:
            assert frames == []
        out.extend(frames)
    assert out == [message]


def test_multiple_frames_in_one_read():
    messages = [{"seq": i} for i in range(5)]
    blob = b"".join(encode_frame(m) for m in messages)
    decoder = FrameDecoder()
    assert decoder.feed(blob) == messages


def test_split_across_prefix_boundary():
    """The 4-byte length prefix itself can straddle reads."""
    message = {"type": "hello", "machine": 2}
    payload = encode_frame(message)
    decoder = FrameDecoder()
    assert decoder.feed(payload[:2]) == []
    assert decoder.feed(payload[2:5]) == []
    assert decoder.feed(payload[5:]) == [message]


def test_oversized_declared_length_rejected_before_payload():
    """A hostile/corrupt prefix is rejected from the header alone — the
    decoder must not wait for (or buffer) a gigabyte that never comes."""
    decoder = FrameDecoder(limit=64)
    header = PREFIX.pack(1 << 30)
    with pytest.raises(FrameError, match="exceeds the"):
        decoder.feed(header)  # no payload bytes at all


def test_encode_rejects_oversized_message():
    with pytest.raises(FrameError):
        encode_frame({"blob": "x" * 100}, limit=32)


def test_encode_names_a_value_json_cannot_carry():
    """A set (or a circular reference) is a FrameError naming the
    problem, not a bare TypeError; NaN keeps the stdlib's encoding."""
    with pytest.raises(FrameError, match="set"):
        encode_frame({"values": {"tags": {1, 2}}})
    loop = []
    loop.append(loop)
    with pytest.raises(FrameError, match="Circular"):
        encode_frame({"values": loop})
    (message,) = FrameDecoder().feed(encode_frame({"x": float("nan")}))
    assert message["x"] != message["x"]


def test_run_is_field_major_and_walks_back_into_rows():
    wires = [["s", {"n": n}, None, 8, 0.5, "s", n, n] for n in range(3)]
    data = run_message(("data", "sink", 2), [[1], [2, 3], [4]], wires)
    assert data == {"type": "data", "dst": "sink", "ack_to": 2,
                    "tasks": [[1], [2, 3], [4]], "cols": [tuple(c) for c in zip(*wires)]}
    (decoded,) = FrameDecoder().feed(encode_frame(data))
    assert [(tasks, list(wire)) for tasks, wire in run_rows(decoded)] == list(
        zip([[1], [2, 3], [4]], wires))
    relay = run_message(("relay", "sink", None, 5), [None] * 3, wires)
    assert relay["src"] == 5 and "tasks" not in relay
    assert [tasks for tasks, _ in run_rows(relay, [9])] == [[9]] * 3
    # one row travels as its wire tuple, not as eight one-element columns
    single = run_message(("data", "sink", 2), [[1]], wires[:1])
    assert single["row"] == wires[0] and "cols" not in single
    assert [(tasks, list(wire)) for tasks, wire in run_rows(single)] == [([1], wires[0])]


@pytest.mark.parametrize("break_run", [
    lambda m: m["cols"][3].pop(),  # a short column
    lambda m: m["tasks"].pop(),  # fewer task lists than rows
    lambda m: m["cols"].pop(),  # seven columns
    lambda m: m.update(row=m["cols"][0], tasks=[[1]]),  # one row of three fields
])
def test_malformed_run_is_a_frame_error_not_a_truncation(break_run):
    wires = [["s", {"n": n}, None, 8, 0.5, "s", n, n] for n in range(3)]
    (run,) = FrameDecoder().feed(encode_frame(
        run_message(("data", "sink", None), [[1]] * 3, wires)))
    break_run(run)
    with pytest.raises(FrameError):
        list(run_rows(run))


def test_decode_payload_rejects_garbage_and_non_objects():
    with pytest.raises(FrameError):
        decode_payload(b"\xff\xfenot json")
    with pytest.raises(FrameError):
        decode_payload(json.dumps([1, 2, 3]).encode("utf-8"))


def test_prefix_is_four_byte_big_endian():
    frame = encode_frame({"a": 1})
    (length,) = struct.unpack("!I", frame[:4])
    assert length == len(frame) - 4
    assert length <= DEFAULT_FRAME_LIMIT


# ----------------------------------------------------------------------
# property: any JSON message survives any chunking
# ----------------------------------------------------------------------
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=16),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
_messages = st.dictionaries(st.text(max_size=8), _json_values, max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(_messages, max_size=4), st.integers(min_value=1, max_value=7))
def test_round_trip_survives_arbitrary_chunking(messages, chunk):
    blob = b"".join(encode_frame(m) for m in messages)
    decoder = FrameDecoder()
    out = []
    for i in range(0, len(blob), chunk):
        out.extend(decoder.feed(blob[i : i + chunk]))
    assert out == messages
    assert not decoder._buffer


# ----------------------------------------------------------------------
# batch frames: flattened exactly once, in order
# ----------------------------------------------------------------------
def test_batch_frame_flattens_and_counts_one_frame():
    messages = [{"type": "ack", "root": r, "task": 3} for r in range(4)]
    decoder = FrameDecoder()
    assert decoder.feed(encode_frame({"type": "batch", "m": messages})) == messages
    assert decoder.frames_decoded == 1


def test_malformed_batch_frame_rejected():
    decoder = FrameDecoder()
    with pytest.raises(FrameError):
        decoder.feed(encode_frame({"type": "batch", "m": [1, 2]}))


_singles = _messages.filter(lambda m: m.get("type") != "batch")
_frames = st.lists(
    st.one_of(
        _singles,
        st.lists(_singles, max_size=4).map(lambda ms: {"type": "batch", "m": ms}),
    ),
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(_frames, st.integers(min_value=1, max_value=7))
def test_batch_and_single_frames_flatten_under_arbitrary_chunking(frames, chunk):
    expected = []
    for frame in frames:
        expected.extend(frame["m"] if frame.get("type") == "batch" else [frame])
    blob = b"".join(encode_frame(f) for f in frames)
    decoder = FrameDecoder()
    out = []
    for i in range(0, len(blob), chunk):
        out.extend(decoder.feed(blob[i : i + chunk]))
    assert out == expected
    assert decoder.frames_decoded == len(frames)
    assert not decoder._buffer
