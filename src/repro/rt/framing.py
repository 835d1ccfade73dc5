"""Length-prefixed framed wire codec for the rt transport.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  The decoder is *incremental*: feed it whatever the
socket produced — half a prefix, three frames and a tail, one byte at a
time — and it yields every completed message, buffering the remainder.
A frame whose declared length exceeds the limit is rejected *before any
payload is read* (a corrupt or hostile prefix must not make a worker
host allocate gigabytes), and a payload that is not valid JSON raises
the same :class:`FrameError` so the connection handler has one failure
path.

A frame carries one message or a *batch*, ``{"type": "batch", "m":
[...]}``, that the sender coalesced from one loop turn's messages (see
:mod:`repro.rt.transport`).  The decoder flattens batches, so its caller
sees the same message sequence whichever way the sender framed it.
Data-plane tuples travel as *runs* (:func:`run_message`); a malformed
run, or a value JSON cannot carry, is a :class:`FrameError` too.

The codec is deliberately synchronous (bytes in, messages out) so it is
property-testable without an event loop; :mod:`repro.rt.transport` wraps
it in an asyncio protocol.
"""

from __future__ import annotations

import json
import struct
from itertools import repeat
from typing import Any, Dict, Iterator, List, Optional, Sequence

#: struct format of the length prefix (4-byte big-endian unsigned).
PREFIX = struct.Struct("!I")

#: frame-size cap; worker hosts read it when they listen and dial.
DEFAULT_FRAME_LIMIT = 1 << 20

_encode = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps builds one per call


class FrameError(ValueError):
    """A malformed frame: oversized declared length or invalid payload."""


def encode_frame(message: Dict[str, Any], limit: int = DEFAULT_FRAME_LIMIT) -> bytes:
    """Serialize one message to a length-prefixed frame."""
    try:
        payload = _encode(message).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise FrameError(f"unencodable message: {exc}") from exc
    if len(payload) > limit:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds the {limit}-byte limit"
        )
    return PREFIX.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """Parse one frame payload back into a message."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise FrameError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


def run_message(header: Sequence[Any], tasks: List[Any],
                wires: Sequence[Sequence[Any]]) -> Dict[str, Any]:
    """Rows sharing ``header``, ``(type, dst, ack_to[, src])``, as one
    message: its fields, the rows' ``tasks`` (``data`` only) and their
    wire tuples field-major as 8 ``cols`` (a lone one as ``row``)."""
    message = {"type": header[0], "dst": header[1], "ack_to": header[2]}
    if len(header) > 3:
        message["src"] = header[3]
    if tasks[0] is not None:
        message["tasks"] = tasks
    if len(wires) > 1:
        message["cols"] = list(zip(*wires))
    else:  # eight one-element columns cost more to encode and decode
        message["row"] = wires[0]
    return message


def run_rows(message: Dict[str, Any], tasks: Any = None) -> Iterator[Any]:
    """The ``(tasks, wire)`` rows of a run, in order (``tasks`` for rows
    without their own); fields of unequal length are a FrameError."""
    per_row = message.get("tasks")
    try:
        wires = [message["row"]] if "row" in message else list(zip(*message["cols"], strict=True))
    except ValueError as exc:
        raise FrameError(f"malformed run: {exc}") from None
    if not wires or len(wires[0]) != 8 or per_row is not None and len(per_row) != len(wires):
        raise FrameError(f"malformed run of {len(wires)} rows")
    return zip(repeat(tasks) if per_row is None else per_row, wires)


class FrameDecoder:
    """Incremental frame decoder (partial-read safe) that flattens batch
    frames.

    >>> dec = FrameDecoder()
    >>> data = encode_frame({"type": "hello"}) + encode_frame(
    ...     {"type": "batch", "m": [{"n": 1}, {"n": 2}]})
    >>> [m for chunk in (data[:3], data[3:]) for m in dec.feed(chunk)]
    [{'type': 'hello'}, {'n': 1}, {'n': 2}]
    >>> dec.frames_decoded
    2
    """

    def __init__(self, limit: int = DEFAULT_FRAME_LIMIT):
        if limit < 1:
            raise ValueError("frame limit must be positive")
        self.limit = limit
        self._buffer = bytearray()
        #: declared length of the frame currently being assembled.
        self._need: Optional[int] = None
        self.frames_decoded = 0

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Consume ``data``; return every message completed by it."""
        self._buffer.extend(data)
        out: List[Dict[str, Any]] = []
        while True:
            if self._need is None:
                if len(self._buffer) < PREFIX.size:
                    break
                (self._need,) = PREFIX.unpack_from(self._buffer)
                del self._buffer[: PREFIX.size]
                if self._need > self.limit:
                    raise FrameError(
                        f"declared frame length {self._need} exceeds the "
                        f"{self.limit}-byte limit"
                    )
            if len(self._buffer) < self._need:
                break
            payload = self._buffer[: self._need]
            del self._buffer[: self._need]
            self._need = None
            self.frames_decoded += 1
            message = decode_payload(payload)
            if message.get("type") != "batch":
                out.append(message)
                continue
            batch = message.get("m")
            if not isinstance(batch, list) or not all(
                isinstance(m, dict) for m in batch
            ):
                raise FrameError("batch frame must carry a list of JSON objects")
            out.extend(batch)
        return out
