"""Asyncio transport: framed protocol connections, credit gates,
ephemeral servers.

This is the thinnest possible wrapper binding the synchronous
:mod:`repro.rt.framing` codec to an asyncio :class:`~asyncio.
BufferedProtocol`, plus the sender side of the receiver-driven credit
flow control the DES models in :mod:`repro.dsps.flow`.  Everything binds
``127.0.0.1`` on an ephemeral port (``port 0``): the rt backend never
claims a fixed port, so smoke runs and CI jobs can overlap freely.

**Reads.**  A :class:`FramedConnection` reads into one receive buffer
that every connection on the thread's event loop shares: the loop is
single-threaded and ``buffer_updated`` consumes the buffer before the
next ``get_buffer``, and a private 64 KiB buffer per connection would
cost about 7 MB on an 8-host mesh.  ``buffer_updated`` feeds the
:class:`~repro.rt.framing.FrameDecoder` and hands the messages the read
completed, batches flattened and in per-connection FIFO order, to the
owner's ``on_messages`` in the same callback, so a message costs no
loop turn between the socket and its handler.  A handler that must wait
calls ``transport.pause_reading()`` and keeps the rest of the read;
``resume_reading()`` lets the next read in.  :func:`serve` and
:func:`dial` call their ``on_connect(conn)`` from ``connection_made``,
before the first read, to install the hooks.  ``connection_lost`` is the
one place the end of a connection enters: it calls ``on_lost`` with the
error of this side's decoder or handler (:meth:`FramedConnection.fail`),
else a transport error, or ``None`` after an EOF, a reset or a close.

**Worker-oriented writes.**  A connection pays the transport cost once
per peer per loop turn, not once per message:
:meth:`~FramedConnection.send`/:meth:`~FramedConnection.post` queue a
control message, and :meth:`~FramedConnection.post_row` a data-plane
row onto the outbox's last *run* when that has the same header, else
onto a new one (so FIFO order holds).  The first entry queued in a turn
schedules one flush with ``loop.call_soon``, which encodes the outbox
as one ``{"type": "batch", "m": [...]}`` frame (a lone entry goes bare)
and makes one ``transport.write``; a batch over the frame limit is
halved, and a lone run split by rows, until every frame fits, in order.
A row or message over the limit on its own, or holding a value JSON
cannot carry, is never written: it raises
:class:`~repro.rt.framing.FrameError` from the call that flushes it, or,
when the deferred flush hit it, from every later call and from
``close``.  An outbox of :data:`OUTBOX_LIMIT` rows and messages flushes
at once.  The transport's ``pause_writing``/``resume_writing`` set
:attr:`~FramedConnection.writing_paused` and wake the senders that
registered with :meth:`~FramedConnection.when_writable`: ``send`` waits
there after a flush while writing is paused, so a sender that never
yields still feels the high-water mark; ``post``/``post_row`` only
report the flush, and a worker host's sender then parks there.

**Credit semantics.**  When ``SystemConfig.flow`` is on, each outbound
connection carries at most ``credit_window`` unacknowledged data-plane
rows; the receiver owes one credit per row once the work is in its
local executor queues and grants them once per half window and before
it parks, one summed ``credit`` message per flush.  A slow consumer thus
propagates backpressure to the sender instead of growing an unbounded
socket buffer.  Control messages (``acks``, ``credit`` itself) never
consume credits — exactly the data/control split of the simulated
fabric.  Stall seconds feed ``MetricsHub.add_credit_stall``, the same
accounting the DES keeps.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.rt.framing import DEFAULT_FRAME_LIMIT, FrameDecoder, FrameError, encode_frame, run_message

#: queued rows and messages at which the outbox flushes at once (and
#: :meth:`FramedConnection.send` also waits while writing is paused).
OUTBOX_LIMIT = 256

#: bytes one socket read may fill.
RECEIVE_BUFFER_BYTES = 65536

#: the receive buffer of each thread's connections (one event loop each).
_receive = threading.local()


def _receive_buffer() -> memoryview:
    buffer = getattr(_receive, "buffer", None)
    if buffer is None:
        buffer = _receive.buffer = memoryview(bytearray(RECEIVE_BUFFER_BYTES))
    return buffer


def _ignore(_: Any) -> None:
    pass


class FramedConnection(asyncio.BufferedProtocol):
    """One framed, message-oriented TCP connection."""

    def __init__(
        self,
        limit: int = DEFAULT_FRAME_LIMIT,
        on_connect: Optional[Callable[["FramedConnection"], None]] = None,
    ):
        self.limit = limit
        self.transport: Optional[asyncio.Transport] = None
        #: the owner's hooks: each read's complete messages, in order;
        #: how the connection ended (see the module docstring).
        self.on_messages: Callable[[List[Dict[str, Any]]], None] = _ignore
        self.on_lost: Callable[[Optional[Exception]], None] = _ignore
        self._on_connect = on_connect
        self._decoder = FrameDecoder(limit)
        self._buffer = _receive_buffer()
        #: control messages and runs (``[header, tasks, wires]``) queued for
        #: the next flush, rows and messages queued, credits granted.
        self._outbox: List[Any] = []
        self._queued = 0
        self._credits = 0
        self._flush_scheduled = False
        #: why a flush refused a message it could not write; raised by
        #: every later ``send``/``post``/``grant`` and by ``close``.
        self._error: Optional[FrameError] = None
        #: why this side's decoder or handler ended the connection.
        self._failure: Optional[Exception] = None
        self._closed = False
        #: done once ``connection_lost`` ran.
        self._gone: Optional[asyncio.Future] = None
        #: the transport is above its high-water mark; wake-ups of the
        #: senders waiting for it to drain.
        self.writing_paused = False
        self._writable: List[Callable[[], Any]] = []
        self.frames_sent = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self._gone = asyncio.get_running_loop().create_future()
        if self._on_connect is not None:
            self._on_connect(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._buffer

    def buffer_updated(self, nbytes: int) -> None:
        try:
            messages = self._decoder.feed(self._buffer[:nbytes])
            if messages:
                self.on_messages(messages)
        except Exception as exc:
            self.fail(exc)

    def pause_writing(self) -> None:
        self.writing_paused = True

    def resume_writing(self) -> None:
        self.writing_paused = False
        self._wake_writers()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._gone.set_result(None)
        self.writing_paused = False
        self._wake_writers()
        if isinstance(exc, (ConnectionResetError, BrokenPipeError)):
            exc = None
        self.on_lost(self._failure or exc)

    def _wake_writers(self) -> None:
        waiters, self._writable = self._writable, []
        for wake in waiters:
            wake()

    def fail(self, error: Exception) -> None:
        """End the connection because of ``error`` (a corrupt frame, a
        message its handler refused); ``on_lost`` receives it."""
        if self._failure is None:
            self._failure = error
            self.transport.abort()

    async def send(self, message: Dict[str, Any]) -> None:
        """Queue one message for this loop turn's frame; a send that
        fills the outbox also waits while writing is paused."""
        if self.post(message) and self.writing_paused:
            writable = asyncio.get_running_loop().create_future()
            self.when_writable(lambda: writable.done() or writable.set_result(None))
            await writable

    def when_writable(self, wake: Callable[[], Any]) -> None:
        """Call ``wake()`` once writing resumes (or the connection ends)."""
        self._writable.append(wake)

    def post(self, message: Dict[str, Any]) -> bool:
        """Queue one control message without ever waiting; returns
        whether it filled the outbox, which was then flushed at once."""
        self._check_open()
        self._outbox.append(message)
        return self._queued_one()

    def post_row(self, header: Tuple[Any, ...], tasks: Any, wire: Any) -> bool:
        """Queue a data-plane row onto the last run when it has this
        header, else onto a new one; returns what :meth:`post` returns."""
        self._check_open()
        last = self._outbox[-1] if self._outbox else None
        if last.__class__ is list and last[0] == header:
            last[1].append(tasks)
            last[2].append(wire)
        else:
            self._outbox.append([header, [tasks], [wire]])
        return self._queued_one()

    def _queued_one(self) -> bool:
        self._queued += 1
        if self._queued >= OUTBOX_LIMIT:
            self._flush()
            return True
        self._schedule_flush()
        return False

    def grant(self, n: int = 1) -> None:
        """Return ``n`` credits to the peer with the next flush."""
        self._check_open()
        self._credits += n
        self._schedule_flush()

    def _check_open(self) -> None:
        if self._error is not None:
            raise self._error
        if self._closed:
            raise ConnectionError("write on a closed connection")

    def _schedule_flush(self) -> None:
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._deferred_flush)

    def _deferred_flush(self) -> None:
        self._flush_scheduled = False
        with contextlib.suppress(FrameError):  # kept in ``_error``
            self._flush()

    def _flush(self) -> None:
        """Write every queued entry and the summed credit grant."""
        entries, self._outbox, self._queued = self._outbox, [], 0
        if self._credits:
            entries.append({"type": "credit", "n": self._credits})
            self._credits = 0
        if not entries:
            return
        try:
            self._write(entries)
        except FrameError as exc:
            self._error = exc
            raise

    def _write(self, entries: List[Any]) -> None:
        m = [run_message(*e) if e.__class__ is list else e for e in entries]
        try:
            frame = encode_frame(m[0] if len(m) == 1 else {"type": "batch", "m": m}, self.limit)
        except FrameError:
            if len(entries) == 1:  # split a lone run by rows
                if entries[0].__class__ is not list or len(entries[0][2]) < 2:
                    raise
                header, tasks, wires = entries[0]
                h = len(wires) // 2
                entries = [[header, tasks[:h], wires[:h]], [header, tasks[h:], wires[h:]]]
            half = len(entries) // 2
            self._write(entries[:half])
            self._write(entries[half:])
            return
        self.transport.write(frame)
        self.frames_sent += 1

    async def close(self) -> None:
        """Write everything queued, then close; raises the
        :class:`FrameError` of a message that could not be written."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._error is None:
                self._flush()
        finally:
            self.transport.close()
            await self._gone
        if self._error is not None:
            raise self._error


async def dial(
    port: int,
    limit: int = DEFAULT_FRAME_LIMIT,
    host: str = "127.0.0.1",
    on_connect: Optional[Callable[[FramedConnection], None]] = None,
) -> FramedConnection:
    """Connect to a worker host's listener; ``on_connect(conn)`` runs
    before the first read."""
    _, conn = await asyncio.get_running_loop().create_connection(
        lambda: FramedConnection(limit, on_connect), host, port)
    return conn


async def serve(
    on_connect: Callable[[FramedConnection], None],
    limit: int = DEFAULT_FRAME_LIMIT,
) -> Tuple[asyncio.AbstractServer, int]:
    """Start a framed server on an ephemeral localhost port.

    ``on_connect`` runs once per inbound connection, before its first
    read, with its :class:`FramedConnection`; returns ``(server, bound
    port)``.
    """
    server = await asyncio.get_running_loop().create_server(
        lambda: FramedConnection(limit, on_connect), "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    return server, port


class CreditGate:
    """Sender-side credit window for one outbound connection.

    ``window=None`` disables flow control (every take is free) — the rt
    translation of ``SystemConfig.flow = False``.  Otherwise at most
    ``window`` data-plane rows may be in flight; a grant that
    reopens the window wakes every sender that registered with
    :meth:`when_granted`, in registration order.
    """

    def __init__(self, window: Optional[int]):
        if window is not None and window < 1:
            raise ValueError(f"credit window must be >= 1, got {window}")
        self.window = window
        self.in_flight = 0
        #: high-water mark of concurrently unacknowledged data rows —
        #: the invariant the transport tests pin (never exceeds window).
        self.max_in_flight = 0
        #: wake-ups of the senders waiting for credit.
        self._waiters: List[Callable[[], Any]] = []

    def take(self) -> bool:
        """Take one credit if the window has one (always, when disabled)."""
        if self.window is None:
            return True
        if self.in_flight >= self.window:
            return False
        self.in_flight += 1
        if self.in_flight > self.max_in_flight:
            self.max_in_flight = self.in_flight
        return True

    def when_granted(self, wake: Callable[[], Any]) -> None:
        """Call ``wake()`` at the next grant that reopens the window."""
        self._waiters.append(wake)

    async def acquire(self) -> float:
        """Take one credit, waiting if the window is exhausted; returns
        the wall-clock seconds spent stalled."""
        if self.take():
            return 0.0
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        while not self.take():
            granted = loop.create_future()
            self.when_granted(lambda: granted.done() or granted.set_result(None))
            await granted
        return loop.time() - t0

    def grant(self, n: int = 1) -> None:
        """The receiver acknowledged ``n`` data rows; every waiting
        sender retries."""
        if self.window is None:
            return
        self.in_flight = max(0, self.in_flight - n)
        if self.in_flight < self.window and self._waiters:
            waiters, self._waiters = self._waiters, []
            for wake in waiters:
                wake()
