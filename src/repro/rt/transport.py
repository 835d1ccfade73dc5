"""Asyncio transport: framed connections, credit gates, ephemeral
servers.

This is the thinnest possible wrapper binding the synchronous
:mod:`repro.rt.framing` codec to asyncio streams, plus the sender side
of the receiver-driven credit flow control the DES models in
:mod:`repro.dsps.flow`.  Everything binds ``127.0.0.1`` on an ephemeral
port (``port 0``): the rt backend never claims a fixed port, so smoke
runs and CI jobs can overlap freely.

**Worker-oriented writes.**  A :class:`FramedConnection` pays the
transport cost once per peer per loop turn, not once per message:
:meth:`~FramedConnection.send`/:meth:`~FramedConnection.post` queue a
control message, and :meth:`~FramedConnection.post_row` a data-plane
row onto the outbox's last *run* when that has the same header, else
onto a new one (so FIFO order holds).  The first entry queued in a turn
schedules one flush with ``loop.call_soon``, which encodes the outbox
as one ``{"type": "batch", "m": [...]}`` frame (a lone entry goes bare)
and makes one ``writer.write``; a batch over the frame limit is halved,
and a lone run split by rows, until every frame fits, in order.  A row
or message over the limit on its own, or holding a value JSON cannot
carry, is never written: it raises :class:`~repro.rt.framing.FrameError`
from the call that flushes it, or, when the deferred flush hit it, from
every later call and from ``close``.  An outbox of :data:`OUTBOX_LIMIT`
rows and messages flushes at once; ``send`` then also awaits
``drain()``, so a sender that never yields still feels the transport's
high-water mark; ``post``/``post_row`` only report the flush, and a
worker host's task then waits on :meth:`~FramedConnection.drained`.
:meth:`~FramedConnection.receive` returns the messages one socket read
completed, batches flattened, in per-connection FIFO order.

**Credit semantics.**  When ``SystemConfig.flow`` is on, each outbound
connection carries at most ``credit_window`` unacknowledged data-plane
rows; the receiver owes one credit per row once the work is in its
local executor queues and grants them once per half window and before
it parks, one summed ``credit`` message per flush.  A slow consumer thus
propagates backpressure to the sender instead of growing an unbounded
socket buffer.  Control messages (``acks``, ``credit`` itself,
``hello``) never consume credits — exactly the data/control split of
the simulated fabric.  Stall seconds feed
``MetricsHub.add_credit_stall``, the same accounting the DES keeps.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.rt.framing import DEFAULT_FRAME_LIMIT, FrameDecoder, FrameError, encode_frame, run_message

#: queued rows and messages at which the outbox flushes at once (and
#: :meth:`FramedConnection.send` also awaits the writer's ``drain()``).
OUTBOX_LIMIT = 256


class FramedConnection:
    """One framed, message-oriented TCP connection."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        limit: int = DEFAULT_FRAME_LIMIT,
    ):
        self.reader = reader
        self.writer = writer
        self.limit = limit
        self._decoder = FrameDecoder(limit)
        #: control messages and runs (``[header, tasks, wires]``) queued for
        #: the next flush, rows and messages queued, credits granted.
        self._outbox: List[Any] = []
        self._queued = 0
        self._credits = 0
        self._flush_scheduled = False
        #: why a flush refused a message it could not write; raised by
        #: every later ``send``/``post``/``grant`` and by ``close``.
        self._error: Optional[FrameError] = None
        self._closed = False
        self.frames_sent = 0

    async def send(self, message: Dict[str, Any]) -> None:
        """Queue one message for this loop turn's frame; a send that
        fills the outbox also awaits the writer's ``drain()``."""
        if self.post(message):
            await self.writer.drain()

    def post(self, message: Dict[str, Any]) -> bool:
        """Queue one control message without ever awaiting ``drain()``;
        returns whether it filled the outbox, which was then flushed at
        once."""
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
        self.writer.write(frame)
        self.frames_sent += 1

    async def receive(self) -> Optional[List[Dict[str, Any]]]:
        """Await one socket read and return every message it completed
        (possibly none), in order; ``None`` once the peer closed or
        reset the connection."""
        try:
            data = await self.reader.read(65536)
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            return None
        return self._decoder.feed(data) if data else None

    def drained(self) -> Optional["asyncio.Future[None]"]:
        """``None`` while the writer is under its high-water mark, else a
        future done once ``drain()`` returns."""
        transport = self.writer.transport
        if transport.get_write_buffer_size() <= transport.get_write_buffer_limits()[1]:
            return None
        return asyncio.ensure_future(self._drain_quietly())

    async def _drain_quietly(self) -> None:
        with contextlib.suppress(ConnectionError):
            await self.writer.drain()

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
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                self.writer.close()
                await self.writer.wait_closed()
        if self._error is not None:
            raise self._error


async def dial(
    port: int, limit: int = DEFAULT_FRAME_LIMIT, host: str = "127.0.0.1"
) -> FramedConnection:
    """Connect to a worker host's listener."""
    reader, writer = await asyncio.open_connection(host, port)
    return FramedConnection(reader, writer, limit)


async def serve(
    handler: Callable[[FramedConnection], Awaitable[None]],
    limit: int = DEFAULT_FRAME_LIMIT,
) -> Tuple[asyncio.AbstractServer, int]:
    """Start a framed server on an ephemeral localhost port.

    ``handler`` is awaited once per inbound connection with a
    :class:`FramedConnection`; returns ``(server, bound port)``.
    """

    async def on_connect(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = FramedConnection(reader, writer, limit)
        try:
            await handler(conn)
        except asyncio.CancelledError:
            # Loop teardown cancels inbound handlers mid-read; the dialer
            # is gone, so there is nothing left to do but close quietly.
            pass
        finally:
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await conn.close()

    server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
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
