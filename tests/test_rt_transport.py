"""The rt asyncio transport: framed connections over real sockets and
receiver-driven credit flow control.

Every test here opens genuine localhost TCP sockets on ephemeral ports
(``serve`` binds port 0), so they double as a regression net for the
environment assumptions the rt backend makes.  Tests drive their own
event loops with ``asyncio.run`` — no async test plugin required.
"""

import asyncio

import pytest

from repro.rt.framing import (
    DEFAULT_FRAME_LIMIT,
    FrameError,
    encode_frame,
    run_message,
    run_rows,
)
from repro.rt.transport import (
    OUTBOX_LIMIT,
    CreditGate,
    FramedConnection,
    dial,
    serve,
)


class _Inbox:
    """Installs a connection's hooks: records every message it receives
    and every ``on_lost`` call, and lets a coroutine wait for either."""

    def __init__(self, conn: FramedConnection):
        self.messages = []
        self.lost = []
        self._changed = asyncio.Event()
        conn.on_messages = self._on_messages
        conn.on_lost = self._on_lost

    def _on_messages(self, messages):
        self.messages.extend(messages)
        self._changed.set()

    def _on_lost(self, error):
        self.lost.append(error)
        self._changed.set()

    async def until(self, predicate):
        while not predicate():
            self._changed.clear()
            await self._changed.wait()


async def _dial(port, limit=DEFAULT_FRAME_LIMIT):
    """Dial with an :class:`_Inbox` installed before the first read."""
    inboxes = []
    conn = await dial(port, limit, on_connect=lambda c: inboxes.append(_Inbox(c)))
    return conn, inboxes[0]


def test_echo_over_real_sockets():
    """dial/serve round-trip: what goes in one end comes out the other,
    in order, and the five messages of one loop turn leave as one
    frame each way."""

    async def scenario():
        seen = []

        def on_connect(conn: FramedConnection):
            def on_messages(messages):
                for message in messages:
                    seen.append(message)
                    conn.post({"echo": message["seq"]})

            conn.on_messages = on_messages

        server, port = await serve(on_connect)
        conn, inbox = await _dial(port)
        for seq in range(5):
            await conn.send({"type": "data", "seq": seq})
        await inbox.until(lambda: len(inbox.messages) >= 5)
        await conn.close()
        server.close()
        await server.wait_closed()
        return seen, inbox.messages, conn

    seen, echoes, conn = asyncio.run(scenario())
    assert [m["seq"] for m in seen] == list(range(5))
    assert [m["echo"] for m in echoes] == list(range(5))
    assert conn.frames_sent == 1
    assert conn._decoder.frames_decoded == 1


def test_eof_reaches_connection_lost_exactly_once():
    """The messages a peer wrote before closing all arrive, then its EOF
    reaches ``on_lost`` exactly once, with no error."""

    async def scenario():
        def on_connect(conn: FramedConnection):
            conn.post({"bye": 1})
            asyncio.get_running_loop().create_task(conn.close())

        server, port = await serve(on_connect)
        conn, inbox = await _dial(port)
        await inbox.until(lambda: inbox.lost)
        await asyncio.sleep(0.02)  # nothing more arrives
        await conn.close()
        server.close()
        await server.wait_closed()
        return inbox

    inbox = asyncio.run(scenario())
    assert inbox.messages == [{"bye": 1}]
    assert inbox.lost == [None]


async def _collecting_server(limit: int = DEFAULT_FRAME_LIMIT):
    """A server that records every message it receives and sets
    ``done`` when its connection ends, at EOF or on a bad frame."""
    seen = []
    done = asyncio.Event()

    def on_connect(conn: FramedConnection):
        conn.on_messages = seen.extend
        conn.on_lost = lambda _: done.set()

    server, port = await serve(on_connect, limit)
    return server, port, seen, done


def test_burst_over_the_limit_is_split_into_frames_within_it():
    """One loop turn's burst bigger than the frame limit still arrives
    intact and in order, in several frames; the receiving decoder, on
    the same limit, rejects any frame over it."""
    limit = 256
    total = 50

    async def scenario():
        server, port, seen, done = await _collecting_server(limit)
        conn = await dial(port, limit)
        for seq in range(total):
            await conn.send({"type": "data", "seq": seq})
        await conn.close()
        await done.wait()
        server.close()
        await server.wait_closed()
        return seen, conn

    seen, conn = asyncio.run(scenario())
    assert [m["seq"] for m in seen] == list(range(total))
    assert 1 < conn.frames_sent < total


def test_oversized_message_raises_and_is_never_written():
    """A message over the limit on its own cannot be split: the turn's
    flush writes what precedes it, and the FrameError reaches the next
    ``send`` and ``close`` instead of the loop's exception log."""
    limit = 64

    async def scenario():
        server, port, seen, done = await _collecting_server(limit)
        conn = await dial(port, limit)
        await conn.send({"seq": 0})
        await conn.send({"blob": "x" * 200})
        await asyncio.sleep(0)  # this turn's flush runs
        with pytest.raises(FrameError):
            await conn.send({"seq": 1})
        with pytest.raises(FrameError):
            await conn.close()
        await done.wait()
        server.close()
        await server.wait_closed()
        return seen

    assert asyncio.run(scenario()) == [{"seq": 0}]


def test_close_writes_the_outbox_and_later_sends_raise():
    async def scenario():
        server, port, seen, done = await _collecting_server()
        conn = await dial(port)
        await conn.send({"seq": 0})
        await conn.close()
        with pytest.raises(ConnectionError):
            await conn.send({"seq": 1})
        await done.wait()
        server.close()
        await server.wait_closed()
        return seen

    assert asyncio.run(scenario()) == [{"seq": 0}]


def test_send_blocks_on_a_peer_that_never_reads():
    """A sender that never yields on its own still parks once the
    socket buffers and the transport's high-water mark fill, and the
    bytes the transport buffers stay within one full outbox of it."""
    message = {"type": "data", "blob": "x" * 4096}
    total = 20_000  # ~80 MB: far beyond what the kernel buffers absorb

    async def scenario():
        inbound = []

        def on_connect(conn: FramedConnection):
            inbound.append(conn)
            conn.transport.pause_reading()  # never reads

        server, port = await serve(on_connect)
        conn = await dial(port)
        sent = 0

        async def flood():
            nonlocal sent
            for _ in range(total):
                await conn.send(message)
                sent += 1

        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(flood(), timeout=0.5)
        transport = conn.transport
        buffered = transport.get_write_buffer_size()
        high_water = transport.get_write_buffer_limits()[1]
        transport.abort()
        inbound[0].transport.abort()
        server.close()
        await server.wait_closed()
        return sent, buffered, high_water

    sent, buffered, high_water = asyncio.run(scenario())
    assert sent < total
    assert buffered <= high_water + OUTBOX_LIMIT * len(encode_frame(message))


def test_writing_pauses_above_the_high_water_mark_and_resumes():
    """A synchronous sender's back-pressure: writing is not paused while
    the transport is under its high-water mark; after a flushing
    ``post`` into a peer that does not read it is, and a sender waiting
    in ``when_writable`` is woken once the peer reads again."""
    message = {"type": "data", "blob": "x" * 4096}

    async def scenario():
        inbound = []
        done = asyncio.Event()

        def on_connect(conn: FramedConnection):
            inbound.append(conn)
            conn.on_lost = lambda _: done.set()
            conn.transport.pause_reading()

        server, port = await serve(on_connect)
        conn = await dial(port)
        idle = conn.writing_paused
        woken = asyncio.Event()
        for _ in range(20_000):
            if conn.post(message) and conn.writing_paused:
                conn.when_writable(woken.set)
                break
        parked = conn.writing_paused and not woken.is_set()
        inbound[0].transport.resume_reading()
        await asyncio.wait_for(woken.wait(), timeout=10.0)
        after = conn.writing_paused
        await conn.close()
        await done.wait()
        server.close()
        await server.wait_closed()
        return idle, parked, after

    idle, parked, after = asyncio.run(scenario())
    assert not idle
    assert parked
    assert not after


def test_post_queues_without_awaiting_and_flushes_at_the_outbox_limit():
    """``post`` is synchronous: below the limit it leaves the turn's
    flush to the loop; the post that fills the outbox writes it at once,
    without awaiting ``drain()``; both reach the peer in order."""

    async def scenario():
        server, port, seen, done = await _collecting_server()
        conn = await dial(port)
        flushed = [conn.post({"seq": seq}) for seq in range(OUTBOX_LIMIT + 1)]
        frames_in_turn = conn.frames_sent
        await conn.close()
        await done.wait()
        server.close()
        await server.wait_closed()
        return flushed, frames_in_turn, conn.frames_sent, seen

    flushed, frames_in_turn, frames_total, seen = asyncio.run(scenario())
    assert flushed == [False] * (OUTBOX_LIMIT - 1) + [True, False]
    assert frames_in_turn == 1
    assert frames_total == 2
    assert [m["seq"] for m in seen] == list(range(OUTBOX_LIMIT + 1))


# ----------------------------------------------------------------------
# credit gate
# ----------------------------------------------------------------------
def test_credit_gate_window_none_is_free():
    async def scenario():
        gate = CreditGate(None)
        stalls = [await gate.acquire() for _ in range(100)]
        return gate, stalls

    gate, stalls = asyncio.run(scenario())
    assert stalls == [0.0] * 100
    assert gate.in_flight == 0  # disabled gate tracks nothing


def test_credit_gate_rejects_degenerate_window():
    with pytest.raises(ValueError):
        CreditGate(0)


def test_credit_gate_blocks_until_grant():
    """The (window+1)-th acquire parks until the receiver grants, and
    the stall is reported as wall-clock seconds."""

    async def scenario():
        gate = CreditGate(1)
        await gate.acquire()

        async def grant_later():
            await asyncio.sleep(0.05)
            gate.grant()

        granter = asyncio.create_task(grant_later())
        stalled = await gate.acquire()
        await granter
        return gate, stalled

    gate, stalled = asyncio.run(scenario())
    assert stalled >= 0.04
    assert gate.max_in_flight == 1


def test_grant_wakes_every_waiting_sender_once():
    """``take`` never waits; a sender it refuses registers a wake-up,
    and the grant that reopens the window calls each registered one
    once, in registration order."""
    gate = CreditGate(1)
    woken = []
    assert gate.take()
    assert not gate.take()
    gate.when_granted(lambda: woken.append("a"))
    gate.when_granted(lambda: woken.append("b"))
    gate.grant(1)
    gate.grant(1)
    assert woken == ["a", "b"]
    assert gate.in_flight == 0 and gate.max_in_flight == 1
    assert CreditGate(None).take()


def test_credit_window_enforced_under_slow_consumer():
    """End-to-end over real sockets: a consumer that grants credit
    slowly must cap the sender at ``window`` unacknowledged data frames
    — the invariant that makes backpressure propagate instead of the
    socket buffer absorbing the overload.  The sender takes credits as
    a worker host does: ``take``, else wait in ``when_granted``."""
    window = 2
    total = 10

    async def scenario():
        received = []
        loop = asyncio.get_running_loop()

        def on_connect(conn: FramedConnection):
            def on_messages(messages):
                for message in messages:
                    received.append(message)
                    # slow consumer: each grant 10 ms after the last
                    loop.call_later(0.01 * len(received), conn.post,
                                    {"type": "credit", "n": 1})

            conn.on_messages = on_messages

        server, port = await serve(on_connect)
        gate = CreditGate(window)

        def credits(conn: FramedConnection):
            def on_messages(messages):
                for message in messages:
                    if message["type"] == "credit":
                        gate.grant(message["n"])

            conn.on_messages = on_messages

        conn = await dial(port, on_connect=credits)
        stalled = 0.0
        for seq in range(total):
            if not gate.take():
                t0 = loop.time()
                while not gate.take():
                    granted = loop.create_future()
                    gate.when_granted(lambda: granted.done() or granted.set_result(None))
                    await granted
                stalled += loop.time() - t0
            await conn.send({"type": "data", "seq": seq})
        while gate.in_flight > 0:
            await asyncio.sleep(0.005)
        await conn.close()
        server.close()
        await server.wait_closed()
        return received, gate, stalled

    received, gate, stalled = asyncio.run(scenario())
    assert [m["seq"] for m in received] == list(range(total))
    assert gate.max_in_flight <= window
    # 10 frames through a window of 2 at 10ms/grant: the sender *must*
    # have spent real time parked waiting for credits.
    assert stalled > 0.0


def test_credit_grants_of_one_turn_fold_into_one_message():
    """The receiver grants one credit per data message; the grants of
    one loop turn travel back as a single summed ``credit`` message."""

    async def scenario():
        def on_connect(conn: FramedConnection):
            def on_messages(messages):
                for message in messages:
                    if message["type"] == "data":
                        conn.grant(1)

            conn.on_messages = on_messages

        server, port = await serve(on_connect)
        conn, inbox = await _dial(port)
        for seq in range(5):
            await conn.send({"type": "data", "seq": seq})
        await inbox.until(lambda: inbox.messages)
        (credit,) = inbox.messages
        await conn.close()
        server.close()
        await server.wait_closed()
        return credit, conn

    credit, conn = asyncio.run(scenario())
    assert credit == {"type": "credit", "n": 5}
    assert conn._decoder.frames_decoded == 1


# ----------------------------------------------------------------------
# rows and runs
# ----------------------------------------------------------------------
def _wire(seq):
    """A positional wire tuple (the eight StreamTuple fields)."""
    return ["src", {"seq": seq}, None, 64, 0.0, "src", seq, seq]


def _rows_of(messages):
    """``(type, dst, seq)`` per row of the received runs, in order."""
    return [
        (m["type"], m["dst"], wire[1]["seq"])
        for m in messages if m["type"] in ("data", "relay")
        for _, wire in run_rows(m)
    ]


def test_interleaved_rows_and_control_messages_keep_posting_order():
    """Only consecutive rows with one header merge into a run: a header
    change or a control message in between starts a new one, and the
    peer sees every row and message in posting order."""
    data_a, data_b = ("data", "a", None), ("data", "b", None)
    relay = ("relay", "a", 0, 5)

    async def scenario():
        server, port, seen, done = await _collecting_server()
        conn = await dial(port)
        conn.post_row(data_a, [1], _wire(0))
        conn.post_row(data_a, [2, 3], _wire(1))
        conn.post_row(relay, None, _wire(2))
        conn.post_row(relay, None, _wire(3))
        conn.post({"type": "acks", "a": [7, 1]})
        conn.post_row(data_a, [1], _wire(4))
        conn.post_row(data_b, [1], _wire(5))
        conn.post_row(("data", "a", 0), [1], _wire(6))
        await conn.close()
        await done.wait()
        server.close()
        await server.wait_closed()
        return seen, conn

    seen, conn = asyncio.run(scenario())
    assert conn.frames_sent == 1
    assert [m["type"] for m in seen] == ["data", "relay", "acks", "data", "data", "data"]
    assert [len(list(run_rows(m))) for m in seen if m["type"] != "acks"] == [2, 2, 1, 1, 1]
    assert seen[0]["tasks"] == [[1], [2, 3]]
    assert seen[1]["src"] == 5 and "tasks" not in seen[1]
    assert [m["ack_to"] for m in seen if m["type"] == "data"] == [None, None, None, 0]
    assert _rows_of(seen) == [
        ("data", "a", 0), ("data", "a", 1), ("relay", "a", 2), ("relay", "a", 3),
        ("data", "a", 4), ("data", "b", 5), ("data", "a", 6),
    ]


def test_run_over_the_frame_limit_is_split_by_rows():
    """A frame limit that fits every row but not their run delivers
    every row, in order, in several frames and without a FrameError."""
    limit, total = 256, 40
    header = ("data", "sink", None)

    async def scenario():
        server, port, seen, done = await _collecting_server(limit)
        conn = await dial(port, limit)
        for seq in range(total):
            conn.post_row(header, [seq % 4], _wire(seq))
        await conn.close()
        await done.wait()
        server.close()
        await server.wait_closed()
        return seen, conn

    seen, conn = asyncio.run(scenario())
    assert len(encode_frame(run_message(header, [[0]], [_wire(total)]))) <= limit
    assert [seq for _, _, seq in _rows_of(seen)] == list(range(total))
    assert [tasks for m in seen for tasks in m["tasks"]] == [[s % 4] for s in range(total)]
    assert 1 < conn.frames_sent < total
