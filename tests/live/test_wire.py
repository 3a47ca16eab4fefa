"""Framing tests for :mod:`repro.live.wire`.

The framing contract is byte-exact: what ``write_message`` sends is
what ``read_request``/``read_response`` count, and both equal the
message models' ``wire_size()``.  That identity is what lets the live
proxy's socket-byte tally be meaningful alongside the abstract ledger.
"""

import asyncio

import pytest

from repro.http.messages import Request, Response, make_ok
from repro.obs import registry as obs_metrics
from repro.obs import trace as obs_trace
from repro.live.wire import (
    ConnectionPool,
    LiveConnection,
    LiveConnectionClosed,
    LiveReplayError,
    LiveTruncationError,
    LiveWireError,
    LiveServer,
    ensure_integral,
    read_request,
    read_response,
    write_message,
)


def _reader_with(payload: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(payload)
    reader.feed_eof()
    return reader


class TestEnsureIntegral:
    def test_whole_seconds_pass_through(self):
        assert ensure_integral(42.0, "t") == 42.0
        assert ensure_integral(-7.0, "t") == -7.0
        assert ensure_integral(0.0, "t") == 0.0

    def test_fractional_raises(self):
        with pytest.raises(LiveReplayError, match="whole second"):
            ensure_integral(1.5, "request time")

    def test_message_names_the_offender(self):
        with pytest.raises(LiveReplayError, match="start_time"):
            ensure_integral(0.25, "start_time")


class TestReadRequest:
    def test_round_trips_serialize(self):
        request = Request("GET", "/a")
        request.headers.set_date("Date", 120.0)
        text = request.serialize()

        async def read():
            return await read_request(_reader_with(text.encode("latin-1")))

        parsed, nbytes = asyncio.run(read())
        assert parsed.method == "GET"
        assert parsed.path == "/a"
        assert parsed.headers.get_date("Date") == 120.0
        assert nbytes == len(text) == request.wire_size()

    def test_truncated_head_raises(self):
        async def read():
            return await read_request(_reader_with(b"GET /a HTTP/1.0\r\n"))

        with pytest.raises(LiveWireError, match="mid-head"):
            asyncio.run(read())

    def test_garbage_request_line_raises(self):
        async def read():
            return await read_request(_reader_with(b"NOT-HTTP\r\n\r\n"))

        with pytest.raises(LiveWireError):
            asyncio.run(read())


class TestReadResponse:
    def test_round_trips_serialize_with_body(self):
        response = make_ok(9, last_modified=50.0)
        text = response.serialize()

        async def read():
            return await read_response(_reader_with(text.encode("latin-1")))

        parsed, body, nbytes = asyncio.run(read())
        assert parsed.status == 200
        assert parsed.body_size == 9
        assert body == "x" * 9
        assert nbytes == len(text) == response.wire_size()

    def test_bodiless_304(self):
        response = Response(304)
        response.headers.set_date("Date", 60.0)
        text = response.serialize()

        async def read():
            return await read_response(_reader_with(text.encode("latin-1")))

        parsed, body, nbytes = asyncio.run(read())
        assert parsed.status == 304
        assert body == ""
        assert nbytes == response.wire_size()

    def test_body_read_by_content_length_not_eof(self):
        # Trailing bytes after Content-Length must not leak into the body.
        text = make_ok(4).serialize() + "EXTRA"

        async def read():
            return await read_response(_reader_with(text.encode("latin-1")))

        parsed, body, _ = asyncio.run(read())
        assert body == "xxxx"
        assert parsed.body_size == 4

    def test_truncated_body_raises_distinct_error(self):
        # A short body is a *framing* fault distinct from a close
        # mid-head: the head promised more bytes than arrived.  The
        # message names both the promise and the shortfall.
        text = make_ok(100).serialize()[:-40]

        async def read():
            return await read_response(_reader_with(text.encode("latin-1")))

        with pytest.raises(
            LiveTruncationError, match="promised 100 bytes"
        ):
            asyncio.run(read())

    def test_truncation_error_is_a_wire_error(self):
        # One-shot callers that catch LiveWireError keep working.
        assert issubclass(LiveTruncationError, LiveWireError)

    def test_clean_close_at_boundary_is_connection_closed(self):
        async def read():
            return await read_response(_reader_with(b""))

        with pytest.raises(LiveConnectionClosed, match="boundary"):
            asyncio.run(read())

    def test_bad_content_length_raises(self):
        raw = b"HTTP/1.0 200 OK\r\nContent-Length: nope\r\n\r\n"

        async def read():
            return await read_response(_reader_with(raw))

        with pytest.raises(LiveWireError, match="Content-Length"):
            asyncio.run(read())


class TestReadMessage:
    """Each side reads the one message shape it can be sent (there is
    no shape-sniffing reader): servers ``read_request``, clients
    ``read_response``."""

    def test_request_shape(self):
        request = Request("GET", "/a")
        request.headers.set_date("Date", 120.0)
        text = request.serialize()

        async def read(text):
            return await read_request(_reader_with(text.encode("latin-1")))

        message, nbytes = asyncio.run(read(text))
        assert isinstance(message, Request)
        assert nbytes == len(text)
        # A response where a request belongs is a framing error.
        with pytest.raises(LiveWireError):
            asyncio.run(read(make_ok(5).serialize()))

    def test_response_shape(self):
        response = make_ok(5, last_modified=10.0)
        text = response.serialize()

        async def read(text):
            return await read_response(_reader_with(text.encode("latin-1")))

        message, body, nbytes = asyncio.run(read(text))
        assert isinstance(message, Response)
        assert body == "xxxxx"
        assert nbytes == len(text) == response.wire_size()
        with pytest.raises(LiveWireError):
            asyncio.run(read(Request("GET", "/a").serialize()))

    def test_short_body_raises_truncation(self):
        text = make_ok(50).serialize()[:-10]

        async def read():
            return await read_response(_reader_with(text.encode("latin-1")))

        with pytest.raises(LiveTruncationError, match="promised 50 bytes"):
            asyncio.run(read())


class _Scripted(LiveServer):
    """A keep-alive server whose reply is chosen by the request path:
    ``/pair/*`` answers once two of them are waiting (so both are in
    flight at once), ``/drop`` hangs up with no reply (what a chaos
    loss or reset looks like to the client) and so does the first
    ``/flaky``, ``/cut`` sends a body shorter than it declared (a
    truncation), anything else answers with its own path as the body."""

    def __init__(self) -> None:
        super().__init__()
        self.accepted = 0
        #: Each request's ``Connection`` header (None when absent).
        self.connection_headers = []
        self.paths = []
        self._waiting = 0
        self._paired = asyncio.Event()

    async def start(self, port: int = 0) -> None:
        await self.start_server(self._handle, "127.0.0.1", port)

    async def _handle(self, reader, writer) -> None:
        self._pin()
        self.accepted += 1
        try:
            while True:
                try:
                    request, _ = await self._idle(
                        writer, read_request(reader))
                except LiveConnectionClosed:
                    break
                path = request.path
                self.connection_headers.append(
                    request.headers.get("Connection"))
                self.paths.append(path)
                if path == "/drop" or (
                    path == "/flaky" and self.paths.count(path) == 1
                ):
                    break
                if path.startswith("/pair/"):
                    self._waiting += 1
                    if self._waiting == 2:
                        self._paired.set()
                    await self._paired.wait()
                text = make_ok(len(path)).serialize(path)
                if path == "/cut":
                    await write_message(writer, text[:-2])
                    break
                await write_message(writer, text)
        finally:
            writer.close()


def _with_pool(scenario, **options):
    """Run ``scenario(server, pool)`` against a started scripted server."""
    async def body():
        server = _Scripted()
        await server.start()
        pool = ConnectionPool(server.host, server.port, **options)
        try:
            return await scenario(server, pool)
        finally:
            await pool.close()
            await server.close()

    return asyncio.run(body())


async def _body_of(pool: ConnectionPool, path: str) -> str:
    _, body, _ = await pool.request(Request("GET", path))
    return body


class TestConnectionPool:
    def test_sequential_exchanges_share_one_socket(self):
        async def scenario(server, pool):
            bodies = [await _body_of(pool, f"/ok/{i}") for i in range(5)]
            return bodies, server.accepted

        bodies, accepted = _with_pool(scenario)
        assert bodies == [f"/ok/{i}" for i in range(5)]
        assert accepted == 1

    def test_without_keepalive_every_exchange_dials_and_opts_out(self):
        """``keepalive=False`` is the historical one-shot exchange:
        a connection per request, no ``Connection`` header on the wire,
        nothing left in the pool."""
        async def scenario(server, pool):
            bodies = [await _body_of(pool, f"/ok/{i}") for i in range(3)]
            return bodies, server.accepted, pool._free

        bodies, accepted, free = _with_pool(scenario, keepalive=False)
        assert bodies == [f"/ok/{i}" for i in range(3)]
        assert accepted == 3
        assert free == []

    def test_keepalive_is_on_the_wire_only_when_asked(self):
        async def scenario(server, pool):
            await _body_of(pool, "/ok")
            return server.connection_headers

        assert _with_pool(scenario) == ["keep-alive"]
        assert _with_pool(scenario, keepalive=False) == [None]

    def test_two_in_flight_exchanges_ride_two_sockets(self):
        """Nothing is interleaved: each exchange in flight has a socket
        to itself, each reply reaches its own request, and both sockets
        are idle — and reused — afterwards."""
        async def scenario(server, pool):
            first = await asyncio.gather(
                _body_of(pool, "/pair/x"), _body_of(pool, "/pair/y"))
            in_flight = server.accepted
            later = await asyncio.gather(
                _body_of(pool, "/ok/1"), _body_of(pool, "/ok/2"))
            return first, in_flight, later, server.accepted

        first, in_flight, later, accepted = _with_pool(scenario)
        assert first == ["/pair/x", "/pair/y"]
        assert in_flight == 2
        assert later == ["/ok/1", "/ok/2"]
        assert accepted == 2

    def test_a_broken_connection_is_dropped_its_idle_sibling_reused(self):
        async def scenario(server, pool):
            await asyncio.gather(
                _body_of(pool, "/pair/x"), _body_of(pool, "/pair/y"))
            assert server.accepted == 2
            # No reply at all (loss, reset): that socket is gone, and
            # a budget of one attempt is spent — the pool's error,
            # chained to what the wire saw ...
            with pytest.raises(LiveWireError, match="1 attempts") as failed:
                await _body_of(pool, "/drop")
            assert type(failed.value) is LiveWireError
            assert isinstance(failed.value.__cause__, LiveConnectionClosed)
            # ... the sibling serves on, and nothing new is dialled.
            assert await _body_of(pool, "/ok/1") == "/ok/1"
            assert server.accepted == 2
            # A truncated reply breaks the sibling too: the pool is empty.
            with pytest.raises(LiveWireError) as failed:
                await _body_of(pool, "/cut")
            assert isinstance(failed.value.__cause__, LiveTruncationError)
            assert await _body_of(pool, "/ok/2") == "/ok/2"
            return server.accepted

        assert _with_pool(scenario) == 3

    def test_a_retry_resends_on_a_fresh_connection(self):
        """The one retry loop: the failed attempt's socket is closed
        (its handler sees the hang-up) before the next dial, the same
        request goes out again, and the retry is counted and marked in
        the same breath."""
        sink = obs_trace.TraceSink(proc="driver")
        registry = obs_metrics.MetricsRegistry()

        async def scenario(server, pool):
            request = Request("GET", "/flaky")
            request.headers.set("X-Repro-Trace", "r7")
            attempts = []
            _, body, _ = await pool.request(
                request, attempts=2, on_attempt=attempts.append)
            return body, attempts == [request] * 2, server.accepted

        with obs_metrics.installed(registry):
            assert _with_pool(scenario, hop="client", trace=sink) == (
                "/flaky", True, 2)
        assert registry.counter("live.retries").value == 1
        (mark,) = sink.marks()
        assert (mark["kind"], mark["trace"], mark["meta"]) == (
            "live.trace.retry", "r7", {"hop": "client"})

    def test_a_connection_whose_peer_hung_up_is_not_handed_out(self):
        """``is_open`` at check-out: the server side of an idle pooled
        socket went away, so the next exchange dials a fresh one and
        succeeds first time — there is no retry to lean on."""
        async def scenario(server, pool):
            await _body_of(pool, "/ok/1")
            port = server.port
            await server.close()
            await server.start(port)
            return await _body_of(pool, "/ok/2"), server.accepted

        assert _with_pool(scenario) == ("/ok/2", 2)

    def test_is_open_sees_the_hangup_without_io(self):
        async def scenario(server, pool):
            connection = LiveConnection(server.host, server.port)
            assert not connection.is_open
            await connection.request(Request("GET", "/ok"))
            held = connection.is_open
            await server.close()
            await asyncio.sleep(0)
            hung_up = connection.is_open
            await connection.close()
            return held, hung_up

        assert _with_pool(scenario) == (True, False)


class TestServerClose:
    def test_idle_keepalive_handlers_are_hung_up_not_cancelled(self, caplog):
        """A cancelled ``start_server`` handler makes Python 3.11's
        stream protocol log ``Exception in callback``; an idle one must
        leave through its own closed-connection path instead."""
        async def scenario(server, pool):
            await asyncio.gather(
                _body_of(pool, "/pair/x"), _body_of(pool, "/pair/y"))
            handlers = list(server._handlers)
            await server.close()
            return [task.cancelled() for task in handlers]

        with caplog.at_level("ERROR", logger="asyncio"):
            assert _with_pool(scenario) == [False, False]
        assert not caplog.records

    def test_a_handler_stuck_mid_exchange_is_still_cancelled(self):
        async def scenario(server, pool):
            stuck = asyncio.create_task(_body_of(pool, "/pair/alone"))
            while not server._handlers:
                await asyncio.sleep(0)
            (handler,) = server._handlers
            while handler in server._parked:
                await asyncio.sleep(0)
            await server.close()
            with pytest.raises(LiveWireError):
                await stuck
            return handler.cancelled()

        assert _with_pool(scenario) is True
