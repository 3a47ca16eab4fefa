"""Socket framing for the live origin/proxy: HTTP/1.0, with optional
keep-alive connection reuse.

The live servers speak exactly what :mod:`repro.http.messages`
serializes: a request or status line, ``Name: value`` headers, a blank
line, and (for responses) a ``Content-Length``-delimited entity body.
HTTP/1.0 close-delimited bodies are deliberately not supported — every
live response carries an explicit ``Content-Length`` (or is a bodiless
304), so a reader always knows exactly how many bytes to consume and
the byte count on the wire equals ``Response.wire_size()``.

Connections carry one exchange by default (:func:`exchange`, the
historical behaviour, byte-identical to PR 7).  A client that sends
``Connection: keep-alive`` — :class:`LiveConnection` does — keeps the
socket open for further exchanges; the servers loop reading requests
until the peer closes or drops the header.  Every modelled exchange of
either hop is sent by a :class:`ConnectionPool`, which also owns the
live leg's one retry loop; the proxy→origin pool is always persistent,
the driver→proxy pool as ``keepalive`` says.  The framing distinguishes
three stream endings that HTTP/1.0 conflates: a clean close *between*
messages (:class:`LiveConnectionClosed` — how keep-alive loops end), a
close mid-head (:class:`LiveWireError`), and a body shorter than its
declared ``Content-Length`` (:class:`LiveTruncationError` — what the
chaos layer's truncation faults produce).

Simulation time travels in ``Date`` headers (RFC 1123, whole seconds).
:func:`ensure_integral` is the gate that keeps a live run wire-exact:
any fractional timestamp would be floored by the header round trip and
the live replay could no longer match the simulator bit-for-bit.
Extended-CLF traces satisfy the constraint by construction (CLF has
one-second granularity).
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Optional, TypeVar

from repro.http.headers import CONTENT_LENGTH, CONTENT_TYPE
from repro.http.messages import (
    HTTPParseError,
    Request,
    Response,
    parse_request,
    parse_response,
)
from repro.obs import clock as obs_clock
from repro.obs import registry as obs_metrics
from repro.obs import trace as obs_trace

#: Header carrying the request's simulation time (RFC 1123 date).
DATE = "Date"
#: Proxy response header naming the serving path: HIT / REVALIDATED /
#: MISS (body transferred) — the live analogue of the simulator's
#: hit/validation_304/miss outcomes.
X_CACHE = "X-Cache"
#: HTTP/1.0 non-cacheability marker the origin attaches to dynamic
#: objects ("Pragma: no-cache"); the proxy never stores such responses.
PRAGMA = "Pragma"
#: Marks cache-warming fetches; the origin serves but does not count
#: them, mirroring the simulator's uncounted preload.
WARMUP_HEADER = "X-Repro-Warmup"
#: Path prefix for the out-of-band control endpoints (population,
#: invalidation feed, stats); control exchanges are never counted.
CONTROL_PREFIX = "/.well-known/repro/"
#: HTTP/1.0 connection-reuse opt-in; absent means one exchange and close.
CONNECTION = "Connection"
#: The value requesting connection reuse.
KEEP_ALIVE = "keep-alive"
#: Idempotency key for at-least-once transports: a retried request
#: carries the same sequence id, and the receiver replays its committed
#: response (proxy) or skips re-counting (origin) instead of mutating
#: state twice.  This is what keeps counters exact under socket chaos.
SEQ_HEADER = "X-Repro-Seq"
#: Causal trace id for cross-process tracing: the driver stamps one
#: deterministic id per request (``r<stream index>``), the proxy echoes
#: it onto its upstream fetches, and every hop records its spans and
#: marks under it (``repro.obs.timeline`` joins the streams).  Only
#: present when tracing is requested, so untraced replays keep their
#: historical wire bytes.
TRACE_HEADER = "X-Repro-Trace"

#: Hard cap on a message head (start line + headers); a peer sending
#: more is malformed, not large.
_MAX_HEAD_BYTES = 65536

_HEAD_TERMINATOR = b"\r\n\r\n"

_T = TypeVar("_T")


class LiveWireError(ValueError):
    """A live peer sent something the HTTP/1.0 framing cannot carry."""


class LiveConnectionClosed(LiveWireError):
    """The peer closed the stream cleanly *between* messages.

    Not a framing violation: this is how a keep-alive loop learns the
    client is done.  Subclasses :class:`LiveWireError` so one-shot
    callers that treat any early close as an error keep working.
    """


class LiveTruncationError(LiveWireError):
    """A message body ended short of its declared ``Content-Length``.

    Distinct from a close mid-head or between messages: the head parsed
    fine and promised more bytes than arrived — the signature of a
    truncating transport fault, and the trigger for a client retry.
    """


class LiveReplayError(ValueError):
    """A live replay was configured with inputs that cannot be
    wire-exact (fractional timestamps, unordered requests, ...)."""


def ensure_integral(t: float, what: str) -> float:
    """Require ``t`` to be a whole simulation second; return it.

    Wire transport rounds times to whole seconds (RFC 1123 dates), so a
    fractional timestamp anywhere in a live run's inputs would make the
    live and simulated accounting diverge by construction.

    Raises:
        LiveReplayError: when ``t`` has a fractional part.
    """
    value = float(t)
    if not value.is_integer():
        raise LiveReplayError(
            f"{what} must be a whole second for live replay "
            f"(RFC 1123 Date headers carry whole seconds): {t!r}"
        )
    return value


async def _read_head(reader: asyncio.StreamReader) -> str:
    try:
        head = await reader.readuntil(_HEAD_TERMINATOR)
    except asyncio.LimitOverrunError as exc:
        raise LiveWireError("message head exceeds the framing limit") from exc
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise LiveConnectionClosed(
                "connection closed at message boundary"
            ) from exc
        raise LiveWireError("connection closed mid-head") from exc
    if len(head) > _MAX_HEAD_BYTES:
        raise LiveWireError("message head exceeds the framing limit")
    try:
        return head.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise LiveWireError("undecodable message head") from exc


def _body_length(head_text: str) -> int:
    """Content-Length declared in a serialized head (0 when absent)."""
    for line in head_text.split("\r\n")[1:]:
        name, sep, value = line.partition(":")
        if sep and name.strip().lower() == CONTENT_LENGTH.lower():
            try:
                length = int(value.strip())
            except ValueError as exc:
                raise LiveWireError(
                    f"bad Content-Length: {value.strip()!r}"
                ) from exc
            if length < 0:
                raise LiveWireError(f"negative Content-Length: {length}")
            return length
    return 0


async def read_request(
    reader: asyncio.StreamReader,
) -> tuple[Request, int]:
    """Read one request off the stream.

    Returns:
        ``(request, wire_bytes)`` — the parsed request and the exact
        byte count consumed.  Requests never carry bodies.

    Raises:
        LiveWireError: on framing or parse errors.
    """
    head_text = await _read_head(reader)
    try:
        request = parse_request(head_text)
    except HTTPParseError as exc:
        raise LiveWireError(str(exc)) from exc
    return request, len(head_text)


async def read_response(
    reader: asyncio.StreamReader,
) -> tuple[Response, str, int]:
    """Read one response (head + ``Content-Length`` body) off the stream.

    Returns:
        ``(response, body_text, wire_bytes)``.  ``response.body_size``
        equals ``len(body_text)``; the metadata-only model discards
        content, so control-endpoint callers take the body separately.

    Raises:
        LiveWireError: on framing or parse errors.
    """
    head_text = await _read_head(reader)
    return await _finish_response(reader, head_text)


async def _read_body(
    reader: asyncio.StreamReader, head_text: str
) -> str:
    """Read the ``Content-Length``-delimited body declared by a head.

    Raises:
        LiveTruncationError: when the stream ends before the declared
            byte count — a short body is a framing fault distinct from
            a clean connection close.
    """
    length = _body_length(head_text)
    if not length:
        return ""
    try:
        raw_body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise LiveTruncationError(
            f"truncated body: Content-Length promised {length} bytes, "
            f"stream ended after {len(exc.partial)}"
        ) from exc
    return raw_body.decode("latin-1")


async def _finish_response(
    reader: asyncio.StreamReader, head_text: str
) -> tuple[Response, str, int]:
    body_text = await _read_body(reader, head_text)
    try:
        response = parse_response(head_text + body_text)
    except HTTPParseError as exc:
        raise LiveWireError(str(exc)) from exc
    return response, body_text, len(head_text) + len(body_text)


async def write_message(writer: asyncio.StreamWriter, text: str) -> int:
    """Write a serialized message; returns the byte count sent."""
    payload = text.encode("latin-1")
    writer.write(payload)
    await writer.drain()
    return len(payload)


async def exchange(
    host: str, port: int, request: Request
) -> tuple[Response, str, int]:
    """One full client exchange: connect, send, read, close.

    Its callers: a :class:`ConnectionPool` built with
    ``keepalive=False``, the driver's control plane, and the tests
    that talk to one server directly.

    Returns:
        ``(response, body_text, wire_bytes)`` where ``wire_bytes`` is
        the total sent plus received on this connection.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        sent = await write_message(writer, request.serialize())
        writer.write_eof()
        response, body_text, received = await read_response(reader)
    finally:
        writer.close()
        await writer.wait_closed()
    return response, body_text, sent + received


def wants_keepalive(request: Request) -> bool:
    """True when the request opts into connection reuse."""
    value = request.headers.get(CONNECTION)
    return value is not None and value.strip().lower() == KEEP_ALIVE


def error_response(status: int, message: str) -> tuple[Response, str]:
    """A plain-text error reply, as ``(response, body)``."""
    body = message + "\n"
    response = Response(status, body_size=len(body))
    response.headers.set(CONTENT_LENGTH, str(len(body)))
    response.headers.set(CONTENT_TYPE, "text")
    return response, body


class LiveServer:
    """The listener lifecycle the origin, the proxy and the chaos relay
    share: bind, keep handler tasks alive, close deterministically.

    A subclass's ``start`` hands its own connection handler to
    :meth:`start_server` — the hand-off stays in the subclass (and keeps
    asyncio's name) because that call is what RPR007 reads as the
    class's concurrency entry point.  Its handler calls :meth:`_pin`
    first and awaits each next request through :meth:`_idle`.
    ``_state_lock`` is each server's own (lock attributes are declared
    where their critical sections are).
    """

    _state_lock: asyncio.Lock

    def __init__(self) -> None:
        #: Transport-level connection failures observed while serving.
        self.connection_errors = 0
        self._handlers: set[asyncio.Task[None]] = set()
        #: Handlers idle between exchanges, and the socket to hang up.
        self._parked: dict[asyncio.Task[None], asyncio.StreamWriter] = {}
        self._listener: Optional[asyncio.AbstractServer] = None
        self._host = ""
        self._port = 0

    async def start_server(
        self,
        handle: Callable[
            [asyncio.StreamReader, asyncio.StreamWriter], Awaitable[None]
        ],
        host: str,
        port: int,
    ) -> None:
        """Bind ``host:port`` (0 = ephemeral) and serve with ``handle``.

        ``reuse_address`` lets a respawned proxy take its killed
        predecessor's port at once; the other servers tolerate it.
        """
        self._listener = await asyncio.start_server(
            handle, host=host, port=port, reuse_address=True
        )
        sockname = self._listener.sockets[0].getsockname()
        self._host, self._port = sockname[0], int(sockname[1])

    async def close(self) -> None:
        """Stop serving, release the socket, and end (and await) any
        handler still alive: one idle between exchanges (a keep-alive
        peer's normal state) is hung up on and leaves through its own
        :class:`LiveConnectionClosed` path, one abandoned mid-exchange
        (its client gave up after a chaos fault) is cancelled."""
        if self._listener is not None:
            self._listener.close()
        pending = [task for task in self._handlers if not task.done()]
        for task in pending:
            writer = self._parked.get(task)
            if writer is not None:
                writer.close()
            else:
                task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._listener is not None:
            # Last: from Python 3.12 this waits for every connection.
            await self._listener.wait_closed()
            self._listener = None

    @property
    def host(self) -> str:
        """Bound address (after ``start``)."""
        return self._host

    @property
    def port(self) -> int:
        """Bound port (after ``start``)."""
        return self._port

    def _pin(self) -> None:
        """Keep a strong reference to the running handler task.

        Python 3.11's ``asyncio.start_server`` holds its per-connection
        tasks only weakly, so a garbage-collection pass can destroy an
        in-flight handler mid-await — the peer then sees its connection
        close with no reply and no exception is raised anywhere (CPython
        gh-104091, fixed in 3.12).  The task unpins itself on completion.
        """
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)

    async def _idle(
        self, writer: asyncio.StreamWriter, read: Awaitable[_T]
    ) -> _T:
        """Await a handler's next request; while it waits,
        :meth:`close` hangs up on ``writer`` rather than cancel."""
        task = asyncio.current_task()
        assert task is not None
        self._parked[task] = writer
        try:
            return await read
        finally:
            del self._parked[task]

    async def _note_connection_error(self) -> None:
        """Count a transport failure instead of silently swallowing it."""
        async with self._state_lock:
            self.connection_errors += 1
            obs_metrics.emit("live.connection_errors")


class LiveConnection:
    """A persistent client connection multiplexing sequential exchanges.

    The keep-alive counterpart of :func:`exchange`: the socket is opened
    lazily on the first request, every request is stamped
    ``Connection: keep-alive``, and the connection is reused until
    :meth:`close` — the server ends its side of the contract by looping
    on :func:`read_request` until :class:`LiveConnectionClosed`.

    One exchange may be in flight at a time (HTTP/1.0 has no pipelining
    and the drivers never need it); callers wanting parallelism hold a
    pool of these.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    @property
    def is_open(self) -> bool:
        """True while a socket is held and the event loop has not seen
        its peer hang up (no I/O is done to find out)."""
        return not (
            self._reader is None or self._writer is None
            or self._reader.at_eof() or self._writer.is_closing()
        )

    async def request(self, request: Request) -> tuple[Response, str, int]:
        """Send one request and read its response on the shared socket.

        Returns ``(response, body_text, wire_bytes)`` for this exchange.

        Raises:
            LiveWireError: on framing errors (the caller should
                :meth:`close` and, if retrying, resend under the same
                ``X-Repro-Seq``).
            ConnectionError: when the transport fails mid-exchange.
        """
        if self._reader is None or self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        request.headers.set(CONNECTION, KEEP_ALIVE)
        sent = await write_message(self._writer, request.serialize())
        response, body_text, received = await read_response(self._reader)
        return response, body_text, sent + received

    async def close(self) -> None:
        """Close the socket; the next :meth:`request` reconnects."""
        writer = self._writer
        self._reader = None
        self._writer = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class ConnectionPool:
    """The client side of one hop: every modelled exchange, and the
    live leg's one retry loop.

    With ``keepalive`` (the hop's existing choice, passed through) each
    exchange has a kept-alive :class:`LiveConnection` off a free list
    to itself, so the pool grows to the number in flight at once; one
    whose exchange failed in any way, or whose peer hung up while it
    sat idle, is closed and dropped.  Without, each exchange is a
    one-shot :func:`exchange`.  ``hop`` labels this pool's retry marks
    in ``trace``, the owning role's sink.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        keepalive: bool = True,
        hop: str = "",
        trace: Optional[obs_trace.TraceSink] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.keepalive = keepalive
        self.hop = hop
        self._trace = trace
        self._free: list[LiveConnection] = []

    async def request(
        self,
        request: Request,
        *,
        attempts: int = 1,
        pause: float = 0.0,
        on_attempt: Optional[Callable[[Request], None]] = None,
    ) -> tuple[Response, str, int]:
        """Drive one exchange to success over an at-least-once
        transport; returns ``(response, body_text, wire_bytes)`` of the
        attempt that completed.

        Any transport or framing failure drops that attempt's
        connection and resends the same request on a fresh one — its
        ``X-Repro-Seq`` makes the receiver replay, not re-execute.
        With ``pause``, every failed attempt waits first: that is what
        rides through a proxy restart, whose outage shows as a refused
        connection directly and as a cleanly closed one behind a chaos
        relay.  ``on_attempt(request)`` runs before each send.  The
        retry mark sits beside the ``live.retries`` counter (same
        branch, same count — ``repro trace summarize`` cross-checks the
        two) under the request's own ``X-Repro-Trace`` id.

        Raises:
            LiveWireError: when ``attempts`` are spent, chained to the
                last failure.
        """
        last: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt:
                obs_metrics.emit("live.retries")
                if self._trace is not None:
                    self._trace.mark(
                        "live.trace.retry",
                        request.headers.get(TRACE_HEADER),
                        obs_clock.monotonic(),
                        hop=self.hop,
                    )
            if on_attempt is not None:
                on_attempt(request)
            try:
                return await self._exchange(request)
            except (LiveWireError, ConnectionError, OSError) as exc:
                last = exc
                if pause > 0:
                    await asyncio.sleep(pause)
        raise LiveWireError(
            f"exchange with {self.host}:{self.port} for {request.path!r} "
            f"failed after {attempts} attempts: {last!r}"
        ) from last

    async def _exchange(self, request: Request) -> tuple[Response, str, int]:
        if not self.keepalive:
            return await exchange(self.host, self.port, request)
        while self._free:
            connection = self._free.pop()
            if connection.is_open:
                break
            await connection.close()
        else:
            connection = LiveConnection(self.host, self.port)
        try:
            reply = await connection.request(request)
        except BaseException:
            await connection.close()
            raise
        self._free.append(connection)
        return reply

    async def close(self) -> None:
        """Close the idle connections (one mid-exchange closes when
        its caller fails or is cancelled)."""
        while self._free:
            await self._free.pop().close()
