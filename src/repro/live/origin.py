"""The live HTTP/1.0 origin server.

A thin asyncio front end over the *unmodified*
:class:`repro.core.server.OriginServer` population model.  Request
shapes, exactly the operations the simulator's origin answers:

* plain ``GET /path`` with a ``Date`` header — a full retrieval:
  ``200`` with ``Content-Length``, ``Content-Type``, ``Last-Modified``,
  an ``Expires`` header when the object declares a lifetime, and
  ``Pragma: no-cache`` for dynamic (non-cacheable) objects;
* conditional ``GET`` carrying ``If-Modified-Since`` — the paper's
  "send this file if it has changed since a specific date": ``304``
  (with a *re-stamped* ``Expires``, matching
  :class:`repro.core.server.NotModified`) or a full ``200``;
* control endpoints under ``/.well-known/repro/`` — the cacheable
  population listing, the modification feed (``feed``: the live
  transport of :meth:`~repro.core.server.OriginServer
  .invalidation_feed`, which a proxy reads once and delivers from), and
  a JSON counter dump.  Control exchanges never count as server load.

The origin keeps its own exchange counters (``gets``, ``ims_queries``)
so the driver can assemble Figure-8-style server-load numbers; warming
fetches (tagged ``X-Repro-Warmup``) are served but not counted,
mirroring the simulator's uncounted preload.  ``feed_reads`` counts the
feed endpoint's exchanges — not server load in the paper's sense, but
the number that shows a proxy subscribing once instead of polling.

Concurrency and chaos hardening: connections are served keep-alive
(loop until the peer closes or omits ``Connection: keep-alive``), each
request is processed under one internal state lock (the population
model is not re-entrant and the counters must not tear), and a request
carrying :data:`~repro.live.wire.SEQ_HEADER` is counted at most once —
under an at-least-once transport a *retried* exchange must not inflate
the server-load counters the differential oracle pins.  Responses
themselves are pure functions of the request, so replaying the work is
free; only the counting needs the dedup.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from repro.core.server import (
    FetchResult,
    NotModified,
    OriginServer,
    UnknownObjectError,
)
from repro.http.datefmt import HTTPDateError, format_http_date
from repro.http.headers import CONTENT_LENGTH, CONTENT_TYPE, EXPIRES
from repro.http.messages import Request, Response, make_ok
from repro.live.wire import (
    CONTROL_PREFIX,
    DATE,
    PRAGMA,
    SEQ_HEADER,
    TRACE_HEADER,
    WARMUP_HEADER,
    LiveConnectionClosed,
    LiveServer,
    LiveWireError,
    error_response,
    read_request,
    wants_keepalive,
    write_message,
)
from repro.obs import clock as obs_clock
from repro.obs import trace as obs_trace


def _text_ok(body: str) -> tuple[Response, str]:
    response = Response(200, body_size=len(body))
    response.headers.set(CONTENT_LENGTH, str(len(body)))
    response.headers.set(CONTENT_TYPE, "text")
    return response, body


class LiveOrigin(LiveServer):
    """An asyncio HTTP/1.0 origin serving a modelled population.

    Args:
        server: the population model (objects + modification
            schedules) — the same instance a simulation run would use.
        trace: a per-role :class:`~repro.obs.trace.TraceSink` recording
            the origin's side of the live causal trace — a recv mark
            and a service-time span per exchange that carries an
            ``X-Repro-Trace`` id (``docs/OBSERVABILITY.md``).
    """

    def __init__(
        self,
        server: OriginServer,
        *,
        trace: Optional[obs_trace.TraceSink] = None,
    ) -> None:
        super().__init__()
        self.server = server
        self._trace = trace
        #: Counted (non-warmup) full-retrieval exchanges served.
        self.gets = 0
        #: Counted (non-warmup) If-Modified-Since exchanges served.
        self.ims_queries = 0
        #: Exchanges served by the ``feed`` control endpoint.
        self.feed_reads = 0
        self._seen: set[str] = set()
        self._state_lock = asyncio.Lock()

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving; ``port=0`` picks an ephemeral port."""
        await self.start_server(self._handle, host, port)

    # -- request handling ----------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection until the peer closes or drops
        ``Connection: keep-alive``.  No idle timeout: an opted-in
        socket is held for as long as its client keeps it — what the
        proxy's :class:`~repro.live.wire.ConnectionPool` leans on."""
        self._pin()
        try:
            while True:
                try:
                    request, _ = await self._idle(
                        writer, read_request(reader)
                    )
                except LiveConnectionClosed:
                    break
                except LiveWireError as exc:
                    response, body = error_response(400, str(exc))
                    await write_message(writer, response.serialize(body))
                    break
                keep = wants_keepalive(request)
                tid = request.headers.get(TRACE_HEADER)
                if self._trace is not None and tid is not None:
                    self._trace.mark(
                        "live.trace.recv", tid, obs_clock.monotonic()
                    )
                async with self._state_lock:
                    served_started = obs_clock.monotonic()
                    response, body = self._respond(request)
                    if self._trace is not None and tid is not None:
                        served_clk = obs_clock.monotonic()
                        self._trace.span(
                            "live.trace.origin",
                            served_clk - served_started,
                            {
                                "trace": tid,
                                "clk": served_clk,
                                "object": request.path,
                            },
                        )
                await write_message(writer, response.serialize(body))
                if not keep:
                    break
        except asyncio.CancelledError:
            # Teardown must propagate: suppressing it would leave the
            # listener's close() waiting on this handler forever.
            raise
        except ConnectionError:
            await self._note_connection_error()
        finally:
            writer.close()

    def _respond(self, request: Request) -> tuple[Response, str]:
        if request.method != "GET":
            return error_response(
                400, f"unsupported method {request.method!r}"
            )
        if request.path.startswith(CONTROL_PREFIX):
            return self._control(request)
        return self._object(request)

    def _fresh_seq(self, request: Request) -> bool:
        """True when this exchange should be counted.

        A request without :data:`SEQ_HEADER` is always fresh (ad-hoc
        clients send none).  With one, only the first
        arrival counts — a retry after a chaos fault or proxy restart
        repeats the work but not the accounting.
        """
        seq = request.headers.get(SEQ_HEADER)
        if seq is None:
            return True
        if seq in self._seen:
            return False
        self._seen.add(seq)
        return True

    # -- control endpoints ---------------------------------------------------

    def _control(self, request: Request) -> tuple[Response, str]:
        endpoint = request.path[len(CONTROL_PREFIX):]
        if endpoint == "population":
            lines = [
                oid
                for oid, history in self.server.histories().items()
                if history.obj.cacheable
            ]
            return _text_ok("".join(line + "\n" for line in lines))
        if endpoint == "feed":
            # The full modification feed, time-ordered: what
            # Simulation.__init__ reads from the model in process.
            self.feed_reads += 1
            lines = [
                f"{format_http_date(mod_time)}\t{oid}\n"
                for mod_time, oid in self.server.invalidation_feed()
            ]
            return _text_ok("".join(lines))
        if endpoint == "stats":
            return _text_ok(
                json.dumps(
                    {
                        "gets": self.gets,
                        "ims_queries": self.ims_queries,
                        "feed_reads": self.feed_reads,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        return error_response(404, f"unknown control endpoint {endpoint!r}")

    # -- object retrievals ---------------------------------------------------

    def _object(self, request: Request) -> tuple[Response, str]:
        try:
            t = request.headers.get_date(DATE)
        except HTTPDateError as exc:
            return error_response(400, str(exc))
        if t is None:
            return error_response(400, "object requests need a Date header")
        try:
            history = self.server.history(request.path)
        except UnknownObjectError:
            return error_response(404, f"no such object: {request.path!r}")
        warmup = WARMUP_HEADER in request.headers
        if request.is_conditional:
            try:
                since = request.headers.if_modified_since
            except HTTPDateError as exc:
                return error_response(400, str(exc))
            assert since is not None  # is_conditional implies presence
            if not warmup and self._fresh_seq(request):
                self.ims_queries += 1
            result = self.server.if_modified_since(request.path, t, since)
            if isinstance(result, NotModified):
                response = Response(304)
                response.headers.set_date(DATE, t)
                if result.expires is not None:
                    response.headers.set_date(EXPIRES, result.expires)
                return response, ""
        else:
            if not warmup and self._fresh_seq(request):
                self.gets += 1
            result = self.server.get(request.path, t)
        return self._full_response(request.path, t, result)

    def _full_response(
        self, object_id: str, t: float, result: FetchResult
    ) -> tuple[Response, str]:
        obj = self.server.object(object_id)
        response = make_ok(result.size, last_modified=result.last_modified)
        response.headers.set_date(DATE, t)
        response.headers.set(CONTENT_TYPE, obj.file_type)
        if result.expires is not None:
            response.headers.set_date(EXPIRES, result.expires)
        if not obj.cacheable:
            response.headers.set(PRAGMA, "no-cache")
        return response, "x" * result.size
