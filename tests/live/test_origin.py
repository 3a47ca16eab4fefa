"""Behavior tests for :class:`repro.live.origin.LiveOrigin`.

Each test boots the origin on an ephemeral loopback port, performs real
HTTP/1.0 exchanges, and checks the responses carry exactly the
metadata the simulator's :class:`~repro.core.server.OriginServer`
would have produced for the same query.
"""

import asyncio
import json

import pytest

from repro.core.objects import ModificationSchedule, ObjectHistory, WebObject
from repro.core.server import OriginServer
from repro.http.datefmt import format_http_date
from repro.http.messages import Request
from repro.live.origin import LiveOrigin
from repro.live.wire import CONTROL_PREFIX, DATE, PRAGMA, exchange


def _server() -> OriginServer:
    return OriginServer([
        ObjectHistory(WebObject("/a", size=1000, created=-500.0),
                      ModificationSchedule(-500.0, (40.0,))),
        ObjectHistory(
            WebObject("/exp", size=300, created=-100.0, expires_after=60.0)),
        ObjectHistory(WebObject("/dyn", size=50, created=-10.0,
                                cacheable=False)),
    ])


def _run(coro_fn, server=None):
    """Boot an origin, run ``coro_fn(origin)``, tear down; return result."""
    async def body():
        origin = LiveOrigin(server if server is not None else _server())
        await origin.start()
        try:
            return await coro_fn(origin)
        finally:
            await origin.close()

    return asyncio.run(body())


def _get(path: str, t: float = None, since: float = None) -> Request:
    request = Request("GET", path)
    if t is not None:
        request.headers.set_date(DATE, t)
    if since is not None:
        request.headers.set_date("If-Modified-Since", since)
    return request


class TestObjectRetrieval:
    def test_full_get_carries_the_model_metadata(self):
        async def scenario(origin):
            return await exchange(origin.host, origin.port, _get("/a", 10.0))

        response, body, _ = _run(scenario)
        assert response.status == 200
        assert response.body_size == 1000
        assert len(body) == 1000
        assert response.headers.last_modified == -500.0
        assert response.headers.get("Content-Type") == "html"
        assert response.headers.expires is None
        assert PRAGMA not in response.headers

    def test_expiring_object_gets_expires_header(self):
        async def scenario(origin):
            return await exchange(origin.host, origin.port,
                                  _get("/exp", 10.0))

        response, _, _ = _run(scenario)
        assert response.headers.expires == 70.0  # t + expires_after

    def test_dynamic_object_marked_no_cache(self):
        async def scenario(origin):
            return await exchange(origin.host, origin.port,
                                  _get("/dyn", 10.0))

        response, _, _ = _run(scenario)
        assert response.headers.get(PRAGMA) == "no-cache"

    def test_unknown_object_404(self):
        async def scenario(origin):
            return await exchange(origin.host, origin.port,
                                  _get("/nope", 10.0))

        response, _, _ = _run(scenario)
        assert response.status == 404

    def test_missing_date_is_400(self):
        async def scenario(origin):
            return await exchange(origin.host, origin.port, _get("/a"))

        response, _, _ = _run(scenario)
        assert response.status == 400

    def test_non_get_is_400(self):
        async def scenario(origin):
            request = Request("POST", "/a")
            request.headers.set_date(DATE, 5.0)
            return await exchange(origin.host, origin.port, request)

        response, _, _ = _run(scenario)
        assert response.status == 400


class TestConditionalGet:
    def test_unmodified_returns_304_with_restamped_expires(self):
        async def scenario(origin):
            return await exchange(
                origin.host, origin.port,
                _get("/exp", t=30.0, since=-100.0))

        response, body, _ = _run(scenario)
        assert response.status == 304
        assert body == ""
        # NotModified re-stamps Expires relative to the validation time.
        assert response.headers.expires == 90.0

    def test_modified_returns_full_200(self):
        async def scenario(origin):
            # /a changed at t=40; a copy from before is out of date.
            return await exchange(
                origin.host, origin.port, _get("/a", t=50.0, since=-500.0))

        response, _, _ = _run(scenario)
        assert response.status == 200
        assert response.headers.last_modified == 40.0


class TestCounting:
    def test_counts_gets_and_ims_separately(self):
        async def scenario(origin):
            await exchange(origin.host, origin.port, _get("/a", 5.0))
            await exchange(origin.host, origin.port,
                           _get("/a", t=10.0, since=-500.0))
            _, stats, _ = await exchange(
                origin.host, origin.port,
                _get(CONTROL_PREFIX + "stats"))
            return json.loads(stats)

        stats = _run(scenario)
        assert stats == {"gets": 1, "ims_queries": 1, "feed_reads": 0}


class TestControlEndpoints:
    def test_population_is_each_cacheable_objects_head_at_date(self):
        """One tab-separated line per cacheable object — id,
        Last-Modified, Expires (empty when none), Content-Length,
        Content-Type — equal to what ``OriginServer.get`` answers at
        the ``Date`` sent (after ``/a`` changed at 40); ``/dyn`` is
        absent, and none of it counts."""
        t = 50.0
        async def scenario(origin):
            response, body, _ = await exchange(
                origin.host, origin.port,
                _get(CONTROL_PREFIX + "population", t))
            _, stats, _ = await exchange(
                origin.host, origin.port, _get(CONTROL_PREFIX + "stats"))
            return response.status, body, json.loads(stats)

        status, body, stats = _run(scenario)
        model = _server()
        expected = []
        for oid in ("/a", "/exp"):
            result = model.get(oid, t)
            expires = ("" if result.expires is None
                       else format_http_date(result.expires))
            expected.append([
                oid, format_http_date(result.last_modified), expires,
                str(result.size), model.object(oid).file_type,
            ])
        assert status == 200
        assert [line.split("\t") for line in body.splitlines()] == expected
        assert stats == {"gets": 0, "ims_queries": 0, "feed_reads": 0}

    def test_population_without_date_is_400(self):
        async def scenario(origin):
            return await exchange(
                origin.host, origin.port,
                _get(CONTROL_PREFIX + "population"))

        response, _, _ = _run(scenario)
        assert response.status == 400

    def test_feed_is_time_ordered_date_tab_id_lines(self):
        async def scenario(origin):
            _, body, _ = await exchange(
                origin.host, origin.port, _get(CONTROL_PREFIX + "feed"))
            return body

        server = OriginServer([
            ObjectHistory(WebObject("/late", size=10, created=-5.0),
                          ModificationSchedule(-5.0, (90.0,))),
            ObjectHistory(WebObject("/a", size=10, created=-5.0),
                          ModificationSchedule(-5.0, (40.0, 90.0))),
        ])
        lines = _run(scenario, server).splitlines()
        assert [line.split("\t") for line in lines] == [
            [format_http_date(40.0), "/a"],
            [format_http_date(90.0), "/a"],
            [format_http_date(90.0), "/late"],
        ]

    def test_feed_of_a_static_population_is_empty(self):
        async def scenario(origin):
            return await exchange(
                origin.host, origin.port, _get(CONTROL_PREFIX + "feed"))

        static = OriginServer([
            ObjectHistory(WebObject("/a", size=10, created=-5.0)),
        ])
        response, body, _ = _run(scenario, static)
        assert (response.status, body) == (200, "")

    def test_feed_reads_are_counted(self):
        async def scenario(origin):
            for _ in range(2):
                await exchange(
                    origin.host, origin.port, _get(CONTROL_PREFIX + "feed"))
            _, stats, _ = await exchange(
                origin.host, origin.port, _get(CONTROL_PREFIX + "stats"))
            return json.loads(stats)

        assert _run(scenario)["feed_reads"] == 2

    def test_window_endpoint_is_gone(self):
        """The per-request ``(since, until]`` pull was removed with its
        endpoint; a proxy reads ``feed`` once instead."""
        async def scenario(origin):
            return await exchange(
                origin.host, origin.port,
                _get(CONTROL_PREFIX + "invalidations", t=40.0, since=0.0))

        response, _, _ = _run(scenario)
        assert response.status == 404

    def test_unknown_control_endpoint_404(self):
        async def scenario(origin):
            return await exchange(origin.host, origin.port,
                                  _get(CONTROL_PREFIX + "nope"))

        response, _, _ = _run(scenario)
        assert response.status == 404


class TestKeepAliveAndIdempotency:
    def test_keepalive_serves_many_exchanges_on_one_socket(self):
        from repro.live.wire import LiveConnection

        async def scenario(origin):
            connection = LiveConnection(origin.host, origin.port)
            try:
                replies = []
                for t in (10.0, 20.0, 30.0):
                    response, _, _ = await connection.request(
                        _get("/a", t))
                    replies.append(response.status)
                return replies
            finally:
                await connection.close()

        assert _run(scenario) == [200, 200, 200]

    def test_an_idle_keepalive_connection_is_held_open(self):
        """No idle timeout: a client that goes quiet keeps its socket
        (the proxy's upstream pool parks connections between requests
        for as long as it lives)."""
        from repro.live.wire import LiveConnection

        async def scenario(origin):
            connection = LiveConnection(origin.host, origin.port)
            try:
                await connection.request(_get("/a", 10.0))
                (handler,) = origin._handlers
                await asyncio.sleep(0.3)
                idle = connection.is_open and not handler.done()
                response, _, _ = await connection.request(_get("/a", 20.0))
                return idle, response.status, len(origin._handlers)
            finally:
                await connection.close()

        assert _run(scenario) == (True, 200, 1)

    def test_duplicate_seq_is_served_but_counted_once(self):
        from repro.live.wire import SEQ_HEADER

        async def scenario(origin):
            request = _get("/a", 10.0)
            request.headers.set(SEQ_HEADER, "/a@0")
            first, _, _ = await exchange(origin.host, origin.port, request)
            retry = _get("/a", 10.0)
            retry.headers.set(SEQ_HEADER, "/a@0")
            second, _, _ = await exchange(origin.host, origin.port, retry)
            _, stats, _ = await exchange(
                origin.host, origin.port, _get(CONTROL_PREFIX + "stats"))
            return first.status, second.status, json.loads(stats)

        first, second, stats = _run(scenario)
        # The retry gets a full, correct reply — only the *count* dedups.
        assert (first, second) == (200, 200)
        assert stats == {"gets": 1, "ims_queries": 0, "feed_reads": 0}

    def test_distinct_seqs_count_separately(self):
        from repro.live.wire import SEQ_HEADER

        async def scenario(origin):
            for k in range(2):
                request = _get("/a", 10.0)
                request.headers.set(SEQ_HEADER, f"/a@{k}")
                await exchange(origin.host, origin.port, request)
            _, stats, _ = await exchange(
                origin.host, origin.port, _get(CONTROL_PREFIX + "stats"))
            return json.loads(stats)

        assert _run(scenario) == {
            "gets": 2, "ims_queries": 0, "feed_reads": 0,
        }

    def test_stats_payload_stays_pinned(self):
        """The stats body is part of the byte-identity contract for
        zero-fault serial replays — exactly three keys, nothing extra."""
        async def scenario(origin):
            _, stats, _ = await exchange(
                origin.host, origin.port, _get(CONTROL_PREFIX + "stats"))
            return json.loads(stats)

        assert sorted(_run(scenario)) == [
            "feed_reads", "gets", "ims_queries",
        ]
