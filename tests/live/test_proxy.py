"""Behavior tests for :class:`repro.live.proxy.LiveProxy`.

These pin the proxy's consistency state machine — serving verdicts
(``X-Cache``), counter/ledger accounting, storage policy — against the
transitions :class:`repro.core.simulator.Simulation` makes.  The full
equivalence is enforced wholesale in ``test_differential``; here each
transition is observable in isolation.
"""

import asyncio
import gc
import json

import pytest

from repro.core.costs import DEFAULT_COSTS
from repro.core.metrics import FULL_RETRIEVAL, VALIDATION_304
from repro.core.objects import ModificationSchedule, ObjectHistory, WebObject
from repro.core.protocols import (
    InvalidationProtocol,
    PollEveryRequestProtocol,
    TTLProtocol,
)
from repro.core.server import OriginServer
from repro.core.simulator import SimulatorMode
from repro.http.messages import Request
from repro.live import live_vs_sim, parse_chaos, run_replay
from repro.live import wire
from repro.live.origin import LiveOrigin
from repro.live.proxy import LiveProxy
from repro.live.wire import CONTROL_PREFIX, DATE, X_CACHE, exchange


def _server() -> OriginServer:
    return OriginServer([
        ObjectHistory(WebObject("/a", size=1000, created=-500.0),
                      ModificationSchedule(-500.0, (40.0,))),
        ObjectHistory(WebObject("/dyn", size=50, created=-10.0,
                                cacheable=False)),
    ])


def _run(coro_fn, protocol=None, mode=SimulatorMode.OPTIMIZED, warm=True):
    """Boot origin+proxy, warm, run ``coro_fn(origin, proxy)``."""
    async def body():
        origin = LiveOrigin(_server())
        await origin.start()
        try:
            proxy = LiveProxy(
                origin.host, origin.port,
                protocol if protocol is not None else TTLProtocol(30.0),
                mode,
            )
            await proxy.start()
            try:
                if warm:
                    await proxy.warm(0.0)
                return await coro_fn(origin, proxy), proxy
            finally:
                await proxy.close()
        finally:
            await origin.close()

    return asyncio.run(body())


async def _client_get(proxy, path, t):
    request = Request("GET", path)
    request.headers.set_date(DATE, t)
    return await exchange(proxy.host, proxy.port, request)


class TestServingVerdicts:
    def test_fresh_entry_hits_without_origin_traffic(self):
        async def scenario(origin, proxy):
            response, body, _ = await _client_get(proxy, "/a", 10.0)
            return response, body, origin.gets

        (response, body, origin_gets), proxy = _run(scenario)
        assert response.headers.get(X_CACHE) == "HIT"
        assert len(body) == 1000
        assert response.headers.last_modified == -500.0
        assert origin_gets == 0
        assert proxy.counters.hits == 1
        assert proxy.counters.requests == 1
        assert proxy.bandwidth.total_bytes == 0

    def test_expired_unchanged_entry_revalidates_304(self):
        async def scenario(origin, proxy):
            response, _, _ = await _client_get(proxy, "/a", 35.0)
            return response, origin.ims_queries

        (response, ims), proxy = _run(scenario)
        assert response.headers.get(X_CACHE) == "REVALIDATED"
        assert ims == 1
        assert proxy.counters.validations == 1
        assert proxy.counters.validations_not_modified == 1
        assert proxy.counters.hits == 1
        assert proxy.bandwidth.exchanges[VALIDATION_304] == 1
        control, _ = DEFAULT_COSTS.validation_not_modified()
        assert proxy.bandwidth.control_bytes[VALIDATION_304] == control

    def test_expired_changed_entry_transfers_body(self):
        async def scenario(origin, proxy):
            # /a changes at t=40; by t=80 the warmed copy is both
            # expired (TTL 30) and out of date.
            response, _, _ = await _client_get(proxy, "/a", 80.0)
            return response

        response, proxy = _run(scenario)
        assert response.headers.get(X_CACHE) == "MISS"
        assert response.headers.last_modified == 40.0
        assert proxy.counters.misses == 1
        assert proxy.counters.validations == 1
        assert proxy.counters.validations_not_modified == 0

    def test_base_mode_refetches_unconditionally(self):
        async def scenario(origin, proxy):
            response, _, _ = await _client_get(proxy, "/a", 35.0)
            return response, origin.gets, origin.ims_queries

        (response, gets, ims), proxy = _run(
            scenario, mode=SimulatorMode.BASE)
        assert response.headers.get(X_CACHE) == "MISS"
        assert gets == 1
        assert ims == 0
        assert proxy.bandwidth.exchanges[FULL_RETRIEVAL] == 1

    def test_dynamic_object_fetched_every_time_never_stored(self):
        async def scenario(origin, proxy):
            await _client_get(proxy, "/dyn", 5.0)
            await _client_get(proxy, "/dyn", 6.0)
            return origin.gets

        gets, proxy = _run(scenario)
        assert gets == 2
        assert proxy.counters.misses == 2
        assert proxy.cache.peek("/dyn") is None


class TestTimeDiscipline:
    def test_out_of_order_request_is_rejected(self):
        async def scenario(origin, proxy):
            await _client_get(proxy, "/a", 20.0)
            response, _, _ = await _client_get(proxy, "/a", 10.0)
            return response

        response, proxy = _run(scenario)
        assert response.status == 400
        # The rejected request never entered the accounting.
        assert proxy.counters.requests == 1


class TestInvalidationSync:
    def test_modification_invalidates_before_serving(self):
        async def scenario(origin, proxy):
            # At t=50 the t=40 modification of /a must already have
            # been pulled and applied, so the warmed copy cannot hit.
            response, _, _ = await _client_get(proxy, "/a", 50.0)
            return response

        response, proxy = _run(scenario, protocol=InvalidationProtocol())
        assert response.headers.get(X_CACHE) == "MISS"
        assert proxy.counters.invalidations_received == 1
        assert proxy.counters.server_invalidations_sent == 1

    def test_finish_flushes_trailing_invalidations(self):
        async def scenario(origin, proxy):
            await _client_get(proxy, "/a", 10.0)  # before the change
            finish = Request("GET", CONTROL_PREFIX + "finish")
            finish.headers.set_date(DATE, 100.0)
            response, _, _ = await exchange(proxy.host, proxy.port, finish)
            return response

        response, proxy = _run(scenario, protocol=InvalidationProtocol())
        assert response.status == 200
        assert proxy.counters.invalidations_received == 1
        entry = proxy.cache.peek("/a")
        assert entry is not None and not entry.valid


class TestStatsEndpoint:
    def test_stats_reports_counters_ledger_and_wire_bytes(self):
        async def scenario(origin, proxy):
            await _client_get(proxy, "/a", 10.0)
            stats_request = Request("GET", CONTROL_PREFIX + "stats")
            _, body, _ = await exchange(proxy.host, proxy.port,
                                        stats_request)
            return json.loads(body)

        stats, proxy = _run(scenario)
        assert stats["counters"]["requests"] == 1
        assert stats["counters"]["hits"] == 1
        assert set(stats["bandwidth"]) == {
            "control_bytes", "body_bytes", "exchanges"}
        assert stats["wire_bytes"] > 0
        assert stats["protocol"] == "ttl(0.00833333h)"
        assert stats["mode"] == "optimized"


def _population(n: int) -> OriginServer:
    return OriginServer([
        ObjectHistory(WebObject(f"/o{i}", size=100 + i, created=-500.0))
        for i in range(n)
    ])


@pytest.fixture
def accepted(monkeypatch):
    """Connections the origin accepted, one entry per handler started."""
    entries = []
    handle = LiveOrigin._handle

    async def counting(self, reader, writer):
        entries.append(writer)
        await handle(self, reader, writer)

    monkeypatch.setattr(LiveOrigin, "_handle", counting)
    return entries


class TestUpstreamKeepAlive:
    """The proxy→origin hop rides pooled keep-alive sockets."""

    def test_a_polling_replay_dials_the_origin_a_handful_of_times(
        self, accepted
    ):
        """200 poll-every-request exchanges: one socket per exchange in
        flight (two client connections) plus the driver's one stats
        read of the origin — not one per validation."""
        requests = [(float(10 + i), f"/o{i % 7}") for i in range(200)]
        report = asyncio.run(run_replay(
            _population(7), PollEveryRequestProtocol(), requests,
            connections=2, keepalive=True,
        ))
        assert report.origin_ims_queries == 200
        assert 1 <= len(accepted) <= 3

    def test_warm_opens_exactly_one_connection(self, accepted):
        async def body():
            origin = LiveOrigin(_population(25))
            await origin.start()
            proxy = LiveProxy(origin.host, origin.port, TTLProtocol(30.0))
            try:
                return await proxy.warm(0.0)
            finally:
                await proxy.close()
                await origin.close()

        assert asyncio.run(body()) == 25
        assert len(accepted) == 1

    def test_origin_restart_between_exchanges_costs_no_retry(self, accepted):
        """A long-lived proxy (``repro serve``) outlives its origin's
        restarts: the pooled socket the old origin hung up on is never
        handed out, so even a budget of one attempt succeeds."""
        async def scenario(origin, proxy):
            assert proxy.upstream_attempts == 1
            first, _, _ = await _client_get(proxy, "/a", 35.0)
            port = origin.port
            await origin.close()
            await origin.start(port=port)
            second, _, _ = await _client_get(proxy, "/a", 70.0)
            return first, second

        (first, second), proxy = _run(scenario)
        assert first.headers.get(X_CACHE) == "REVALIDATED"
        assert (second.status, second.headers.get(X_CACHE)) == (200, "MISS")
        # warm-up + first exchange shared one socket; the second dialled.
        assert len(accepted) == 2

    @pytest.mark.parametrize("fault", ["loss", "reset", "truncate"])
    def test_a_faulted_connection_is_closed_and_never_reused(
        self, fault, monkeypatch
    ):
        """Upstream chaos: the connection a fault broke is closed and
        dropped, unbroken ones keep serving, and the run still equals
        the simulator (retries ride the same ``X-Repro-Seq``)."""
        made = []

        class Watched(wire.LiveConnection):
            def __init__(self, host, port):
                super().__init__(host, port)
                self.outcomes = []
                made.append(self)

            async def request(self, request):
                assert "failed" not in self.outcomes, "broken, yet reused"
                try:
                    reply = await super().request(request)
                except BaseException:
                    self.outcomes.append("failed")
                    raise
                self.outcomes.append("ok")
                return reply

        # The pool's connections only: the driver imported its own name.
        monkeypatch.setattr(wire, "LiveConnection", Watched)
        requests = [(float(10 + i), f"/o{i % 5}") for i in range(60)]
        _, _, report = live_vs_sim(
            _population(5), PollEveryRequestProtocol, requests,
            end_time=100.0, connections=2, keepalive=True,
            chaos=parse_chaos(f"{fault}=0.3,seed=5"),
        )
        assert report.ok
        assert any("failed" in c.outcomes for c in made)
        assert any(c.outcomes.count("ok") > 1 for c in made)
        assert not any(c.is_open for c in made)


class TestTeardown:
    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning")
    @pytest.mark.parametrize("chaos", [None, "loss=0.3,reset=0.2,seed=7"])
    def test_replay_leaves_no_socket_and_no_asyncio_complaint(
        self, chaos, caplog
    ):
        """After ``run_replay`` returns, nothing is left open to the
        origin or a relay (a leaked transport is a ``ResourceWarning``
        at collection), and no handler had to be cancelled (Python
        3.11 logs ``Exception in callback`` for each one that is)."""
        requests = [(float(10 + i), f"/o{i % 5}") for i in range(40)]
        with caplog.at_level("ERROR", logger="asyncio"):
            asyncio.run(run_replay(
                _population(5), PollEveryRequestProtocol(), requests,
                end_time=100.0, connections=3, keepalive=True,
                chaos=parse_chaos(chaos) if chaos else None,
            ))
            gc.collect()
        assert not caplog.records
