"""The proxy transaction's promise: all of a request's shared effects,
or none of them.

A request's effects on the proxy's *shared* state are staged in its
transaction and folded in at commit.  A request that fails between
``_begin`` and ``_commit`` must therefore leave that state exactly as
it found it, and a committed transaction must fold in exactly what the
same step calls do to plain counters and a plain ledger.
"""

import asyncio
import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import Cache
from repro.core.costs import DEFAULT_COSTS
from repro.core.metrics import BandwidthLedger, ConsistencyCounters
from repro.core.objects import ModificationSchedule, ObjectHistory, WebObject
from repro.core.protocols import InvalidationProtocol, TTLProtocol
from repro.core.server import FetchResult, NotModified, OriginServer
from repro.core.step import RequestStep, SimulatorMode
from repro.http.messages import Request
from repro.live.origin import LiveOrigin
from repro.live.proxy import LiveProxy
from repro.live.wire import DATE, SEQ_HEADER, X_CACHE, exchange


def _server() -> OriginServer:
    return OriginServer([
        ObjectHistory(WebObject("/a", size=1000, created=-500.0),
                      ModificationSchedule(-500.0, (40.0,))),
        ObjectHistory(WebObject("/b", size=700, created=-500.0),
                      ModificationSchedule(-500.0, (20.0,))),
    ])


def _shared(proxy: LiveProxy) -> tuple:
    """Every piece of the proxy's shared state a request may stage."""
    return copy.deepcopy((
        proxy.counters, proxy.bandwidth, proxy.events, proxy._cursors,
        proxy._clocks, proxy._upstream, proxy._done,
    ))


async def _get(proxy: LiveProxy, path: str, t: float, seq: str):
    request = Request("GET", path)
    request.headers.set_date(DATE, t)
    request.headers.set(SEQ_HEADER, seq)
    response, _, _ = await exchange(proxy.host, proxy.port, request)
    return response


class TestFailedRequestLeavesNoTrace:
    """Each failure lands after the request staged something: a clock,
    an upstream sequence id, counters, and — under invalidation — a
    delivered notice's charge, event and cursor."""

    def _run(self, scenario):
        async def body():
            origin = LiveOrigin(_server())
            await origin.start()
            proxy = LiveProxy(origin.host, origin.port, InvalidationProtocol())
            await proxy.start()
            try:
                await proxy.warm(0.0)
                return await scenario(origin, proxy)
            finally:
                await proxy.close()
                await origin.close()

        return asyncio.run(body())

    def test_origin_closed_mid_validation(self):
        async def scenario(origin, proxy):
            # A committed hit first: the feed is read, /b's clock set.
            first = await _get(proxy, "/b", 10.0, "r0")
            assert first.headers.get(X_CACHE) == "HIT"
            before = _shared(proxy)
            await origin.close()
            # /a changed at t=40: the notice is delivered (staged), the
            # entry goes invalid, and its validation finds no origin.
            failed = await _get(proxy, "/a", 50.0, "r1")
            return before, failed, _shared(proxy)

        before, failed, after = self._run(scenario)
        assert failed.status == 500
        assert after == before

    def test_upstream_refusal(self):
        async def scenario(origin, proxy):
            await _get(proxy, "/b", 10.0, "r0")
            before = _shared(proxy)
            # Unknown to the origin: its 404 fails the proxy's miss.
            failed = await _get(proxy, "/ghost", 30.0, "r1")
            return before, failed, _shared(proxy)

        before, failed, after = self._run(scenario)
        assert failed.status == 500
        assert after == before


#: One request or delivery: ``(op, object, changed, cacheable, size)``.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["request", "deliver"]),
        st.sampled_from(["/a", "/b", "/c"]),
        st.booleans(),
        st.booleans(),
        st.integers(min_value=0, max_value=5000),
    ),
    max_size=40,
)


def _drive(step: RequestStep, op: tuple, t: float) -> None:
    """One request (or one feed line) through ``step``, the way the
    proxy drives it, with the reply chosen by the example."""
    kind, object_id, changed, cacheable, size = op
    result = FetchResult(0, t - 1.0, size, None)
    if kind == "deliver":
        if step.deliver(t, object_id):
            step.prefetched(object_id, t, "html", result)
        return
    entry, fresh = step.begin(object_id, t)
    if entry is None:
        step.fetched(object_id, t, "html", result, cacheable)
    elif fresh:
        step.hit(object_id, t, stale=changed)
    else:
        step.validated(entry, t, result if changed else NotModified(None))


@settings(max_examples=60, deadline=None)
@given(
    ops=_OPS,
    invalidation=st.booleans(),
    eager=st.booleans(),
    base=st.booleans(),
    charge_per_modification=st.booleans(),
)
def test_a_committed_txn_folds_what_the_step_moved(
    ops, invalidation, eager, base, charge_per_modification
):
    """All 13 counters and 15 ledger cells (and the events) of staged,
    committed transactions equal the same step calls on a plain
    ``ConsistencyCounters`` / ``BandwidthLedger``."""
    def protocol():
        return InvalidationProtocol(eager) if invalidation else TTLProtocol(30.0)

    mode = SimulatorMode.BASE if base else SimulatorMode.OPTIMIZED
    counters, ledger, events = ConsistencyCounters(), BandwidthLedger(), []
    plain = RequestStep(
        Cache(), protocol(), mode, DEFAULT_COSTS, charge_per_modification,
        counters, ledger, lambda *event: events.append(event),
    )
    proxy = LiveProxy(
        "127.0.0.1", 1, protocol(), mode,
        charge_per_modification=charge_per_modification,
    )

    async def staged():
        for i, op in enumerate(ops):
            txn = proxy._begin()
            _drive(txn.step, op, 10.0 * i)
            await proxy._commit(txn, {"kind": "request"})

    asyncio.run(staged())
    for i, op in enumerate(ops):
        _drive(plain, op, 10.0 * i)
    assert proxy.counters == counters
    assert proxy.bandwidth == ledger
    assert proxy.events == events
