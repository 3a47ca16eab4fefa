"""Pooled replay: keyed locking under a real connection pool.

Here the driver opens several keep-alive connections at once, so
requests for *different* objects interleave arbitrarily on the proxy —
and the oracle must still match the simulation exactly: all thirteen
counters, all fifteen ledger cells, and the per-object event multisets
(ordering across objects is the one freedom a pool buys; nothing else
may move).  The differential tests are named cells of the option grid
in ``test_differential`` (:func:`check_cell`).
"""

import asyncio
import gc
import warnings

import pytest

import repro.live.proxy as proxy_module
from tests.live.test_differential import (
    _FACTORIES,
    _REQUESTS,
    _histories,
    check_cell,
)
from repro.core.server import OriginServer
from repro.core.simulator import SimulatorMode
from repro.live import LiveReplayError, run_replay
from repro.live.driver import _partition
from repro.live.wire import CONTROL_PREFIX


@pytest.fixture
def data_connections(monkeypatch):
    """Counts the non-control connections the proxy served (control
    exchanges are one-shot, so a connection's first request says which
    kind it is)."""
    first: dict[asyncio.StreamReader, str] = {}
    read_request = proxy_module.read_request

    async def spy(reader):
        request, nbytes = await read_request(reader)
        first.setdefault(reader, request.path)
        return request, nbytes

    monkeypatch.setattr(proxy_module, "read_request", spy)
    return lambda: sum(
        not path.startswith(CONTROL_PREFIX) for path in first.values()
    )


class TestConcurrentDifferential:
    @pytest.mark.parametrize("name", sorted(_FACTORIES))
    def test_pooled_keepalive_matches_sim_exactly(self, name):
        check_cell(name, connections=3, keepalive=True)

    def test_single_connection_keepalive_matches(self):
        check_cell("invalidation", connections=1, keepalive=True)

    def test_pessimistic_mode_matches_concurrently(self, data_connections):
        check_cell("ttl", SimulatorMode.BASE, connections=3, keepalive=True)
        assert data_connections() == 3

    def test_cross_object_protocol_still_matches(self, data_connections):
        """Self-tuning couples state across objects; the proxy falls
        back to one key and the driver to one bucket — one worker, one
        socket, stream order by construction, whatever ``connections``
        says — and they still reconcile."""
        check_cell("selftuning", connections=3, keepalive=True)
        assert data_connections() == 1

    def test_faults_under_the_pool_match_sim(self, data_connections):
        """A fault plan is a global timeline, which used to make the
        pool refuse it.  It is the one-key case of the ordinary path:
        faults × ``connections=3`` × keep-alive is one socket and
        matches ``simulate(faults=plan)``."""
        _, _, report = check_cell(
            "invalidation", faults="loss-retries",
            connections=3, keepalive=True,
        )
        assert report.events_checked > len(_REQUESTS)
        assert data_connections() == 1


class TestWorkerFailure:
    def test_one_workers_failure_cancels_the_siblings(self):
        """A worker raising must not strand the other drive tasks —
        left unawaited they keep retrying — nor any pooled socket,
        idle or in flight: the proxy's handlers all see their peer
        hang up, and nothing is left for the collector to warn about."""
        from repro.live import LiveOrigin, LiveProxy
        from repro.live.driver import replay_pooled
        from repro.live.wire import LiveWireError

        async def run():
            origin = LiveOrigin(OriginServer(_histories()))
            await origin.start()
            proxy = LiveProxy(
                origin.host, origin.port, _FACTORIES["invalidation"](),
            )
            await proxy.start()
            try:
                await proxy.warm(0.0)
                # Bucket 0 is a single unknown object (a fast 500);
                # bucket 1 is a long run of good requests that would
                # still be in flight when bucket 0's worker raises.
                stream = [(1.0, "/nope")] + [
                    (float(t), "/a") for t in range(1, 60)
                ]
                with pytest.raises(LiveWireError, match="returned 500"):
                    await replay_pooled(
                        origin, proxy.host, proxy.port, stream,
                        connections=2, keepalive=True,
                    )
                leaked = [
                    task for task in asyncio.all_tasks()
                    if task is not asyncio.current_task()
                    and not task.done()
                    and "drive" in task.get_coro().__qualname__
                ]
                assert leaked == []

                async def hung_up_on():
                    while proxy._handlers:
                        await asyncio.sleep(0.01)

                await asyncio.wait_for(hung_up_on(), 5)
            finally:
                await proxy.close()
                await origin.close()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            asyncio.run(run())
            gc.collect()
        assert [w for w in caught if w.category is ResourceWarning] == []


class TestTimeOrderViolations:
    def test_per_object_regression_is_rejected(self):
        """Request clocks are per key, so distinct objects may
        interleave out of global order — but a clock running backwards
        on *one object* is still a driver bug and must be a hard
        error."""
        out_of_order = [(50.0, "/a"), (40.0, "/a")]
        with pytest.raises(LiveReplayError):
            asyncio.run(run_replay(
                OriginServer(_histories()),
                _FACTORIES["invalidation"](),
                out_of_order,
                end_time=120.0,
                connections=2,
                keepalive=True,
            ))


class TestPartition:
    def test_one_object_one_bucket(self):
        buckets = _partition(_REQUESTS, 3)
        owner = {}
        for i, bucket in enumerate(buckets):
            for _, _, object_id in bucket:
                assert owner.setdefault(object_id, i) == i

    def test_bucket_order_is_stream_order(self):
        buckets = _partition(_REQUESTS, 3)
        for bucket in buckets:
            indices = [index for index, _, _ in bucket]
            assert indices == sorted(indices)

    def test_nothing_dropped_nothing_invented(self):
        buckets = _partition(_REQUESTS, 4)
        flat = sorted(
            (index, t, oid) for bucket in buckets
            for index, t, oid in bucket
        )
        assert flat == [
            (i, t, oid) for i, (t, oid) in enumerate(_REQUESTS)
        ]

    def test_more_connections_than_objects(self):
        buckets = _partition([(1.0, "/a"), (2.0, "/a")], 8)
        assert sum(1 for bucket in buckets if bucket) == 1
