"""The per-server memos of ``repro.fastpath.arrays``: the last encoded
request stream and the preloaded-state template.

A hit needs the same list *object* at the same length and
``start_time``; every run gets its own ``CacheState``; both memos die
with the server.  Each case is compared with the reference simulator
on a server the memo has never seen.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.analysis.sweep import sweep_alex
from repro.core.clock import days
from repro.core.costs import DEFAULT_COSTS
from repro.core.protocols import AlexProtocol, InvalidationProtocol
from repro.core.results import result_to_dict
from repro.core.server import OriginServer, UnknownObjectError
from repro.core.simulator import SimulatorMode, simulate
from repro.experiments import common
from repro.fastpath import (
    compile_protocol,
    compile_server,
    encode_requests,
    fast_simulate,
    initial_state,
)
from repro.fastpath.kernels import run_kernel
from repro.faults import FaultPlan

OPTIMIZED = SimulatorMode.OPTIMIZED


def alex() -> AlexProtocol:
    return AlexProtocol.from_percent(10.0)


def reference(workload, requests, **config):
    """The reference engine on a server built for this call alone."""
    return result_to_dict(simulate(
        OriginServer(workload.histories), alex(), requests,
        end_time=workload.duration, **config,
    ))


def fast(server, workload, requests, **config):
    return result_to_dict(fast_simulate(
        server, alex(), requests, end_time=workload.duration, **config,
    ))


@pytest.fixture
def server(workload):
    """A server no other test has compiled anything for."""
    return OriginServer(workload.histories)


class TestStreamMemo:
    def test_same_list_object_is_a_hit(self, workload, server):
        compiled = compile_server(server)
        first = encode_requests(compiled, workload.requests, 0.0)
        again = encode_requests(compiled, workload.requests, 0.0)
        assert again[0] is first[0] and again[1] is first[1]
        assert fast(server, workload, workload.requests) == reference(
            workload, workload.requests
        )

    def test_equal_copy_re_encodes(self, workload, server):
        compiled = compile_server(server)
        first = encode_requests(compiled, workload.requests, 0.0)
        copy = list(workload.requests)
        second = encode_requests(compiled, copy, 0.0)
        assert second[0] is not first[0] and second == first
        assert fast(server, workload, copy) == reference(workload, copy)

    def test_appended_to_list_re_encodes(self, workload, server):
        requests = list(workload.requests[:500])
        compiled = compile_server(server)
        first = encode_requests(compiled, requests, 0.0)
        assert fast(server, workload, requests) == reference(workload, requests)
        requests.extend(workload.requests[500:900])
        second = encode_requests(compiled, requests, 0.0)
        assert second[0] is not first[0]
        assert (len(first[0]), len(second[0])) == (500, 900)
        assert fast(server, workload, requests) == reference(workload, requests)

    def test_different_start_time_re_encodes(self, workload, server):
        requests = [r for r in workload.requests if r[0] >= days(2)]
        compiled = compile_server(server)
        first = encode_requests(compiled, requests, 0.0)
        assert encode_requests(compiled, requests, days(1))[0] is not first[0]
        for start in (0.0, days(1), 0.0):
            assert fast(server, workload, requests, start_time=start) == (
                reference(workload, requests, start_time=start)
            )
        # The window check is start_time's own: a hit at 0.0 must not
        # let the same list through at a start it precedes.
        with pytest.raises(ValueError, match="precedes current time"):
            fast(server, workload, requests, start_time=days(3))

    def test_different_server_re_encodes(self, workload, server):
        other = OriginServer(workload.histories[:-1])
        known = compile_server(other).index
        requests = [r for r in workload.requests if r[1] in known]
        first = encode_requests(compile_server(server), requests, 0.0)
        second = encode_requests(compile_server(other), requests, 0.0)
        assert second[0] is not first[0]
        assert result_to_dict(fast_simulate(
            other, alex(), requests, end_time=workload.duration
        )) == result_to_dict(simulate(
            OriginServer(workload.histories[:-1]), alex(), requests,
            end_time=workload.duration,
        ))

    def test_tuple_stream_is_remembered_too(self, workload, server):
        requests = tuple(workload.requests)
        compiled = compile_server(server)
        first = encode_requests(compiled, requests, 0.0)
        assert encode_requests(compiled, requests, 0.0)[0] is first[0]


class TestIterators:
    """``fast_simulate`` is typed ``Iterable``: a one-shot generator has
    no ``len()`` and can be neither replayed nor remembered."""

    def test_generator_runs_equal_the_list_run(self, workload, server):
        expected = reference(workload, workload.requests)
        for _ in range(2):
            stream = (request for request in workload.requests)
            assert fast(server, workload, stream) == expected
        assert fast(server, workload, workload.requests) == expected

    def test_generator_is_not_remembered_and_evicts_nothing(
        self, workload, server
    ):
        compiled = compile_server(server)
        kept = encode_requests(compiled, workload.requests, 0.0)
        one = encode_requests(compiled, iter(workload.requests), 0.0)
        two = encode_requests(compiled, iter(workload.requests), 0.0)
        assert one == two == kept
        assert one[0] is not two[0] and one[0] is not kept[0]
        assert encode_requests(compiled, workload.requests, 0.0)[0] is kept[0]


class TestFailuresAreNeverRemembered:
    def check_twice(self, workload, server, bad, error, message):
        good = workload.requests
        expected = reference(workload, good)
        assert fast(server, workload, good) == expected
        raised = []
        for _ in range(2):
            with pytest.raises(error) as caught:
                fast(server, workload, bad)
            raised.append((type(caught.value), str(caught.value)))
        with pytest.raises(error) as from_reference:
            reference(workload, bad)
        assert raised == [(error, str(from_reference.value))] * 2
        assert message in raised[0][1]
        assert fast(server, workload, good) == expected

    def test_out_of_order_stream(self, workload, server):
        bad = list(workload.requests[:50])
        bad[10], bad[40] = bad[40], bad[10]
        self.check_twice(workload, server, bad, ValueError,
                         "request streams must be time-ordered")

    def test_unknown_object(self, workload, server):
        bad = list(workload.requests[:50])
        bad[25] = (bad[25][0], "/no-such-object")
        self.check_twice(workload, server, bad, UnknownObjectError,
                         "/no-such-object")


class TestRunsAreIsolated:
    def test_plain_run_after_crash_and_eager_runs(self, workload, server):
        requests, end = workload.requests, workload.duration
        crash = FaultPlan(loss_rate=0.3, cache_crashes=(days(3), days(9)),
                          seed=5)
        fast_simulate(server, InvalidationProtocol(), requests,
                      end_time=end, faults=crash)
        fast_simulate(server, InvalidationProtocol(eager=True), requests,
                      end_time=end)
        fast_simulate(server, alex(), requests, SimulatorMode.BASE,
                      end_time=end, preload=False)
        assert fast(server, workload, requests) == result_to_dict(
            fast_simulate(OriginServer(workload.histories), alex(), requests,
                          end_time=end)
        )

    def test_each_state_is_its_own_copy(self, server):
        compiled = compile_server(server)
        first = initial_state(compiled, 0.0, True)
        assert any(first.resident)
        first.resident[:] = [False] * len(first.resident)
        first.version[0] += 7
        second = initial_state(compiled, 0.0, True)
        assert any(second.resident) and second.version[0] != first.version[0]
        assert not any(initial_state(compiled, 0.0, False).resident)
        assert any(initial_state(compiled, 0.0, True).resident)

    def test_kernel_leaves_the_request_arrays_alone(self, workload, server):
        compiled = compile_server(server)
        req_times, req_objs = encode_requests(compiled, workload.requests, 0.0)
        before = (list(req_times), list(req_objs))
        kind, p0, p1, p2, has_p2 = compile_protocol(alex())
        run_kernel(
            compiled, initial_state(compiled, 0.0, True), req_times, req_objs,
            kind=kind, p0=p0, p1=p1, p2=p2, has_p2=has_p2,
            base_mode=False, costs=DEFAULT_COSTS,
            charge_per_modification=True, preload=True, start_time=0.0,
            end_time=workload.duration, protocol_name="alex",
            mode_value=OPTIMIZED.value,
        )
        assert (req_times, req_objs) == before


class Stream(list):
    """A request list a weak reference can watch."""


class TestLifetime:
    def test_memos_die_with_the_server(self, workload):
        server = OriginServer(workload.histories)
        stream = Stream(workload.requests)
        fast_simulate(server, alex(), stream, end_time=workload.duration)
        watched = [weakref.ref(server), weakref.ref(stream),
                   weakref.ref(compile_server(server))]
        del stream
        gc.collect()
        assert watched[1]() is not None  # held: its identity is the key
        del server
        gc.collect()
        assert [ref() for ref in watched] == [None, None, None]

    def test_clear_caches_frees_them(self):
        workload = common.worrell_workload(0.02, 3)
        stream = Stream(workload.requests)
        fast_simulate(workload.server(), alex(), stream,
                      end_time=workload.duration)
        watched = [weakref.ref(workload.server()), weakref.ref(stream),
                   weakref.ref(compile_server(workload.server()))]
        del workload, stream
        gc.collect()
        assert all(ref() is not None for ref in watched)
        common.clear_caches()
        gc.collect()
        assert [ref() for ref in watched] == [None, None, None]


class TestWorkers:
    def test_forked_workers_never_see_a_stale_memo(self, workload):
        # Warm the parent's memo with a *different* stream first: a
        # worker forked now starts from it and must miss.
        fast_simulate(workload.server(), alex(), workload.requests[:100],
                      end_time=workload.duration)
        grid = (0.0, 10.0, 50.0, 100.0)
        serial = sweep_alex([workload], OPTIMIZED, grid, workers=1)
        forked = sweep_alex([workload], OPTIMIZED, grid, workers=2)
        assert forked == serial
