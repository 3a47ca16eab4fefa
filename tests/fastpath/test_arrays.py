"""The per-server memos of ``repro.fastpath.arrays``: the last encoded
request stream with its version and Last-Modified columns, and the
preloaded-state template.

A hit needs the same list *object* at the same length and
``start_time``; every run gets its own ``CacheState``; both memos die
with the server.  Each case is compared with the reference simulator
on a server the memo has never seen.
"""

from __future__ import annotations

import bisect
import gc
import sys
import weakref
from unittest import mock

import numpy as np
import pytest

from repro.analysis.sweep import sweep_alex
from repro.core.clock import days, hours
from repro.core.costs import DEFAULT_COSTS
from repro.core.protocols import (
    AlexProtocol,
    CERNPolicyProtocol,
    InvalidationProtocol,
    TTLProtocol,
)
from repro.core.results import result_to_dict
from repro.core.server import OriginServer, UnknownObjectError
from repro.core.simulator import SimulatorMode, simulate
from repro.experiments import common
from repro.fastpath import (
    REFERENCE,
    arrays,
    compile_protocol,
    compile_server,
    encode_requests,
    fast_simulate,
    initial_state,
    kernels,
    set_engine,
    specialise,
)
from repro.fastpath.arrays import stream_columns
from repro.fastpath.kernels import run_kernel
from repro.faults import FaultPlan
from repro.workload.base import Workload
from tests.conftest import make_history

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


class TestColumns:
    """Per request, the origin's version at the request time and its
    Last-Modified: what ``version_at`` / ``last_modified_at`` answer."""

    def test_columns_are_the_origin_model(self, workload, server):
        compiled = compile_server(server)
        times, objs = encode_requests(compiled, workload.requests, 0.0)
        versions, stamps = stream_columns(compiled, times, objs)
        assert len(versions) == len(stamps) == len(workload.requests) + 1
        expected = [
            (server.version_at(oid, t), server.schedule(oid).last_modified_at(t))
            for t, oid in workload.requests
        ]
        assert list(zip(versions, stamps))[:-1] == expected
        assert 0 < max(versions)  # the fixture's objects do change

    def test_edges(self):
        server = OriginServer([
            make_history("/changes", created=-100.0, changes=(10.0, 20.0)),
            make_history("/static", created=-50.0),
        ])
        requests = [(5.0, "/changes"), (10.0, "/changes"), (15.0, "/static"),
                    (20.0, "/changes"), (25.0, "/changes")]
        compiled = compile_server(server)
        versions, stamps = stream_columns(
            compiled, *encode_requests(compiled, requests, 0.0)
        )
        # Before the first change: version 0, created.  At exactly a
        # modification instant: the new version (bisect_right's tie).
        # Never modified: version 0, created.
        assert versions[:-1] == [0, 1, 0, 2, 2]
        assert stamps[:-1] == [-100.0, 10.0, -50.0, 20.0, 20.0]

    def test_trailing_flush_is_delivered(self):
        """The last notice falls after the last request but by
        ``end_time``: only the sentinel row of every column delivers it."""
        server = OriginServer([
            make_history("/a", changes=(hours(1), hours(30))),
            make_history("/b", changes=(hours(2),)),
        ])
        requests = [(hours(3), "/a"), (hours(4), "/b"), (hours(5), "/a")]
        runs = [
            result_to_dict(run(server, InvalidationProtocol(), requests,
                               end_time=hours(48)))
            for run in (fast_simulate, simulate)
        ]
        assert runs[0] == runs[1]
        assert runs[0]["counters"]["invalidations_received"] == 3

    def test_a_memo_hit_returns_the_same_columns(self, workload, server):
        compiled = compile_server(server)
        times, objs = encode_requests(compiled, workload.requests, 0.0)
        first = stream_columns(compiled, times, objs)
        again = stream_columns(compiled, *encode_requests(
            compiled, workload.requests, 0.0))
        assert again[0] is first[0] and again[1] is first[1]
        # Arrays the memo does not hold get columns of their own.
        other = stream_columns(compiled, list(times), list(objs))
        assert other == first and other[0] is not first[0]


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

    def test_generator_columns_are_built_per_call(self, workload, server):
        compiled = compile_server(server)
        kept = stream_columns(compiled, *encode_requests(
            compiled, workload.requests, 0.0))
        once = stream_columns(compiled, *encode_requests(
            compiled, iter(workload.requests), 0.0))
        assert once == kept and once[0] is not kept[0]
        assert stream_columns(compiled, *encode_requests(
            compiled, workload.requests, 0.0))[0] is kept[0]


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


def outcome(call):
    """What ``call`` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as error:
        return type(error), str(error)


def _swapped(requests):
    requests[10], requests[40] = requests[40], requests[10]


def _replaced(*edits):
    """Each ``(position, make)`` replaces that request ``r`` by ``make(r)``."""
    def edit(requests):
        for position, make in edits:
            requests[position] = make(requests[position])
    return edit


_NAN = float("nan")

#: Per case, an edit of a good stream and the start time to encode it at.
EDITS = {
    "out-of-order": (_swapped, 0.0),
    "before-start-time": (_replaced(), days(2)),
    "unknown-object": (_replaced((25, lambda r: (r[0], "/no-such-object"))),
                       0.0),
    "nan-time": (_replaced((25, lambda r: (_NAN, r[1]))), 0.0),
    "earlier-after-nan": (_replaced((25, lambda r: (_NAN, r[1])),
                                    (26, lambda r: (0.0, r[1]))), 0.0),
    "three-items": (_replaced((25, lambda r: (*r, 0))), 0.0),
    "not-iterable": (_replaced((25, lambda r: 7)), 0.0),
}


class TestEncodeChecksAreTheReferences:
    """``encode_requests`` accepts a stream, as a list, a tuple or an
    iterator, exactly when the reference simulator does, and otherwise
    raises the reference's error; an accepted stream's arrays are its
    times and its objects' indices."""

    @pytest.mark.parametrize("container", [list, tuple, iter])
    @pytest.mark.parametrize("case", sorted(EDITS))
    def test_same_verdict_as_the_reference(self, workload, server, case,
                                           container):
        edit, start_time = EDITS[case]
        requests = list(workload.requests[:50])
        edit(requests)
        compiled = compile_server(server)
        encoded = outcome(lambda: encode_requests(
            compiled, container(requests), start_time))
        reference = outcome(lambda: simulate(
            OriginServer(workload.histories), alex(), container(requests),
            start_time=start_time, end_time=workload.duration))
        # A NaN time passes: no comparison with it is true.
        assert isinstance(reference, tuple) == ("nan" not in case)
        if isinstance(reference, tuple):
            assert encoded == reference
            return
        assert encoded == ([t for t, _ in requests],
                           [compiled.index[oid] for _, oid in requests])


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
        columns = stream_columns(compiled, req_times, req_objs)
        before = [list(column) for column in (req_times, req_objs, *columns)]
        kind, p0, p1, p2, has_p2 = compile_protocol(alex())
        run_kernel(
            compiled, initial_state(compiled, 0.0, True), req_times, req_objs,
            kind=kind, p0=p0, p1=p1, p2=p2, has_p2=has_p2,
            base_mode=False, costs=DEFAULT_COSTS,
            charge_per_modification=True, preload=True, start_time=0.0,
            end_time=workload.duration, protocol_name="alex",
            mode_value=OPTIMIZED.value,
        )
        assert [req_times, req_objs, *columns] == before
        assert stream_columns(compiled, req_times, req_objs) is columns


class TestLaneTemplate:
    """A stepping run copies its lanes' state from a template kept with
    the stream for the last ``(start_time, preload)``, delivering or
    not, and gathers only ``expires_at`` from its own state."""

    def test_one_gather_per_key_and_every_run_equals_the_reference(
        self, flat_workload, monkeypatch
    ):
        gathered = []

        class Counting(arrays.LaneState):
            def __init__(self, state, lanes, delivering):
                gathered.append(state)
                super().__init__(state, lanes, delivering)

        monkeypatch.setattr(arrays, "LaneState", Counting)
        workload = flat_workload
        server = OriginServer(workload.histories)
        configs = [
            # Of these only CERN reads the stamp its on_stored puts on
            # each preloaded copy: the template Alex made holds none.
            (alex, {}), (alex, {}), (CERNPolicyProtocol, {}),
            (lambda: TTLProtocol(hours(12)), {}),
            (InvalidationProtocol, {}), (InvalidationProtocol, {}),
            (alex, {"preload": False}), (alex, {}),
        ]
        for make, config in configs:
            assert result_to_dict(fast_simulate(
                server, make(), workload.requests,
                end_time=workload.duration, **config,
            )) == result_to_dict(simulate(
                OriginServer(workload.histories), make(), workload.requests,
                end_time=workload.duration, **config,
            ))
        # The delivering runs share the others' key; each change of key
        # gathers once.
        assert len(gathered) == 3


class Stream(list):
    """A request list a weak reference can watch."""


def remembered_columns(server, stream):
    """The columns the memo keeps for ``stream`` (a list cannot be
    watched by a weak reference, so callers count its holders)."""
    compiled = compile_server(server)
    return stream_columns(compiled, *encode_requests(compiled, stream, 0.0))


class TestLifetime:
    def test_memos_die_with_the_server(self, workload):
        server = OriginServer(workload.histories)
        stream = Stream(workload.requests)
        fast_simulate(server, alex(), stream, end_time=workload.duration)
        watched = [weakref.ref(server), weakref.ref(stream),
                   weakref.ref(compile_server(server))]
        columns = remembered_columns(server, stream)
        held = sys.getrefcount(columns)
        del stream
        gc.collect()
        assert watched[1]() is not None  # held: its identity is the key
        del server
        gc.collect()
        assert [ref() for ref in watched] == [None, None, None]
        assert sys.getrefcount(columns) == held - 1  # the memo let go

    def test_clear_caches_frees_them(self):
        workload = common.worrell_workload(0.02, 3)
        stream = Stream(workload.requests)
        fast_simulate(workload.server(), alex(), stream,
                      end_time=workload.duration)
        watched = [weakref.ref(workload.server()), weakref.ref(stream),
                   weakref.ref(compile_server(workload.server()))]
        columns = remembered_columns(workload.server(), stream)
        held = sys.getrefcount(columns)
        del workload, stream
        gc.collect()
        assert all(ref() is not None for ref in watched)
        assert sys.getrefcount(columns) == held
        common.clear_caches()
        gc.collect()
        assert [ref() for ref in watched] == [None, None, None]
        assert sys.getrefcount(columns) == held - 1


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

    def test_forked_workers_read_the_parents_columns(self, workload):
        # A worker forked with the sweep's own stream remembered reads
        # the columns it inherits: they must give the reference's answers.
        columns = remembered_columns(workload.server(), workload.requests)
        assert remembered_columns(workload.server(), workload.requests) is columns
        grid = (0.0, 10.0, 50.0, 100.0)
        forked = sweep_alex([workload], OPTIMIZED, grid, workers=2)
        set_engine(REFERENCE)
        assert forked == sweep_alex([workload], OPTIMIZED, grid, workers=1)


class TestNoScheduleSearchPerRequest:
    """The request loop reads the columns.  A template edit that brings
    a per-request ``bisect_right`` back fails here, not only in the
    benchmark."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """The sequences ``bisect_right`` is called on from now, by the
        kernels (built afresh, so they bind the counting one) and by
        ``repro.fastpath.arrays``."""
        searched = []

        def counting(a, x, *bounds):
            searched.append(a)
            return bisect.bisect_right(a, x, *bounds)

        monkeypatch.setattr(kernels, "bisect_right", counting)
        monkeypatch.setattr(arrays, "bisect_right", counting)
        monkeypatch.setattr(specialise, "_KERNELS", weakref.WeakKeyDictionary())
        return searched

    CONFIGS = (
        ("ttl", lambda: TTLProtocol(hours(24)), OPTIMIZED),
        ("alex", alex, OPTIMIZED),
        ("invalidation", InvalidationProtocol, OPTIMIZED),
        ("cern", CERNPolicyProtocol, OPTIMIZED),
        ("alex-base", alex, SimulatorMode.BASE),
    )

    @pytest.mark.parametrize("name,make,mode", CONFIGS,
                             ids=[c[0] for c in CONFIGS])
    def test_a_memo_hit_run_never_searches_a_schedule(
        self, workload, server, searches, name, make, mode
    ):
        compiled = compile_server(server)
        encode_requests(compiled, workload.requests, 0.0)
        initial_state(compiled, 0.0, True)
        searches.clear()
        result = fast_simulate(server, make(), workload.requests, mode,
                               end_time=workload.duration)
        assert not [a for a in searches if a is compiled.mod_times]
        # What is left bounds the action cursor, once per run.
        assert len(searches) <= 2
        assert result_to_dict(result) == result_to_dict(simulate(
            OriginServer(workload.histories), make(), workload.requests, mode,
            end_time=workload.duration,
        ))

    def test_an_eager_push_still_searches(self, workload, server, searches):
        """The counter is live: a push happens at an action time, which
        no request column answers."""
        compiled = compile_server(server)
        fast_simulate(server, InvalidationProtocol(eager=True),
                      workload.requests, end_time=workload.duration)
        assert any(a is compiled.mod_times for a in searches)


class TestViewBuiltOncePerStream:
    """A run that skips its hit runs reads the stream by object; the view
    is built once per kept stream, not once per run of a sweep."""

    @pytest.fixture
    def workload(self, quiet_workload):
        """A stream that changes rarely enough for lean runs to skip."""
        return quiet_workload

    @pytest.fixture
    def builds(self, monkeypatch):
        """How many views ``repro.fastpath.arrays`` packs from now on."""
        built = []
        real = arrays.stream_view

        def counting(compiled, req_times, req_objs, columns):
            view = real(compiled, req_times, req_objs, columns)
            if not any(view is seen for seen in built):
                built.append(view)
            return view

        monkeypatch.setattr(kernels, "stream_view", counting)
        monkeypatch.setattr(specialise, "_KERNELS", weakref.WeakKeyDictionary())
        return built

    def test_a_sweep_over_one_stream_builds_one_view(
        self, workload, server, builds
    ):
        for make in (alex, lambda: TTLProtocol(hours(24)), CERNPolicyProtocol):
            for _ in range(3):
                assert result_to_dict(fast_simulate(
                    server, make(), workload.requests,
                    end_time=workload.duration,
                )) == result_to_dict(simulate(
                    OriginServer(workload.histories), make(),
                    workload.requests, end_time=workload.duration,
                ))
        assert len(builds) == 1
        # Another list is another stream: its own view, kept instead.
        copy = list(workload.requests)
        fast(server, workload, copy)
        fast(server, workload, copy)
        assert len(builds) == 2

    def test_a_stream_that_is_not_kept_gets_a_view_per_run(
        self, workload, server, builds
    ):
        for _ in range(2):
            assert fast(server, workload, iter(workload.requests)) == reference(
                workload, workload.requests)
        assert len(builds) == 2

    def test_runs_that_do_not_skip_build_none(self, workload, server, builds):
        fast(server, workload, workload.requests,
             observer=lambda *event: None)
        fast_simulate(server, InvalidationProtocol(), workload.requests,
                      end_time=workload.duration)
        assert builds == []

    def test_the_view_is_the_stream_by_object(self, workload, server):
        compiled = compile_server(server)
        times, objs = encode_requests(compiled, workload.requests, 0.0)
        columns = stream_columns(compiled, times, objs)
        ends, *rows, positions = arrays.stream_view(
            compiled, times, objs, columns)
        # The times a list of floats, which a bisect compares without
        # making any, the other columns packed values; the index column
        # is a tuple, whose iterator tells the run its row.
        assert isinstance(rows[0], list)
        assert all(isinstance(rows[k], arrays.array) for k in (2, 3))
        assert rows[1] == tuple(objs[p] for p in positions.tolist())
        assert sorted(positions.tolist()) == list(range(len(times)))
        assert [(v, lm) for v, lm in zip(rows[2], rows[3])] == [
            (columns[0][p], columns[1][p]) for p in positions.tolist()]
        # Object by object, each in time order, as the stream has them.
        assert list(rows[1]) == sorted(objs)
        assert [(t, o) for t, o in zip(rows[0], rows[1])] == sorted(
            zip(times, objs), key=lambda row: row[1])
        assert ends[objs[0]] == sum(1 for o in objs if o <= objs[0])


    def test_one_sort_of_the_objects_per_kept_stream(
        self, flat_workload, monkeypatch
    ):
        """Every view by object is cut from one stable sort of the stream's
        objects: a skipping run, a stepping run and a stepping run under a
        fault plan share it; a one-shot iterator sorts once per run."""
        workload = flat_workload
        server = OriginServer(workload.histories)
        index = compile_server(server).index
        objects = np.array([index[oid] for _, oid in workload.requests])
        sorts = []
        real = arrays._by_object

        def counting(objs, count):
            if len(objs) == len(objects) and np.array_equal(objs, objects):
                sorts.append(objs)
            return real(objs, count)

        monkeypatch.setattr(arrays, "_by_object", counting)
        monkeypatch.setattr(specialise, "_KERNELS", weakref.WeakKeyDictionary())
        choose = specialise._Kernel.__call__

        def skipping(kernel, observed, scheduled, skippable, steppable=False):
            # The stream changes too often to skip on its own.
            return choose(kernel, observed, scheduled, True, False)

        plan = FaultPlan(loss_rate=0.3, retries=1,
                         cache_crashes=(days(3),), seed=3)
        with mock.patch.object(specialise._Kernel, "__call__", skipping):
            fast(server, workload, workload.requests)
        assert (False, False, True, False) in compile_protocol(
            alex())[0].variants
        fast(server, workload, workload.requests)
        fast_simulate(server, InvalidationProtocol(), workload.requests,
                      end_time=workload.duration, faults=plan)
        assert (False, True, False, True) in compile_protocol(
            InvalidationProtocol())[0].variants
        assert len(sorts) == 1
        fast(server, workload, iter(workload.requests))
        fast_simulate(server, InvalidationProtocol(),
                      iter(workload.requests), end_time=workload.duration,
                      faults=plan)
        assert len(sorts) == 3

    @pytest.mark.parametrize("name", ["flat_workload", "mixed_workload"])
    def test_the_steps_are_the_stream_by_object(self, name, request):
        """Regrouped lane by lane, the stream by step is the stream by
        object for the cacheable objects; every object has a lane, and a
        non-cacheable or unrequested one holds no row.  The rows by object
        fault plans are cut on are the same, each object's followed by one
        flush row."""
        workload = request.getfixturevalue(name)
        if name == "mixed_workload":
            # Leave one object unrequested, beside the non-cacheable one.
            workload = Workload(workload.histories, [
                (t, oid) for t, oid in workload.requests if oid != "/static"
            ], workload.duration)
        compiled = compile_server(OriginServer(workload.histories))
        times, objs = encode_requests(compiled, workload.requests, 0.0)
        columns = stream_columns(compiled, times, objs)
        ends, *_, positions = arrays.stream_view(compiled, times, objs, columns)
        steps = arrays.step_view(compiled, times, objs, columns)
        lanes = steps.lanes.tolist()
        assert sorted(lanes) == list(range(len(compiled.ids)))
        by_lane = {i: [] for i in lanes}
        row = 0
        for width in steps.widths:
            for lane in lanes[:width]:
                by_lane[lane].append(steps.positions[row])
                row += 1
        starts = [0, *ends[:-1]]
        by_object = {i: positions[starts[i]:ends[i]].tolist()
                     if compiled.cacheable[i] else [] for i in lanes}
        assert by_lane == by_object
        requested = set(objs)
        assert [i for i in lanes if not by_lane[i]] == [
            i for i in lanes if not compiled.cacheable[i] or i not in requested]
        keys = arrays._lane_rows(compiled, times, objs, steps)[3]
        flushed = []
        for i in range(len(compiled.ids)):
            flushed += by_object[i] + [len(times)]
        assert (keys % (len(times) + 2)).tolist() == flushed


def wide_server(objects=(1 << 16) + 100):
    """More objects than 16-bit keys hold, nearly all never modified nor
    requested; the last 200, half of them past the 16-bit range, change
    twice each."""
    histories = [make_history(f"/s{k}", size=100)
                 for k in range(objects - 200)]
    histories += [make_history(f"/w{k}", size=500 + k,
                               changes=(hours(3 + k % 7), hours(40 + k % 11)))
                  for k in range(200)]
    return histories


class TestMoreObjectsThanSixteenBits:
    """The by-object sort takes 64-bit keys past 65,536 objects."""

    @pytest.fixture(scope="class")
    def histories(self):
        return wide_server()

    @pytest.mark.parametrize("requests,kind", [
        (2_000, (False, False, False, True)),  # dense and flat: steps
        (4_000, (False, False, True, False)),  # sparse: skips
    ])
    def test_fast_equals_the_reference(self, histories, requests, kind,
                                       monkeypatch):
        monkeypatch.setattr(specialise, "_KERNELS", weakref.WeakKeyDictionary())
        workload = Workload(histories, [
            (hours(0.02 * k), f"/w{(k * 37) % 200}") for k in range(requests)
        ], days(4))
        server = OriginServer(histories)
        assert fast(server, workload, workload.requests) == reference(
            workload, workload.requests)
        assert kind in compile_protocol(alex())[0].variants
