"""Property-based fast-vs-reference identity: random workloads.

The hypothesis leg of the equivalence contract: any random population
(file types, Expires headers, dynamic objects) under any supported
protocol, mode, §4.1 charging policy, and preload setting must replay
event-for-event and counter-for-counter identically on both engines.
Reuses the oracle suite's workload generator so the fast path faces the
same adversarial populations the spec model does.

The delivery side gets the same treatment with the fault suite's own
generators (``tests/faults/test_properties.py``): any small population
under any invalidation-family protocol (eager or not) and any fault
plan replays identically, and the plan's columnar schedule is, row for
row, the ``FaultAction`` tuple ``compile`` returns.  So does the cache
side: any population under any compiled protocol, self-tuning included,
with any caller-supplied cache the kernel keeps and cache crashes, leaves
the protocol and the ``Cache`` exactly as the reference does.

Each property also runs the fast engine without an observer — the
variant users and the benchmark run, compiled without the event calls
(and, with nothing to deliver, without the action cursor) — and
requires the observed run's result, and its metrics where a registry
is installed.  One more runs that lean variant both ways — walking
every request, and skipping each run of fresh hits by object — on
streams built to find where the two could part: requests exactly at a
TTL boundary and at equal times, at a modification's own instant, and
stale ages from a millisecond to decades, whose sum shows its order.
The lockstep variant is run both ways too, and so is its delivering
form, which counts each object's feed lines from the origin's versions,
or applies a fault plan's actions to each object between its requests.
"""

from __future__ import annotations

import json
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import ALEX_THRESHOLDS_PERCENT, TTL_HOURS
from repro.core.cache import Cache
from repro.core.clock import DAY, hours
from repro.core.costs import DEFAULT_COSTS
from repro.core.objects import ModificationSchedule, ObjectHistory, WebObject
from repro.core.protocols import (
    AlexProtocol,
    CERNPolicyProtocol,
    ExpiresTTLProtocol,
    InvalidationProtocol,
    LeasedInvalidationProtocol,
    PollEveryRequestProtocol,
    SelfTuningProtocol,
    TTLProtocol,
)
from repro.core.replacement import FIFOPolicy, LRUPolicy
from repro.core.results import result_to_dict
from repro.core.server import OriginServer
from repro.core.simulator import Simulation, SimulatorMode
from repro.fastpath import (
    compile_protocol,
    compile_server,
    diff_metrics,
    diff_results,
    encode_requests,
    fast_simulate,
    initial_state,
)
from repro.fastpath import specialise as specialiser
from repro.fastpath.arrays import compile_schedule
from repro.fastpath.dispatch import _compile_run as compile_run
from repro.faults import DowntimeWindow, FaultAction, FaultPlan
from repro.obs import registry as obs_registry
from tests.faults.test_properties import DURATION as FAULT_DURATION
from tests.faults.test_properties import protocols as feed_protocols
from tests.faults.test_properties import small_workloads
from repro.workload.campus import build_campus_workloads
from tests.verify.test_oracle_properties import DURATION, rich_workloads

from .test_identity import UNOBSERVED, cache_state, protocol_state
from .test_specialise import (
    ListeningTTL,
    PerTypeTTL,
    SloppyTTL,
    SoftTTL,
    StampedInvalidation,
    TunesOnValidation,
)


def supported_protocols():
    """Factories for every configuration the fast path compiles."""
    return st.sampled_from(
        [
            lambda: TTLProtocol(0.0),
            lambda: TTLProtocol(hours(24)),
            lambda: ExpiresTTLProtocol(hours(24)),
            lambda: AlexProtocol.from_percent(0),
            lambda: AlexProtocol.from_percent(10),
            lambda: PollEveryRequestProtocol(),
            lambda: InvalidationProtocol(),
            lambda: LeasedInvalidationProtocol(hours(12)),
            lambda: CERNPolicyProtocol(0.1, hours(1)),
            lambda: CERNPolicyProtocol(0.5, hours(1), max_ttl=hours(6)),
            lambda: SelfTuningProtocol(),
            lambda: SelfTuningProtocol(0.04, 0.02, 0.3, 2.0, 0.25),
            # Known to no file under src/: specialised from the class.
            lambda: SoftTTL(hours(24), 0.25),
            lambda: SloppyTTL(hours(1)),
            lambda: StampedInvalidation(hours(12)),
            lambda: TunesOnValidation(hours(6)),
        ]
    )


@settings(max_examples=80, deadline=None)
@given(
    workload=rich_workloads(),
    make_protocol=supported_protocols(),
    mode=st.sampled_from(list(SimulatorMode)),
    per_modification=st.booleans(),
    preload=st.booleans(),
)
def test_fast_path_is_event_for_event_identical(
    workload, make_protocol, mode, per_modification, preload
):
    histories, requests = workload
    server = OriginServer(histories)
    ref_events: list = []
    reference = Simulation(
        server,
        make_protocol(),
        mode,
        preload=preload,
        charge_per_modification=per_modification,
        observer=lambda kind, t, oid: ref_events.append((kind, t, oid)),
    ).run(requests, end_time=DURATION)
    fast_events: list = []
    fast = fast_simulate(
        server,
        make_protocol(),
        requests,
        mode,
        preload=preload,
        charge_per_modification=per_modification,
        end_time=DURATION,
        observer=lambda kind, t, oid: fast_events.append((kind, t, oid)),
    )
    unobserved = fast_simulate(
        server, make_protocol(), requests, mode, preload=preload,
        charge_per_modification=per_modification, end_time=DURATION,
    )
    assert diff_results(fast, reference) == []
    assert fast_events == ref_events
    assert diff_results(unobserved, fast, **UNOBSERVED) == []


@settings(max_examples=80, deadline=None)
@given(
    workload=rich_workloads(),
    make_protocol=supported_protocols(),
    policy=st.sampled_from([None, "unbounded", LRUPolicy, FIFOPolicy]),
    room=st.floats(min_value=0.0, max_value=1.0),
    crashes=st.lists(st.floats(min_value=0.0, max_value=DURATION), max_size=2),
    mode=st.sampled_from(list(SimulatorMode)),
    preload=st.booleans(),
)
def test_caller_cache_is_left_as_the_reference_leaves_it(
    workload, make_protocol, policy, room, crashes, mode, preload
):
    """Any population, protocol and cache — unbounded, or bounded between
    the largest object and the whole population under the built-in LRU,
    LRUPolicy or FIFOPolicy — with cache crashes: results, events,
    metrics, the protocol's state and the caller's ``Cache``.  Without
    crashes, a lean run's variant called whatever the stream's shape —
    stepping on the stream's residency, for an LRU cache with nothing
    delivered — leaves the same."""
    histories, requests = workload
    server = OriginServer(histories)
    sizes = [history.obj.size for history in histories]
    capacity = max(sizes) + int(room * sum(sizes))

    def make_cache():
        if policy == "unbounded":
            return Cache()
        return Cache(capacity, None if policy is None else policy())

    plan = FaultPlan(cache_crashes=tuple(crashes))

    def run(fast, observed=True):
        protocol, cache, events = make_protocol(), make_cache(), []
        config = dict(preload=preload, cache=cache, faults=plan,
                      observer=(lambda *event: events.append(event))
                      if observed else None)
        with obs_registry.installed(obs_registry.MetricsRegistry()) as metrics:
            result = (
                fast_simulate(server, protocol, requests, mode,
                              end_time=DURATION, **config)
                if fast else
                Simulation(server, protocol, mode, **config).run(
                    requests, end_time=DURATION)
            )
        return (result, events, metrics.as_dict(), protocol_state(protocol),
                cache_state(cache))

    reference, fast = run(False), run(True)
    assert diff_results(fast[0], reference[0]) == []
    assert diff_metrics(fast[2], reference[2]) == []
    # The events, the protocol's state and the caller's cache.
    assert [fast[k] for k in (1, 3, 4)] == [reference[k] for k in (1, 3, 4)]
    # The variant users run leaves what the observed one leaves.
    unobserved = run(True, observed=False)
    assert diff_results(unobserved[0], fast[0], **UNOBSERVED) == []
    assert diff_metrics(unobserved[2], fast[2]) == []
    assert [unobserved[k] for k in (3, 4)] == [fast[k] for k in (3, 4)]
    protocol, cache = make_protocol(), make_cache()
    lean = compile_run(protocol, cache).kernel(False, False, False, True)
    if not crashes and lean.__code__.co_filename.endswith(", stepping>"):
        result = run_variant(lean, server, protocol, requests, mode, preload,
                             0.0, DURATION, cache=cache)
        assert diff_results(result, reference[0]) == []
        assert [protocol_state(protocol), cache_state(cache)] == [
            reference[k] for k in (3, 4)]


#: The TTL of the hit-run streams: their grid of quarter TTLs lands
#: requests exactly on ``validated_at + ttl`` and on each other.
GRID_TTL = hours(6)


@st.composite
def hit_run_workloads(draw, objects=3):
    """Few objects, many requests each: instants on a grid of quarter
    TTLs, just past one (1 ms, 0.7 s, 1000 s), or log-uniform from 1 ms
    to 1e9 s, so that objects' stale ages of every size interleave;
    modifications at such instants and requests at them too (a stale age
    of 0.0), dynamic objects and Expires headers among the rest."""
    instants = st.one_of(
        st.integers(min_value=0, max_value=40).map(lambda k: k * GRID_TTL / 4),
        st.tuples(st.integers(min_value=0, max_value=40),
                  st.sampled_from([1e-3, 0.7, 1e3])).map(
            lambda point: point[0] * GRID_TTL / 4 + point[1]),
        st.floats(min_value=-3.0, max_value=9.0).map(lambda e: 10.0 ** e),
    )
    histories = []
    for i in range(draw(st.integers(min_value=1, max_value=objects))):
        created = -draw(st.floats(min_value=1.0, max_value=100.0)) * DAY
        changes = sorted(draw(st.lists(instants, max_size=6, unique=True)))
        cacheable = i == 0 or draw(st.booleans())
        expires_after = draw(st.one_of(st.none(), st.just(GRID_TTL / 2)))
        histories.append(ObjectHistory(
            WebObject(f"/r{i}", size=100 + i, file_type="html",
                      created=created, cacheable=cacheable,
                      expires_after=expires_after if cacheable else None),
            ModificationSchedule(created, changes),
        ))
    requested = draw(st.lists(
        st.tuples(st.one_of(instants, st.sampled_from(
            [t for h in histories for t in h.schedule.times] or [0.0])),
            st.integers(min_value=0, max_value=len(histories) - 1)),
        max_size=60,
    ))
    # The grid and the modification instants repeat: requests tie.
    requests = sorted((t, histories[i].object_id) for t, i in requested)
    return histories, requests


def _interleaved_stale_ages():
    """Two objects' stale hits interleaved in time, aged ~4e8, ~1e-3 and
    ~6e8 s: added by object, not in request order, their sum moves."""
    histories = [
        ObjectHistory(WebObject(oid, size=100, file_type="html", created=-DAY),
                      ModificationSchedule(-DAY, [changed]))
        for oid, changed in (("/a", 10.0), ("/b", 5e8))
    ]
    requests = [(4e8 + 0.3, "/a"), (5e8 + 1e-3, "/b"), (6e8 + 0.7, "/a")]
    return histories, requests


def _candidate_past_the_boundary():
    """Validated at ``e``, the TTL's candidate ``e + ttl`` rounds up: a
    request one ulp below it is already stale to ``now - e < ttl``."""
    e = 8880.11005509299
    histories = [ObjectHistory(
        WebObject("/c", size=100, file_type="html", created=-DAY),
        ModificationSchedule(-DAY, []))]
    times = [e, e + 1.0, e + 2.0, math.nextafter(e + GRID_TTL, 0.0)]
    return histories, [(t, "/c") for t in times]


def _candidate_short_of_the_boundary():
    """Preloaded at ``e``, the TTL's candidate ``e + ttl`` rounds down: a
    request at it is still fresh to ``now - e < ttl``, after the run the
    preload counted."""
    e = 255433.16407361455
    histories = [ObjectHistory(
        WebObject("/s", size=100, file_type="html", created=-DAY),
        ModificationSchedule(-DAY, []))]
    edge = e + GRID_TTL
    times = [e + 1.0, edge, edge, math.nextafter(edge, math.inf), edge + 1.0]
    return histories, [(t, "/s") for t in times]


def _preloaded_runs():
    """Preloaded at ``GRID_TTL / 4``: /fresh is requested only while its
    copy is fresh, /edge first exactly at the TTL's boundary, /changed
    stale from a modification's own instant on (a stale age of 0.0), /zero
    modified at the preload itself (an Alex age of 0), /exp under a server
    Expires that ends at a request, /dyn never cacheable."""
    st = GRID_TTL / 4

    def history(oid, changes=(), cacheable=True, expires_after=None):
        return ObjectHistory(
            WebObject(oid, size=100, file_type="html", created=-DAY,
                      cacheable=cacheable, expires_after=expires_after),
            ModificationSchedule(-DAY, changes))

    histories = [history("/fresh"), history("/edge"),
                 history("/changed", [st + 100.0]), history("/zero", [st]),
                 history("/exp", expires_after=GRID_TTL / 2),
                 history("/dyn", cacheable=False)]
    requests = sorted([
        (st, "/fresh"), (st + 1.0, "/fresh"), (st + GRID_TTL / 2, "/fresh"),
        (st + GRID_TTL, "/edge"), (st + GRID_TTL, "/edge"),
        (st + GRID_TTL + 1.0, "/edge"), (st + 50.0, "/changed"),
        (st + 100.0, "/changed"), (st + 100.0, "/changed"),
        (st + 200.0, "/changed"), (st + 1.0, "/zero"), (st + 2.0, "/zero"),
        (st + 10.0, "/exp"), (st + GRID_TTL / 2, "/exp"),
        (st + GRID_TTL, "/exp"), (st, "/dyn"), (st + 5.0, "/dyn"),
    ])
    return histories, requests


def skippable_protocols():
    """Factories for classes whose ``is_fresh`` is proved monotone."""
    return st.sampled_from([
        lambda: TTLProtocol(GRID_TTL),
        lambda: TTLProtocol(0.0),
        lambda: TTLProtocol(1e9),
        lambda: ExpiresTTLProtocol(GRID_TTL),
        lambda: AlexProtocol.from_percent(10),
        lambda: AlexProtocol.from_percent(0),
        lambda: CERNPolicyProtocol(0.1, GRID_TTL),
        lambda: CERNPolicyProtocol(0.5, hours(1), max_ttl=GRID_TTL),
        lambda: PollEveryRequestProtocol(),
        lambda: SoftTTL(GRID_TTL, 0.25),
        lambda: SloppyTTL(GRID_TTL),
    ])


@settings(max_examples=150, deadline=None)
@given(
    workload=hit_run_workloads(),
    make_protocol=skippable_protocols(),
    mode=st.sampled_from(list(SimulatorMode)),
    preload=st.booleans(),
    start_time=st.sampled_from([0.0, GRID_TTL / 4]),
)
@example(workload=_interleaved_stale_ages(), make_protocol=lambda: TTLProtocol(1e9),
         mode=SimulatorMode.OPTIMIZED, preload=True, start_time=0.0)
@example(workload=_candidate_past_the_boundary(),
         make_protocol=lambda: TTLProtocol(GRID_TTL),
         mode=SimulatorMode.OPTIMIZED, preload=False, start_time=0.0)
# Each preloaded copy's run counted at once: with and without a preload,
# under a TTL, Alex, a server Expires and CERN.
@example(workload=_preloaded_runs(), make_protocol=lambda: TTLProtocol(GRID_TTL),
         mode=SimulatorMode.OPTIMIZED, preload=True, start_time=GRID_TTL / 4)
@example(workload=_preloaded_runs(), make_protocol=lambda: TTLProtocol(GRID_TTL),
         mode=SimulatorMode.OPTIMIZED, preload=False, start_time=GRID_TTL / 4)
@example(workload=_preloaded_runs(),
         make_protocol=lambda: AlexProtocol.from_percent(10),
         mode=SimulatorMode.OPTIMIZED, preload=True, start_time=GRID_TTL / 4)
@example(workload=_preloaded_runs(),
         make_protocol=lambda: ExpiresTTLProtocol(GRID_TTL),
         mode=SimulatorMode.BASE, preload=True, start_time=GRID_TTL / 4)
@example(workload=_preloaded_runs(),
         make_protocol=lambda: CERNPolicyProtocol(0.1, GRID_TTL),
         mode=SimulatorMode.OPTIMIZED, preload=True, start_time=GRID_TTL / 4)
# Its is_fresh does not if-convert: no preload pass, the loop's bisect.
@example(workload=_preloaded_runs(), make_protocol=lambda: PerTypeTTL(GRID_TTL),
         mode=SimulatorMode.OPTIMIZED, preload=True, start_time=GRID_TTL / 4)
@example(workload=_candidate_short_of_the_boundary(),
         make_protocol=lambda: TTLProtocol(GRID_TTL),
         mode=SimulatorMode.OPTIMIZED, preload=True, start_time=255433.16407361455)
def test_skipping_hit_runs_changes_no_byte(
    workload, make_protocol, mode, preload, start_time
):
    """The skipping variant, the per-request lean one and the reference
    agree to the last bit of ``stale_age_sum``."""
    histories, requests = workload
    server = OriginServer(histories)
    requests = [(t, oid) for t, oid in requests if t >= start_time]
    config = dict(preload=preload, start_time=start_time, end_time=1e9 + 1)
    reference = Simulation(
        server, make_protocol(), mode, preload=preload, start_time=start_time,
    ).run(requests, end_time=config["end_time"])
    choose = specialiser._Kernel.__call__

    def run(skippable):
        # Whatever the stream's change rate: skipping only changes speed.
        with mock.patch.object(specialiser._Kernel, "__call__",
                               lambda kernel, *facts: choose(
                                   kernel, *facts[:2], skippable)):
            return fast_simulate(server, make_protocol(), requests, mode,
                                 **config)

    skipping, lean = run(True), run(False)
    assert (False, False, True, False) in compile_protocol(
        make_protocol())[0].variants
    assert diff_results(skipping, reference) == []
    assert diff_results(lean, reference) == []


def _ages_of_zero():
    """Validated at a modification's own instant (preloaded at one, then
    refetched at the next): an Alex age of 0, not fresh however soon
    asked again; and two objects' requests at equal times."""
    histories = [
        ObjectHistory(WebObject(oid, size=100, file_type="html", created=-DAY),
                      ModificationSchedule(-DAY, [GRID_TTL / 4, GRID_TTL]))
        for oid in ("/a", "/b")
    ]
    requests = [(t, oid) for t in (GRID_TTL / 4, GRID_TTL / 4, GRID_TTL,
                                   GRID_TTL, 2 * GRID_TTL)
                for oid in ("/a", "/b")]
    return histories, requests


def _steps_out_of_request_order():
    """Two objects' stale hits whose steps take them out of request order
    (the second step holds /a at 10.3 before /b at 1.1): summed step by
    step, the ages come to 12.000000000000002, not 12.0."""
    histories = [
        ObjectHistory(WebObject(oid, size=100, file_type="html", created=-DAY),
                      ModificationSchedule(-DAY, [0.1]))
        for oid in ("/a", "/b")
    ]
    requests = [(0.3, "/a"), (0.7, "/b"), (1.1, "/b"), (10.3, "/a")]
    return histories, requests


def _hits_then_misses():
    """/a never changes, /b changes at the TTL: the first step is all hits
    (the early exit), the second a hit and a 200, the third a 304 and a
    hit."""
    histories = [
        ObjectHistory(WebObject(oid, size=size, file_type="html", created=-DAY),
                      ModificationSchedule(-DAY, changes))
        for oid, size, changes in (("/a", 100, []), ("/b", 200, [GRID_TTL]))]
    requests = [(1.0, "/a"), (2.0, "/b"), (3.0, "/a"), (GRID_TTL + 1.0, "/b"),
                (2 * GRID_TTL, "/a"), (2 * GRID_TTL + 1.0, "/b")]
    return histories, requests


def _no_lane_hits():
    """Under a TTL of 0 no request is fresh: every step is all 304s, 200s
    or cold misses, and no row is a hit."""
    histories = [
        ObjectHistory(WebObject(oid, size=size, file_type="html", created=-DAY),
                      ModificationSchedule(-DAY, [15.0]))
        for oid, size in (("/a", 100), ("/b", 300))]
    return histories, [(t, oid) for t in (10.0, 20.0, 30.0) for oid in ("/a", "/b")]


def _only_a_stale_hit():
    """/s, preloaded and changed at 10 s, is asked once, at 20 s: its lane's
    one row is a stale hit aged 10 s, beside a lane of many rows."""
    histories = [
        ObjectHistory(WebObject(oid, size=100, file_type="html", created=-DAY),
                      ModificationSchedule(-DAY, changes))
        for oid, changes in (("/s", [10.0]), ("/t", [5.0]))]
    return histories, sorted([(20.0, "/s")] + [(t, "/t") for t in (1.0, 8.0, 30.0)])


def run_variant(variant, server, protocol, requests, mode, preload,
                start_time, end_time, charge_per_modification=True,
                schedule=None, cache=None):
    """One run of a kernel variant, with the arguments fast_simulate
    passes ``run_kernel``; ``cache`` the caller's, for a variant of the
    kernel that keeps one."""
    compiled_protocol = compile_run(protocol, cache)
    p0, p1, p2 = compiled_protocol.values[:3]
    compiled = compile_server(server)
    req_times, req_objs = encode_requests(compiled, requests, start_time)
    return variant(
        compiled, initial_state(compiled, start_time, preload), req_times,
        req_objs, kind=compiled_protocol.kernel, p0=p0, p1=p1, p2=p2,
        base_mode=mode is SimulatorMode.BASE, costs=DEFAULT_COSTS,
        charge_per_modification=charge_per_modification, preload=preload,
        start_time=start_time, end_time=end_time, protocol_name=protocol.name,
        mode_value=mode.value, schedule=schedule,
        eager=bool(getattr(protocol, "eager", False)), cache=cache,
    )


@settings(max_examples=150, deadline=None)
@given(
    workload=hit_run_workloads(objects=6),
    make_protocol=skippable_protocols(),
    mode=st.sampled_from(list(SimulatorMode)),
    preload=st.booleans(),
    start_time=st.sampled_from([0.0, GRID_TTL / 4]),
)
@example(workload=_ages_of_zero(), make_protocol=lambda: AlexProtocol.from_percent(10),
         mode=SimulatorMode.OPTIMIZED, preload=True, start_time=GRID_TTL / 4)
@example(workload=_interleaved_stale_ages(), make_protocol=lambda: TTLProtocol(1e9),
         mode=SimulatorMode.BASE, preload=False, start_time=0.0)
@example(workload=_steps_out_of_request_order(),
         make_protocol=lambda: TTLProtocol(1e9), mode=SimulatorMode.OPTIMIZED,
         preload=True, start_time=0.0)
# The tallies are folded from each step's rows after the loop: a step that
# exits early, one without a hit, a lane of one stale hit, cold misses.
@example(workload=_hits_then_misses(), make_protocol=lambda: TTLProtocol(GRID_TTL),
         mode=SimulatorMode.OPTIMIZED, preload=True, start_time=0.0)
@example(workload=_hits_then_misses(), make_protocol=lambda: TTLProtocol(GRID_TTL),
         mode=SimulatorMode.BASE, preload=True, start_time=0.0)
@example(workload=_no_lane_hits(), make_protocol=lambda: TTLProtocol(0.0),
         mode=SimulatorMode.OPTIMIZED, preload=True, start_time=0.0)
@example(workload=_no_lane_hits(), make_protocol=lambda: TTLProtocol(0.0),
         mode=SimulatorMode.BASE, preload=True, start_time=0.0)
@example(workload=_only_a_stale_hit(), make_protocol=lambda: TTLProtocol(1e9),
         mode=SimulatorMode.OPTIMIZED, preload=True, start_time=0.0)
@example(workload=_hits_then_misses(), make_protocol=lambda: TTLProtocol(GRID_TTL),
         mode=SimulatorMode.OPTIMIZED, preload=False, start_time=0.0)
@example(workload=_hits_then_misses(), make_protocol=lambda: TTLProtocol(GRID_TTL),
         mode=SimulatorMode.BASE, preload=False, start_time=0.0)
def test_lockstep_changes_no_byte(
    workload, make_protocol, mode, preload, start_time
):
    """The lockstep variant, the per-request lean one and the reference
    agree to the last bit of ``stale_age_sum``, each variant called
    whatever the stream's shape."""
    histories, requests = workload
    server = OriginServer(histories)
    requests = [(t, oid) for t, oid in requests if t >= start_time]
    end_time = 1e9 + 1
    reference = Simulation(
        server, make_protocol(), mode, preload=preload, start_time=start_time,
    ).run(requests, end_time=end_time)
    kind = compile_protocol(make_protocol())[0]
    assert kind.unsteppable is None
    stepping, walking = kind(False, False, False, True), kind(False, False, False)
    assert stepping.__code__.co_filename.endswith(", stepping>")
    assert "stepping" not in walking.__code__.co_filename
    results = [run_variant(variant, server, make_protocol(), requests, mode,
                           preload, start_time, end_time)
               for variant in (stepping, walking)]
    for result in results:
        assert diff_results(result, reference) == []
        # Python's numbers, not numpy's: the result serialises.
        json.dumps(result_to_dict(result))


def _lines_before_and_after_the_start():
    """/a and /idle change before ``GRID_TTL / 4`` and after it, /idle only
    where no request names it: a lane's first gap counts from the version
    its preload holds, and the flush's from its last request's, or, for a
    lane with none, from the preload's."""
    histories = [
        ObjectHistory(WebObject(oid, size=size, file_type="html", created=-DAY),
                      ModificationSchedule(-DAY, changes))
        for oid, size, changes in (
            ("/a", 100, [1.0, GRID_TTL / 2, GRID_TTL / 2, 2 * GRID_TTL]),
            ("/idle", 300, [2.0, GRID_TTL, 3 * GRID_TTL]),
            ("/b", 200, [3.0]))]
    requests = [(GRID_TTL / 3, "/a"), (GRID_TTL / 3, "/b"),
                (GRID_TTL, "/a"), (GRID_TTL + 1.0, "/a")]
    return histories, requests


def _kept_copy_behind_the_feed():
    """A TTL hit keeps the copy the first change invalidated; the second
    change reaches it still invalid.  Counted from the kept copy's
    version, the second request would be charged both lines: 3 notices
    where the reference sends 2."""
    histories = [ObjectHistory(
        WebObject("/k", size=100, file_type="html", created=-DAY),
        ModificationSchedule(-DAY, [10.0, 20.0]))]
    return histories, [(15.0, "/k"), (25.0, "/k")]


@settings(max_examples=150, deadline=None)
@given(
    workload=hit_run_workloads(objects=6),
    make_protocol=st.sampled_from([
        InvalidationProtocol, lambda: ListeningTTL(GRID_TTL),
        lambda: ListeningTTL(1e9)]),
    mode=st.sampled_from(list(SimulatorMode)),
    per_modification=st.booleans(),
    preload=st.booleans(),
    start_time=st.sampled_from([0.0, GRID_TTL / 4]),
    end_time=st.sampled_from([None, 1e9 + 1]),
)
@example(workload=_kept_copy_behind_the_feed(),
         make_protocol=lambda: ListeningTTL(1e9), mode=SimulatorMode.OPTIMIZED,
         per_modification=True, preload=True, start_time=0.0, end_time=None)
# The notices are folded from each row's gap and flip after the loop.
@example(workload=_lines_before_and_after_the_start(),
         make_protocol=InvalidationProtocol, mode=SimulatorMode.OPTIMIZED,
         per_modification=True, preload=True, start_time=GRID_TTL / 4,
         end_time=1e9 + 1)
@example(workload=_lines_before_and_after_the_start(),
         make_protocol=lambda: ListeningTTL(GRID_TTL), mode=SimulatorMode.BASE,
         per_modification=False, preload=True, start_time=GRID_TTL / 4,
         end_time=1e9 + 1)
@example(workload=_lines_before_and_after_the_start(),
         make_protocol=InvalidationProtocol, mode=SimulatorMode.OPTIMIZED,
         per_modification=True, preload=False, start_time=GRID_TTL / 4,
         end_time=None)
def test_the_feed_by_lane_changes_no_byte(
    workload, make_protocol, mode, per_modification, preload, start_time,
    end_time,
):
    """A run that takes the server's feed steps its objects in lockstep,
    counting each lane's lines from the origin's versions; it, the
    per-request delivering variant and the reference agree, notices
    after the last request included."""
    histories, requests = workload
    server = OriginServer(histories)
    requests = [(t, oid) for t, oid in requests if t >= start_time]
    reference = Simulation(
        server, make_protocol(), mode, preload=preload, start_time=start_time,
        charge_per_modification=per_modification,
    ).run(requests, end_time=end_time)
    kind = compile_protocol(make_protocol())[0]
    stepping, walking = kind(False, False, False, True), kind(False, False, False)
    assert stepping.__code__.co_filename.endswith(", delivering, stepping>")
    assert walking.__code__.co_filename.endswith(", delivering>")
    for variant in (stepping, walking):
        result = run_variant(variant, server, make_protocol(), requests, mode,
                             preload, start_time, end_time, per_modification)
        assert diff_results(result, reference) == []
        json.dumps(result_to_dict(result))


def _pushed_twice_at_once():
    """/a changes twice at 10 s and once at 20 s, /b once at 10 s: a push
    at 10 s stores the version both changes made, stamped 10 s."""
    histories = [
        ObjectHistory(WebObject("/a", size=100, file_type="html", created=-DAY),
                      ModificationSchedule(-DAY, [10.0, 10.0, 20.0])),
        ObjectHistory(WebObject("/b", size=200, file_type="html", created=-DAY,
                                expires_after=GRID_TTL / 2),
                      ModificationSchedule(-DAY, [10.0]))]
    return histories, [(5.0, "/a"), (10.0, "/a"), (15.0, "/b"), (45.0, "/a")]


@settings(max_examples=150, deadline=None)
@given(
    workload=hit_run_workloads(objects=6),
    make_protocol=st.sampled_from([
        lambda: InvalidationProtocol(eager=True),
        lambda: StampedInvalidation(GRID_TTL)]),
    mode=st.sampled_from(list(SimulatorMode)),
    per_modification=st.booleans(),
    preload=st.booleans(),
    start_time=st.sampled_from([0.0, GRID_TTL / 4]),
    end_time=st.sampled_from([None, 1e9 + 1]),
)
@example(workload=_pushed_twice_at_once(),
         make_protocol=lambda: StampedInvalidation(GRID_TTL),
         mode=SimulatorMode.OPTIMIZED, per_modification=False, preload=True,
         start_time=0.0, end_time=None)
# The pushes and their bodies are folded from each row's gap after the loop.
@example(workload=_lines_before_and_after_the_start(),
         make_protocol=lambda: InvalidationProtocol(eager=True),
         mode=SimulatorMode.OPTIMIZED, per_modification=False, preload=True,
         start_time=GRID_TTL / 4, end_time=1e9 + 1)
@example(workload=_lines_before_and_after_the_start(),
         make_protocol=lambda: InvalidationProtocol(eager=True),
         mode=SimulatorMode.BASE, per_modification=True, preload=False,
         start_time=GRID_TTL / 4, end_time=None)
def test_the_eager_push_by_lane_changes_no_byte(
    workload, make_protocol, mode, per_modification, preload, start_time,
    end_time,
):
    """The eager push steps on the feed: every line to a resident lane is
    sent, received and pushed, and the lane keeps the last push's store,
    ``on_stored`` included.  It, the walking variant and the reference
    agree, pushes after the last request included."""
    histories, requests = workload
    server = OriginServer(histories)
    requests = [(t, oid) for t, oid in requests if t >= start_time]
    reference = Simulation(
        server, make_protocol(), mode, preload=preload, start_time=start_time,
        charge_per_modification=per_modification,
    ).run(requests, end_time=end_time)
    kind = compile_protocol(make_protocol())[0]
    assert kind.unsteppable is None
    stepping, walking = kind(False, False, False, True), kind(False, False, False)
    assert stepping.__code__.co_filename.endswith(", delivering, stepping>")
    assert walking.__code__.co_filename.endswith(", delivering>")
    for variant in (stepping, walking):
        result = run_variant(variant, server, make_protocol(), requests, mode,
                             preload, start_time, end_time, per_modification)
        assert diff_results(result, reference) == []
        json.dumps(result_to_dict(result))


def _objects_of(*sizes):
    return [ObjectHistory(
        WebObject(f"/s{k}", size=size, file_type="html", created=-DAY),
        ModificationSchedule(-DAY, [GRID_TTL * k])) for k, size in enumerate(sizes)]


def _lru_example(histories, requests, capacity, preload):
    return example(workload=(histories, requests),
                   make_protocol=lambda: AlexProtocol.from_percent(10),
                   capacity=capacity, mode=SimulatorMode.OPTIMIZED,
                   preload=preload, start_time=0.0)


@settings(max_examples=150, deadline=None)
@given(
    workload=hit_run_workloads(objects=6),
    make_protocol=st.sampled_from([
        lambda: TTLProtocol(GRID_TTL), lambda: AlexProtocol.from_percent(10),
        lambda: CERNPolicyProtocol(0.1, hours(1))]),
    capacity=st.integers(min_value=50, max_value=700),
    mode=st.sampled_from(list(SimulatorMode)),
    preload=st.booleans(),
    start_time=st.sampled_from([0.0, GRID_TTL / 4]),
)
# Room for one object: every other request evicts.
@_lru_example(_objects_of(100, 100), [(t * 60.0, f"/s{t % 2}") for t in range(8)],
              100, True)
# The preload overflows: it evicts the first objects it stored.
@_lru_example(_objects_of(100, 100, 100), [(60.0, "/s0"), (120.0, "/s2")],
              250, True)
# An object larger than the capacity, stored by a request or by preload.
@_lru_example(_objects_of(100, 300), [(60.0, "/s0"), (120.0, "/s1")], 200,
              False)
@_lru_example(_objects_of(100, 300), [(60.0, "/s0")], 200, True)
def test_an_lru_cache_by_residency_changes_no_byte(
    workload, make_protocol, capacity, mode, preload, start_time,
):
    """A kept LRU cache steps on the stream's own residency
    (``arrays.lru_residency``); it, the walking variant and the reference
    agree, and leave the caller's ``Cache`` alike — entries and their
    order, bytes, evictions — or raise the same message."""
    histories, requests = workload
    server = OriginServer(histories)
    requests = [(t, oid) for t, oid in requests if t >= start_time]

    def run(variant=None):
        cache = Cache(capacity)
        try:
            if variant is None:
                result = Simulation(
                    server, make_protocol(), mode, preload=preload,
                    start_time=start_time, cache=cache,
                ).run(requests, end_time=None)
            else:
                result = run_variant(variant, server, make_protocol(), requests,
                                     mode, preload, start_time, None,
                                     cache=cache)
        except ValueError as error:
            return str(error), None
        return result, cache_state(cache)

    kind = compile_run(make_protocol(), Cache(capacity)).kernel
    assert kind.unsteppable is None
    stepping, walking = kind(False, False, False, True), kind(False, False, False)
    assert stepping.__code__.co_filename.endswith(
        ", keeping a lru cache, stepping>")
    assert walking.__code__.co_filename.endswith(", keeping a lru cache>")
    reference, cached = run()
    for variant in (stepping, walking):
        result, kept = run(variant)
        if isinstance(reference, str):
            assert result == reference
            continue
        assert diff_results(result, reference) == []
        assert kept == cached
        json.dumps(result_to_dict(result))


@st.composite
def fault_plans(draw):
    """Any plan: loss, retries, delay, downtime windows, cache crashes."""
    instants = st.floats(min_value=0.0, max_value=FAULT_DURATION)
    windows = draw(st.lists(
        st.tuples(instants, st.floats(min_value=60.0, max_value=2 * DAY)),
        max_size=2,
    ))
    return FaultPlan(
        loss_rate=draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
        retries=draw(st.integers(min_value=0, max_value=3)),
        backoff=draw(st.floats(min_value=60.0, max_value=DAY)),
        delay=draw(st.sampled_from([0.0, 30.0, hours(5)])),
        downtime=tuple(DowntimeWindow(a, length) for a, length in windows),
        cache_crashes=tuple(draw(st.lists(instants, max_size=3))),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
    )


def _crash_at_a_request():
    """A crash at a request's own instant, and at the notices' of a
    modification then: it wipes the copies after the notices and before
    the request."""
    histories = [ObjectHistory(
        WebObject(oid, size=100, file_type="html", created=-DAY),
        ModificationSchedule(-DAY, [10.0])) for oid in ("/a", "/b")]
    requests = [(5.0, "/a"), (10.0, "/a"), (10.0, "/b"), (30.0, "/a")]
    return (histories, requests), FaultPlan(cache_crashes=(10.0,))


def _an_older_notice_after_a_newer():
    """/a's first notice (100 s) is lost and its retry delivered at 600 s,
    after the second's (200 s) and the refetch at 300 s that reflects
    both: the generation guard ignores it."""
    histories = [ObjectHistory(
        WebObject("/a", size=100, file_type="html", created=-DAY),
        ModificationSchedule(-DAY, [100.0, 200.0]))]
    requests = [(t, "/a") for t in (50.0, 150.0, 300.0, 700.0)]
    return (histories, requests), FaultPlan(
        loss_rate=0.5, retries=1, backoff=500.0, seed=18)


def _modified_twice_at_once():
    """/a changes twice at 10 s, as /b does once; the notices, delayed,
    reach copies fetched at 10 s that already reflect both."""
    histories = [
        ObjectHistory(WebObject("/a", size=100, file_type="html", created=-DAY),
                      ModificationSchedule(-DAY, [10.0, 10.0, 20.0])),
        ObjectHistory(WebObject("/b", size=100, file_type="html", created=-DAY),
                      ModificationSchedule(-DAY, [10.0]))]
    requests = [(t, oid) for t in (5.0, 10.0, 15.0, 45.0) for oid in ("/a", "/b")]
    return (histories, requests), FaultPlan(delay=30.0)


def _crashes_between_notices():
    """Crashes in the middle of /a's gaps, between notices sent before and
    after them (lost, retried, delayed); one before the notices to /idle,
    which no request names, and one after /b's, first requested past it,
    and the never cacheable /dyn's: the charges a crash cuts off, and a
    first gap's."""
    histories = [
        ObjectHistory(WebObject(oid, size=100, file_type="html", created=-DAY,
                                cacheable=oid != "/dyn"),
                      ModificationSchedule(-DAY, changes))
        for oid, changes in (("/a", [10.0, 20.0, 40.0, 70.0]),
                             ("/idle", [15.0, 55.0, 80.0]), ("/b", [2.0]),
                             ("/dyn", [3.0]))]
    requests = [(5.0, "/a"), (25.0, "/a"), (35.0, "/a"), (40.0, "/b"),
                (60.0, "/a")]
    return (histories, requests), FaultPlan(
        cache_crashes=(12.0, 30.0, 50.0), delay=5.0, loss_rate=0.5,
        retries=1, backoff=20.0, seed=7)


def _fault_example(case, make_protocol=InvalidationProtocol, **config):
    workload, plan = case
    return example(**{**dict(
        workload=workload, make_protocol=make_protocol, plan=plan,
        mode=SimulatorMode.OPTIMIZED, per_modification=False, preload=True,
        start_time=0.0, end_time=None), **config})


@settings(max_examples=150, deadline=None)
@given(
    workload=hit_run_workloads(objects=6),
    make_protocol=st.sampled_from([
        InvalidationProtocol, lambda: LeasedInvalidationProtocol(GRID_TTL),
        lambda: ListeningTTL(GRID_TTL), lambda: TTLProtocol(GRID_TTL)]),
    plan=fault_plans(),
    mode=st.sampled_from(list(SimulatorMode)),
    per_modification=st.booleans(),
    preload=st.booleans(),
    start_time=st.sampled_from([0.0, GRID_TTL / 4]),
    end_time=st.sampled_from([None, 1e9 + 1]),
)
@_fault_example(_crash_at_a_request())
@_fault_example(_crash_at_a_request(), lambda: TTLProtocol(GRID_TTL))
@_fault_example(_an_older_notice_after_a_newer())
@_fault_example(_modified_twice_at_once())
# The charges a crash cuts off, under both charging policies, counted once
# per stream and plan; with and without a preload, up to the last request
# and past it.
@_fault_example(_crash_at_a_request(), per_modification=True)
@_fault_example(_crashes_between_notices())
@_fault_example(_crashes_between_notices(), per_modification=True)
@_fault_example(_crashes_between_notices(), per_modification=True,
                end_time=1e9 + 1)
@_fault_example(_crashes_between_notices(), per_modification=True,
                preload=False)
@_fault_example(_crashes_between_notices(), lambda: ListeningTTL(GRID_TTL),
                per_modification=True, end_time=1e9 + 1)
# Without §4.1 charging the sends and flips are folded from each row's
# validity and flip after the loop, the flush's rows included.
@_fault_example(_crashes_between_notices(), end_time=1e9 + 1)
@_fault_example(_crashes_between_notices(), preload=False, end_time=1e9 + 1)
@_fault_example(_an_older_notice_after_a_newer(), mode=SimulatorMode.BASE,
                end_time=1e9 + 1)
def test_faults_by_lane_change_no_byte(
    workload, make_protocol, plan, mode, per_modification, preload,
    start_time, end_time,
):
    """A run under a fault plan steps its objects in lockstep, applying
    each lane's actions between its requests; it, the per-request
    delivering variant and the reference agree, crashes, losses, retries,
    delays and downtime included."""
    histories, requests = workload
    server = OriginServer(histories)
    requests = [(t, oid) for t, oid in requests if t >= start_time]
    protocol = make_protocol()
    reference = Simulation(
        server, make_protocol(), mode, preload=preload, start_time=start_time,
        charge_per_modification=per_modification, faults=plan,
    ).run(requests, end_time=end_time)
    schedule = compile_schedule(server, plan, start_time,
                                protocol.wants_invalidations)
    kind = compile_protocol(protocol)[0]
    stepping, walking = kind(False, True, False, True), kind(False, True, False)
    assert stepping.__code__.co_filename.endswith(", delivering, stepping>")
    assert walking.__code__.co_filename.endswith(", delivering>")
    for variant in (stepping, walking):
        result = run_variant(variant, server, make_protocol(), requests, mode,
                             preload, start_time, end_time, per_modification,
                             schedule)
        assert diff_results(result, reference) == []
        json.dumps(result_to_dict(result))


@settings(max_examples=120, deadline=None)
@given(
    workload=small_workloads(),
    make_protocol=st.one_of(
        feed_protocols(), st.just(lambda: StampedInvalidation(hours(6)))
    ),
    plan=st.one_of(st.none(), fault_plans()),
    mode=st.sampled_from(list(SimulatorMode)),
    per_modification=st.booleans(),
    preload=st.booleans(),
)
def test_delivery_schedule_is_event_for_event_identical(
    workload, make_protocol, plan, mode, per_modification, preload
):
    histories, requests = workload
    server = OriginServer(histories)
    ref_events: list = []
    with obs_registry.installed(obs_registry.MetricsRegistry()) as ref_metrics:
        reference = Simulation(
            server,
            make_protocol(),
            mode,
            preload=preload,
            charge_per_modification=per_modification,
            observer=lambda kind, t, oid: ref_events.append((kind, t, oid)),
            faults=plan,
        ).run(requests, end_time=FAULT_DURATION)
    fast_events: list = []
    with obs_registry.installed(obs_registry.MetricsRegistry()) as fast_metrics:
        fast = fast_simulate(
            server,
            make_protocol(),
            requests,
            mode,
            preload=preload,
            charge_per_modification=per_modification,
            end_time=FAULT_DURATION,
            faults=plan,
            observer=lambda kind, t, oid: fast_events.append((kind, t, oid)),
        )
    with obs_registry.installed(obs_registry.MetricsRegistry()) as metrics:
        unobserved = fast_simulate(
            server, make_protocol(), requests, mode, preload=preload,
            charge_per_modification=per_modification,
            end_time=FAULT_DURATION, faults=plan,
        )
    assert diff_results(fast, reference) == []
    assert fast_events == ref_events
    assert diff_metrics(fast_metrics.as_dict(), ref_metrics.as_dict()) == []
    assert diff_results(unobserved, fast, **UNOBSERVED) == []
    assert diff_metrics(metrics.as_dict(), fast_metrics.as_dict()) == []


@settings(max_examples=80, deadline=None)
@given(
    plan=fault_plans(),
    feed_times=st.lists(
        st.floats(min_value=1.0, max_value=FAULT_DURATION),
        max_size=30, unique=True,
    ),
    start_time=st.sampled_from([0.0, 0.25 * FAULT_DURATION]),
)
def test_columns_are_the_rows_compile_returns(plan, feed_times, start_time):
    times = sorted(feed_times)
    ids = [f"/o{i % 5}" for i in range(len(times))]
    rows = plan.compile(tuple(zip(times, ids)), start_time=start_time)
    by_id = plan.columns(times, ids, "", start_time)
    assert rows == tuple(map(
        FaultAction, by_id.times, by_id.kinds, by_id.keys,
        by_id.mod_times, by_id.attempts,
    ))
    # Generic over the key: the same schedule by feed position, the loss
    # draws still keyed by a modification's index in the *full* feed.
    by_index = plan.columns(times, list(range(len(times))), -1, start_time)
    assert (by_index.times, by_index.kinds, by_index.mod_times,
            by_index.attempts) == (by_id.times, by_id.kinds,
                                   by_id.mod_times, by_id.attempts)
    assert [ids[k] if k >= 0 else "" for k in by_index.keys] == list(
        by_id.keys)
    # A later start trims the schedule, it does not re-key the draws.
    whole = plan.compile(tuple(zip(times, ids)))
    assert rows == tuple(a for a in whole if a.mod_time > start_time)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_skipping_walk_on_the_campus_sweeps(seed):
    """Every TTL and Alex grid point of the paper's sweeps, on the three
    campus streams: the skipping variant, the walking one and the
    reference agree to the last bit."""
    factories = [lambda h=h: TTLProtocol(hours(h)) for h in TTL_HOURS] + [
        lambda p=p: AlexProtocol.from_percent(p) for p in ALEX_THRESHOLDS_PERCENT]
    for workload in build_campus_workloads(seed=seed, request_scale=0.1).values():
        server = workload.server()
        for make in factories:
            reference = Simulation(server, make(), SimulatorMode.OPTIMIZED).run(
                workload.requests, end_time=workload.duration)
            kernel = compile_protocol(make())[0]
            for skips in (True, False):
                run = run_variant(kernel(False, False, skips), server, make(),
                                  workload.requests, SimulatorMode.OPTIMIZED,
                                  True, 0.0, workload.duration)
                assert diff_results(run, reference) == [], (make().name, skips)
