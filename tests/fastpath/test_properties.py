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
row, the ``FaultAction`` tuple ``compile`` returns.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import DAY, hours
from repro.core.protocols import (
    AlexProtocol,
    CERNPolicyProtocol,
    ExpiresTTLProtocol,
    InvalidationProtocol,
    LeasedInvalidationProtocol,
    PollEveryRequestProtocol,
    TTLProtocol,
)
from repro.core.server import OriginServer
from repro.core.simulator import Simulation, SimulatorMode
from repro.fastpath import diff_metrics, diff_results, fast_simulate
from repro.faults import DowntimeWindow, FaultAction, FaultPlan
from repro.obs import registry as obs_registry
from tests.faults.test_properties import DURATION as FAULT_DURATION
from tests.faults.test_properties import protocols as feed_protocols
from tests.faults.test_properties import small_workloads
from tests.verify.test_oracle_properties import DURATION, rich_workloads

from .test_specialise import SloppyTTL, SoftTTL, StampedInvalidation


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
            # Known to no file under src/: specialised from the class.
            lambda: SoftTTL(hours(24), 0.25),
            lambda: SloppyTTL(hours(1)),
            lambda: StampedInvalidation(hours(12)),
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
    assert diff_results(fast, reference) == []
    assert fast_events == ref_events


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
    assert diff_results(fast, reference) == []
    assert fast_events == ref_events
    assert diff_metrics(fast_metrics.as_dict(), ref_metrics.as_dict()) == []


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
