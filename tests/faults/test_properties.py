"""Property tests for the fault layer (hypothesis).

Two universally-quantified claims:

* a **zero-rate plan is inert**: any plan whose knobs inject nothing
  replays byte-identically to the un-instrumented simulator, for any
  workload and any invalidation-family protocol;
* the compiled **schedule is a pure function** of (plan, feed) — same
  seed, same schedule, regardless of where or how often it compiles —
  which is what makes fault runs reproducible across the serial and
  process-pool sweep paths.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import sweep_alex
from repro.core.clock import DAY, hours
from repro.core.objects import ModificationSchedule, ObjectHistory, WebObject
from repro.core.protocols import InvalidationProtocol, LeasedInvalidationProtocol
from repro.core.results import result_to_dict
from repro.core.server import OriginServer
from repro.core.simulator import SimulatorMode, Simulation
from repro.faults import FaultPlan
from repro.verify import set_enabled
from repro.workload.worrell import WorrellWorkload

DURATION = 10 * DAY


@st.composite
def small_workloads(draw):
    """A few objects with random change schedules plus ordered requests."""
    n_files = draw(st.integers(min_value=1, max_value=4))
    histories = []
    for i in range(n_files):
        n_changes = draw(st.integers(min_value=0, max_value=5))
        times = sorted(
            draw(
                st.lists(
                    st.floats(min_value=1.0, max_value=DURATION),
                    min_size=n_changes, max_size=n_changes, unique=True,
                )
            )
        )
        histories.append(
            ObjectHistory(
                WebObject(
                    f"/f{i}",
                    size=draw(st.integers(min_value=100, max_value=20_000)),
                    file_type="html",
                    created=-5 * DAY,
                ),
                ModificationSchedule(-5 * DAY, times),
            )
        )
    n_requests = draw(st.integers(min_value=0, max_value=40))
    raw = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=DURATION),
                st.integers(min_value=0, max_value=n_files - 1),
            ),
            min_size=n_requests, max_size=n_requests,
        )
    )
    requests = sorted((t, histories[i].obj.object_id) for t, i in raw)
    return histories, requests


def protocols():
    return st.sampled_from(
        [
            lambda: InvalidationProtocol(),
            lambda: InvalidationProtocol(eager=True),
            lambda: LeasedInvalidationProtocol(hours(24)),
            lambda: LeasedInvalidationProtocol(hours(6), eager=True),
        ]
    )


def run(histories, requests, protocol, faults):
    events = []
    sim = Simulation(
        OriginServer(histories), protocol, SimulatorMode.OPTIMIZED,
        observer=lambda kind, t, oid: events.append((kind, t, oid)),
        faults=faults,
    )
    result = sim.run(requests, end_time=DURATION)
    return result_to_dict(result), events


class TestZeroRatePlanIsInert:
    @settings(max_examples=40, deadline=None)
    @given(
        workload=small_workloads(),
        make_protocol=protocols(),
        retries=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_byte_identical_to_uninstrumented(
        self, workload, make_protocol, retries, seed
    ):
        histories, requests = workload
        plan = FaultPlan(loss_rate=0.0, retries=retries, seed=seed)
        assert plan.is_null
        base = run(histories, requests, make_protocol(), faults=None)
        nulled = run(histories, requests, make_protocol(), faults=plan)
        assert nulled == base


class TestScheduleIsPure:
    @settings(max_examples=40, deadline=None)
    @given(
        loss=st.floats(min_value=0.0, max_value=1.0),
        retries=st.integers(min_value=0, max_value=3),
        delay=st.floats(min_value=0.0, max_value=3600.0),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        feed_times=st.lists(
            st.floats(min_value=1.0, max_value=DURATION),
            max_size=30, unique=True,
        ),
    )
    def test_same_seed_same_schedule(
        self, loss, retries, delay, seed, feed_times
    ):
        feed = tuple(
            (t, f"/o{i % 5}") for i, t in enumerate(sorted(feed_times))
        )
        plan = FaultPlan(
            loss_rate=loss, retries=retries, delay=delay, seed=seed,
        )
        first = plan.compile(feed)
        again = FaultPlan(
            loss_rate=loss, retries=retries, delay=delay, seed=seed,
        ).compile(feed)
        assert first == again
        assert [a.time for a in first] == sorted(a.time for a in first)


class TestSerialParallelEquivalence:
    def test_faulty_sweep_identical_across_workers_under_verify(self):
        """Same seed ⇒ same schedule ⇒ identical sweeps, serial or
        pooled, with the oracle double-checking every point."""
        workload = WorrellWorkload(files=15, requests=500, seed=3).build()
        plan = FaultPlan(loss_rate=0.4, retries=1, backoff=600.0, seed=7)
        set_enabled(True)
        serial = sweep_alex(
            [workload], SimulatorMode.OPTIMIZED,
            thresholds_percent=(0, 50, 100), workers=1, faults=plan,
        )
        parallel = sweep_alex(
            [workload], SimulatorMode.OPTIMIZED,
            thresholds_percent=(0, 50, 100), workers=3, faults=plan,
        )
        assert serial == parallel
        for a, b in zip(serial.points, parallel.points):
            assert a.metrics == b.metrics  # exact float equality
        assert serial.invalidation == parallel.invalidation
