"""Byte-identity of the fast path against the reference simulator.

The contract (docs/FASTPATH.md): for every supported configuration the
fast engine must reproduce the reference's output *exactly* — all 13
counters, all 15 bandwidth-ledger cells, the observer event stream
event-for-event, the duration, and even error types and messages.  No
tolerance anywhere: these tests compare with ``==``, floats included.
"""

from __future__ import annotations

import pytest

from repro.core.clock import days, hours
from repro.core.protocols import (
    AlexProtocol,
    CERNPolicyProtocol,
    ExpiresTTLProtocol,
    InvalidationProtocol,
    LeasedInvalidationProtocol,
    PollEveryRequestProtocol,
    TTLProtocol,
)
from repro.core.server import UnknownObjectError
from repro.core.simulator import Simulation, SimulatorMode, simulate
from repro.fastpath import diff_events, diff_results, fast_simulate
from repro.faults import DowntimeWindow, FaultPlan
from repro.workload.base import Workload
from tests.conftest import make_history

PROTOCOLS = [
    ("ttl-0", lambda: TTLProtocol(0.0)),
    ("ttl-24h", lambda: TTLProtocol(hours(24))),
    ("expires-ttl-24h", lambda: ExpiresTTLProtocol(hours(24))),
    ("alex-0", lambda: AlexProtocol.from_percent(0)),
    ("alex-10", lambda: AlexProtocol.from_percent(10)),
    ("poll", lambda: PollEveryRequestProtocol()),
    ("invalidation", lambda: InvalidationProtocol()),
    ("leased-12h", lambda: LeasedInvalidationProtocol(hours(12))),
    ("cern", lambda: CERNPolicyProtocol(0.1, hours(1))),
    ("cern-capped",
     lambda: CERNPolicyProtocol(0.5, hours(1), max_ttl=hours(6))),
]


#: The invalidation family with the pre-optimization push switched on.
EAGER_PROTOCOLS = [
    ("invalidation-eager", lambda: InvalidationProtocol(eager=True)),
    ("leased-12h-eager",
     lambda: LeasedInvalidationProtocol(hours(12), eager=True)),
]

#: One plan per fault the schedule can carry, then all of them at once.
#: Times suit both fixtures: ``mixed_workload`` changes at 5.25 / 24 /
#: 36 / 75 / 100 h, ``workload`` some 560 times over 56 days.
PLANS = [
    ("no-plan", None),
    ("null-plan", FaultPlan(retries=2)),
    ("loss+retries",
     FaultPlan(loss_rate=0.4, retries=2, backoff=hours(2), seed=5)),
    ("delay", FaultPlan(delay=hours(3))),
    ("downtime",
     FaultPlan(downtime=(DowntimeWindow(hours(20), hours(20)),), retries=1,
               backoff=hours(1))),
    ("crashes", FaultPlan(cache_crashes=(hours(30), hours(90)))),
    ("combined",
     FaultPlan(loss_rate=0.4, retries=2, backoff=hours(2), seed=5,
               delay=hours(3),
               downtime=(DowntimeWindow(hours(20), hours(20)),),
               cache_crashes=(hours(30), hours(90)))),
]


def run_both(workload, make_protocol, mode, *, charge, preload, faults=None,
             kinds=None):
    """One run on each engine, with event recording; returns the diff.

    ``kinds``, when given, collects the event kinds the fast run emitted.
    """
    server = workload.server()
    requests = workload.requests
    ref_events: list = []
    reference = Simulation(
        server,
        make_protocol(),
        mode,
        preload=preload,
        charge_per_modification=charge,
        observer=lambda kind, t, oid: ref_events.append((kind, t, oid)),
        faults=faults,
    ).run(requests, end_time=workload.duration)
    fast_events: list = []
    fast = fast_simulate(
        server,
        make_protocol(),
        requests,
        mode,
        preload=preload,
        charge_per_modification=charge,
        end_time=workload.duration,
        faults=faults,
        observer=lambda kind, t, oid: fast_events.append((kind, t, oid)),
    )
    if kinds is not None:
        kinds.update(kind for kind, _, _ in fast_events)
    return (
        diff_results(fast, reference)
        + diff_events(fast_events, ref_events)
    )


class TestCrossProduct:
    @pytest.mark.parametrize(
        "name,make_protocol", PROTOCOLS, ids=[n for n, _ in PROTOCOLS]
    )
    @pytest.mark.parametrize("mode", list(SimulatorMode),
                             ids=[m.value for m in SimulatorMode])
    @pytest.mark.parametrize("charge", [True, False],
                             ids=["per-mod", "per-inval"])
    def test_identical_with_preload(
        self, workload, name, make_protocol, mode, charge
    ):
        assert run_both(
            workload, make_protocol, mode, charge=charge, preload=True
        ) == []

    @pytest.mark.parametrize(
        "name,make_protocol", PROTOCOLS, ids=[n for n, _ in PROTOCOLS]
    )
    def test_identical_cold_cache(self, workload, name, make_protocol):
        assert run_both(
            workload, make_protocol, SimulatorMode.OPTIMIZED,
            charge=True, preload=False,
        ) == []

    def test_identical_nonzero_start_time(self, changing_server):
        from repro.core.clock import days

        requests = [
            (days(1.25), "/hot"), (days(2.5), "/hot"), (days(2.5), "/warm"),
            (days(4.0), "/cold"), (days(11.0), "/warm"),
        ]
        ref_events: list = []
        reference = Simulation(
            changing_server, TTLProtocol(hours(12)), SimulatorMode.OPTIMIZED,
            start_time=days(1.0),
            observer=lambda *e: ref_events.append(e),
        ).run(requests, end_time=days(12.0))
        fast_events: list = []
        fast = fast_simulate(
            changing_server, TTLProtocol(hours(12)), requests,
            start_time=days(1.0), end_time=days(12.0),
            observer=lambda *e: fast_events.append(e),
        )
        assert diff_results(fast, reference) == []
        assert fast_events == ref_events


def reachable_kinds(name, mode, preload):
    """The event kinds a supported configuration can emit at all."""
    never_fresh = name in ("ttl-0", "alex-0", "poll")
    feed = name in ("invalidation", "leased-12h")
    kinds = {"dynamic_fetch"}
    if not never_fresh:
        kinds.add("hit")
        # A callback invalidates the copy before the next request
        # sees it: feed protocols never serve stale data.
        kinds.add("invalidation" if feed else "stale_hit")
    if mode is SimulatorMode.BASE or not preload:
        kinds.add("miss")  # base refetch, or a cold cache
    if mode is SimulatorMode.OPTIMIZED:
        kinds.add("validation_200")
        if name != "invalidation":  # invalid there means changed
            kinds.add("validation_304")
    return kinds


class TestMixedPopulation:
    """The same cross-product over ``mixed_workload``: Expires headers,
    dynamic content, a change between two requests and none at all —
    every arm of the kernel's store tail, deterministically."""

    @pytest.mark.parametrize(
        "name,make_protocol", PROTOCOLS, ids=[n for n, _ in PROTOCOLS]
    )
    @pytest.mark.parametrize("mode", list(SimulatorMode),
                             ids=[m.value for m in SimulatorMode])
    @pytest.mark.parametrize("charge", [True, False],
                             ids=["per-mod", "per-inval"])
    @pytest.mark.parametrize("preload", [True, False],
                             ids=["preload", "cold"])
    def test_identical(
        self, mixed_workload, name, make_protocol, mode, charge, preload
    ):
        assert run_both(
            mixed_workload, make_protocol, mode,
            charge=charge, preload=preload,
        ) == []

    def test_every_reachable_event_kind_is_observed(self, mixed_workload):
        """Alphabet coverage: the population is not identical by being
        idle — each configuration emits exactly the kinds it can."""
        seen_anywhere = set()
        for name, make_protocol in PROTOCOLS:
            for mode in SimulatorMode:
                for preload in (True, False):
                    kinds = set()
                    fast_simulate(
                        mixed_workload.server(), make_protocol(),
                        mixed_workload.requests, mode, preload=preload,
                        end_time=mixed_workload.duration,
                        observer=lambda kind, t, oid: kinds.add(kind),
                    )
                    assert kinds == reachable_kinds(name, mode, preload), (
                        name, mode, preload
                    )
                    seen_anywhere |= kinds
        assert seen_anywhere == {
            "hit", "stale_hit", "miss", "validation_304", "validation_200",
            "invalidation", "dynamic_fetch",
        }

    def test_expires_header_decides_the_outcome(self, mixed_workload):
        """The ``server_expires`` arms are live: honouring the 6 h
        Expires changes what happens to ``/expires`` and nothing else."""
        def events(protocol):
            stream = []
            fast_simulate(
                mixed_workload.server(), protocol, mixed_workload.requests,
                end_time=mixed_workload.duration,
                observer=lambda *event: stream.append(event),
            )
            return stream

        plain = events(TTLProtocol(hours(24)))
        honouring = events(ExpiresTTLProtocol(hours(24)))
        assert plain != honouring
        assert {oid for a, b in zip(plain, honouring) if a != b
                for oid in (a[2], b[2])} == {"/expires"}


class TestDeliverySchedule:
    """Fault plans and eager pushes on the kernel's one action cursor:
    every protocol x mode x §4.1 charging x preload x plan, identical to
    the reference result-for-result and event-for-event."""

    @pytest.mark.parametrize(
        "name,make_protocol", PROTOCOLS + EAGER_PROTOCOLS,
        ids=[n for n, _ in PROTOCOLS + EAGER_PROTOCOLS],
    )
    @pytest.mark.parametrize("mode", list(SimulatorMode),
                             ids=[m.value for m in SimulatorMode])
    @pytest.mark.parametrize("charge", [True, False],
                             ids=["per-mod", "per-inval"])
    @pytest.mark.parametrize("preload", [True, False],
                             ids=["preload", "cold"])
    @pytest.mark.parametrize("plan_name,plan", PLANS,
                             ids=[n for n, _ in PLANS])
    def test_identical_on_the_mixed_population(
        self, mixed_workload, name, make_protocol, mode, charge, preload,
        plan_name, plan,
    ):
        assert run_both(
            mixed_workload, make_protocol, mode,
            charge=charge, preload=preload, faults=plan,
        ) == []

    @pytest.mark.parametrize("plan_name,plan", PLANS,
                             ids=[n for n, _ in PLANS])
    @pytest.mark.parametrize("charge", [True, False],
                             ids=["per-mod", "per-inval"])
    def test_identical_on_the_worrell_stream(
        self, workload, plan_name, plan, charge
    ):
        """560 modifications against 3000 requests: retries land between
        other objects' deliveries, crashes wipe a warm cache."""
        for _, make_protocol in PROTOCOLS + EAGER_PROTOCOLS:
            assert run_both(
                workload, make_protocol, SimulatorMode.OPTIMIZED,
                charge=charge, preload=True, faults=plan,
            ) == []

    def test_every_delivery_event_kind_is_observed(self, workload):
        """Not identical by being idle: lost, dropped, recovered, crash
        and prefetch are each reached, and only where they can be."""
        def kinds_of(make_protocol, plan):
            kinds: set = set()
            assert run_both(
                workload, make_protocol, SimulatorMode.OPTIMIZED,
                charge=True, preload=True, faults=plan, kinds=kinds,
            ) == []
            return kinds

        plans = dict(PLANS)
        plain, eager = InvalidationProtocol, EAGER_PROTOCOLS[0][1]
        fault_kinds = {
            "fault_invalidation_lost", "fault_invalidation_dropped",
            "fault_invalidation_recovered", "fault_cache_crash",
        }
        assert not (kinds_of(plain, None) | kinds_of(plain, plans["null-plan"])
                    ) & (fault_kinds | {"prefetch"})
        assert kinds_of(plain, plans["loss+retries"]) & fault_kinds == {
            "fault_invalidation_lost", "fault_invalidation_dropped",
            "fault_invalidation_recovered",
        }
        assert kinds_of(plain, plans["downtime"]) & fault_kinds == {
            "fault_invalidation_dropped"}
        assert kinds_of(plain, plans["crashes"]) & fault_kinds == {
            "fault_cache_crash"}
        assert kinds_of(plain, plans["combined"]) >= fault_kinds
        assert "prefetch" in kinds_of(eager, None)
        assert kinds_of(eager, plans["combined"]) >= fault_kinds | {"prefetch"}

    @pytest.mark.parametrize(
        "name,make_protocol", PROTOCOLS + EAGER_PROTOCOLS,
        ids=[n for n, _ in PROTOCOLS + EAGER_PROTOCOLS],
    )
    def test_null_plan_is_no_plan_on_the_fast_path(
        self, workload, name, make_protocol
    ):
        def fast(faults):
            events: list = []
            result = fast_simulate(
                workload.server(), make_protocol(), workload.requests,
                end_time=workload.duration, faults=faults,
                observer=lambda *event: events.append(event),
            )
            return result, events

        nulled, nulled_events = fast(FaultPlan(retries=3, seed=9))
        plain, plain_events = fast(None)
        assert diff_results(nulled, plain) == []
        assert nulled_events == plain_events

    @pytest.mark.parametrize("charge", [True, False],
                             ids=["per-mod", "per-inval"])
    def test_delayed_delivery_after_crash_and_refetch_is_superseded(
        self, charge
    ):
        """The generation guard: /g changes at day 1 and its notice is
        12 h in flight; meanwhile the cache crashes and a request
        refetches the *new* copy.  The late notice must not clear it."""
        workload = Workload(
            [make_history("/g", changes=(days(1),))],
            [(days(0.5), "/g"), (days(1.2), "/g"), (days(1.8), "/g")],
            duration=days(2), name="guard",
        )
        plan = FaultPlan(delay=hours(12), cache_crashes=(days(1.1),))
        events: list = []
        assert run_both(
            workload, InvalidationProtocol, SimulatorMode.OPTIMIZED,
            charge=charge, preload=True, faults=plan,
        ) == []
        fast_simulate(
            workload.server(), InvalidationProtocol(), workload.requests,
            end_time=workload.duration, faults=plan,
            charge_per_modification=charge,
            observer=lambda *event: events.append(event),
        )
        # §4.1 per-modification charging still counts the arrival; only
        # the flip is guarded.  Either way the refetched copy stays
        # valid and the last request is a plain hit.
        arrival = [("invalidation", days(1.5), "/g")] if charge else []
        assert events == [
            ("hit", days(0.5), "/g"),
            ("fault_cache_crash", days(1.1), ""),
            ("miss", days(1.2), "/g"),
            *arrival,
            ("hit", days(1.8), "/g"),
        ]

    @pytest.mark.parametrize(
        "name,make_protocol",
        [(n, f) for n, f in PROTOCOLS
         if n in ("ttl-24h", "alex-10", "cern", "cern-capped")],
    )
    def test_crash_only_schedule_under_the_ttl_family(
        self, mixed_workload, name, make_protocol
    ):
        """No callbacks wanted: the plan reduces to its crashes, each
        followed by cold misses whose refetch re-stamps the entry (CERN
        included — the next request inside the new window is a hit)."""
        plan = dict(PLANS)["combined"]
        kinds: set = set()
        assert run_both(
            mixed_workload, make_protocol, SimulatorMode.OPTIMIZED,
            charge=True, preload=True, faults=plan, kinds=kinds,
        ) == []
        assert "fault_cache_crash" in kinds
        assert "miss" in kinds  # unreachable preloaded without a crash
        assert not kinds & {
            "invalidation", "fault_invalidation_lost",
            "fault_invalidation_dropped", "fault_invalidation_recovered",
        }
        events: list = []
        fast_simulate(
            mixed_workload.server(), make_protocol(),
            mixed_workload.requests, end_time=mixed_workload.duration,
            faults=plan, observer=lambda *event: events.append(event),
        )
        # /static: wiped at 30 h, refetched at 30 h sharp (the crash
        # sorts first), served from the re-stamped entry 30 min later.
        after = [e for e in events if e[2] == "/static" and e[1] >= hours(30)]
        assert [kind for kind, _, _ in after[:2]] == ["miss", "hit"]


class TestErrorParity:
    """Same error type, same message, for every rejected input.

    One deliberate asymmetry (documented in docs/FASTPATH.md): the fast
    path validates the whole request stream before simulating, so the
    reference may emit events before raising where the fast path emits
    none.  The exception itself must still match exactly.
    """

    def _exc(self, fn):
        with pytest.raises((ValueError, KeyError)) as info:
            fn()
        return info.value

    def test_out_of_order_requests(self, static_server):
        requests = [(5.0, "/a"), (2.0, "/b")]
        ref = self._exc(lambda: simulate(
            static_server, TTLProtocol(hours(1)), requests))
        fast = self._exc(lambda: fast_simulate(
            static_server, TTLProtocol(hours(1)), requests))
        assert type(fast) is type(ref)
        assert str(fast) == str(ref)

    def test_unknown_object(self, static_server):
        requests = [(1.0, "/a"), (2.0, "/nope")]
        ref = self._exc(lambda: simulate(
            static_server, TTLProtocol(hours(1)), requests))
        fast = self._exc(lambda: fast_simulate(
            static_server, TTLProtocol(hours(1)), requests))
        assert isinstance(ref, UnknownObjectError)
        assert type(fast) is type(ref)
        assert str(fast) == str(ref)

    def test_end_time_before_last_request(self, static_server):
        requests = [(1.0, "/a"), (9.0, "/b")]
        ref = self._exc(lambda: simulate(
            static_server, TTLProtocol(hours(1)), requests, end_time=5.0))
        fast = self._exc(lambda: fast_simulate(
            static_server, TTLProtocol(hours(1)), requests, end_time=5.0))
        assert type(fast) is type(ref)
        assert str(fast) == str(ref)


class TestOracleIntegration:
    """The verify layer's third leg: fastpath cross-check inside the
    oracle, and the engine dispatch inside checked_simulate."""

    def test_verify_simulation_includes_fastpath_leg(self, changing_server):
        from repro.core.clock import days
        from repro.verify import verify_simulation

        requests = [(days(0.5), "/hot"), (days(1.5), "/hot"),
                    (days(2.5), "/warm")]
        _, report = verify_simulation(
            changing_server, AlexProtocol.from_percent(10), requests,
            end_time=days(3.0),
        )
        assert report.ok

    def test_checked_simulate_forced_verify_matches_plain(
        self, changing_server
    ):
        from repro.core.clock import days
        from repro.verify import checked_simulate

        requests = [(days(0.5), "/hot"), (days(1.5), "/hot")]
        checked = checked_simulate(
            changing_server, TTLProtocol(hours(6)), requests,
            end_time=days(2.0), force=True,
        )
        plain = simulate(
            changing_server, TTLProtocol(hours(6)), requests,
            end_time=days(2.0),
        )
        assert diff_results(checked, plain) == []
