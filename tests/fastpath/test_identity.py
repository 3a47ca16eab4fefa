"""Byte-identity of the fast path against the reference simulator.

The contract (docs/FASTPATH.md): for every supported configuration the
fast engine must reproduce the reference's output *exactly* — all 13
counters, all 15 bandwidth-ledger cells, the observer event stream
event-for-event, the duration, and even error types and messages.  No
tolerance anywhere: these tests compare with ``==``, floats included.
"""

from __future__ import annotations

import pytest

from repro.core.clock import hours
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


def run_both(workload, make_protocol, mode, *, charge, preload):
    """One run on each engine, with event recording; returns the diff."""
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
        observer=lambda kind, t, oid: fast_events.append((kind, t, oid)),
    )
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
