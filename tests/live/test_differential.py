"""The live-vs-sim differential: the tentpole acceptance suite.

Every supported consistency protocol, in both simulator modes, is
driven twice over the same workload — once through real asyncio
sockets (:func:`repro.live.driver.run_replay`) and once through
:func:`repro.core.simulator.simulate` — and the two runs must agree on
all thirteen counters, all fifteen bandwidth-ledger cells and the
per-object event multisets *exactly*.

There is one replay path, so there is one differential:
:func:`check_cell` runs a single cell of the option grid, and
``TestOptionMatrix`` runs the whole grid — protocol × pool size ×
keep-alive × socket chaos × invalidation faults × journal — and
``TestCrashAxis`` adds the last axis, a real SIGKILL and journal restart
of the proxy mid-replay.  The named tests here and in
``test_concurrency`` / ``test_chaos`` / ``test_persistence`` are
individual cells of the same grid, kept under the names that document
why the cell matters.

The workload is deliberately adversarial: pre-trace creation times
(negative Last-Modified stamps — the datefmt pre-epoch regression this
PR fixes), an ``Expires``-bearing object, a dynamic (non-cacheable)
object, and modifications interleaved with requests so hits, 304s,
200-revalidations, invalidations, and stale hits all occur.
"""

import asyncio

import pytest

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
from repro.core.server import OriginServer
from repro.core.simulator import SimulatorMode
from repro.faults.plan import FaultPlan
from repro.http.messages import Request
from repro.live import (
    LiveOrigin,
    LiveProxy,
    diff_live_vs_sim,
    live_vs_sim,
    parse_chaos,
    run_replay,
)
from repro.live.wire import (
    CONTROL_PREFIX,
    DATE,
    X_CACHE,
    LiveReplayError,
    exchange,
)
from repro.obs import timeline
from repro.obs import trace as obs_trace
from repro.verify.oracle import ConsistencyViolation


def _histories():
    return [
        ObjectHistory(WebObject("/a", size=1000, created=-5000.0),
                      ModificationSchedule(-5000.0, (40.0, 90.0))),
        ObjectHistory(WebObject("/b", size=2500, created=-100.0,
                                file_type="image"),
                      ModificationSchedule(-100.0, (55.0,))),
        ObjectHistory(
            WebObject("/exp", size=700, created=-300.0, expires_after=30.0),
            ModificationSchedule(-300.0, (65.0,))),
        ObjectHistory(WebObject("/dyn", size=50, created=-10.0,
                                cacheable=False)),
    ]


_REQUESTS = [
    (5.0, "/a"), (10.0, "/b"), (20.0, "/dyn"), (45.0, "/a"),
    (50.0, "/exp"), (60.0, "/b"), (70.0, "/exp"), (95.0, "/a"),
    (100.0, "/dyn"), (110.0, "/b"),
]

#: name -> zero-argument factory; fresh instance per leg (adaptive
#: protocols carry state).
_FACTORIES = {
    "alex": lambda: AlexProtocol.from_percent(10),
    "ttl": lambda: TTLProtocol(30.0),
    "expires": lambda: ExpiresTTLProtocol(25.0),
    "poll": lambda: PollEveryRequestProtocol(),
    "invalidation": lambda: InvalidationProtocol(),
    "invalidation-eager": lambda: InvalidationProtocol(eager=True),
    "leased": lambda: LeasedInvalidationProtocol(40.0),
    "cern": lambda: CERNPolicyProtocol(),
    "selftuning": lambda: SelfTuningProtocol(),
}


#: Socket-level chaos plans (``--chaos`` grammar), by grid label.
_CHAOS = {
    "calm": None,
    "loss": "loss=0.3,seed=7",
    "delay-truncate": "delay=0.005,truncate=0.3,seed=11",
    "reset-dribble": "reset=0.35,dribble=0.4,seed=3",
}

#: Invalidation-message fault plans, by grid label.
_FAULTS = {
    "clean": None,
    "loss-retries": FaultPlan(loss_rate=0.6, retries=2, backoff=3.0, seed=9),
    "cache-crash": FaultPlan(cache_crashes=(60.0,), seed=2),
}


def check_cell(
    name, mode=SimulatorMode.OPTIMIZED, *, chaos="calm", faults="clean",
    journal=None, **options
):
    """One cell of the option grid: replay live, simulate, diff.

    ``chaos`` / ``faults`` are grid labels; ``journal`` is a path or
    None; ``options`` (``connections``, ``keepalive``, ``crash_after``,
    ``trace_path``, ...) pass through to :func:`live_vs_sim`.  Every
    cell — crashed or not — asserts the same thing:
    13 counters, 15 ledger cells, and at least one matched live event
    per request — ordering tolerance must never degrade into
    not-checking.
    """
    spec = _CHAOS[chaos]
    live, sim, report = live_vs_sim(
        OriginServer(_histories()), _FACTORIES[name], _REQUESTS, mode,
        end_time=120.0,
        chaos=parse_chaos(spec) if spec is not None else None,
        faults=_FAULTS[faults], journal_path=journal, **options,
    )
    assert report.ok
    assert report.counters_checked == 13
    assert report.ledger_cells_checked == 15
    assert report.events_checked >= len(_REQUESTS)
    # The differential is only meaningful if the run exercised the
    # machinery at all.
    assert live.counters.requests == len(_REQUESTS)
    assert live.duration == 120.0
    return live, sim, report


class TestOptionMatrix:
    """Every option composes with every other, on every protocol.

    ``connections=1`` without keep-alive is serial replay; faulted
    cells (one key, global send order) run under the pool, under socket
    chaos and with a journal like any other.
    """

    @pytest.mark.parametrize("journal", [False, True],
                             ids=["nojournal", "journal"])
    @pytest.mark.parametrize("faults", sorted(_FAULTS))
    @pytest.mark.parametrize("chaos", ["calm", "loss", "reset-dribble"])
    @pytest.mark.parametrize("keepalive", [False, True],
                             ids=["oneshot", "keepalive"])
    @pytest.mark.parametrize("connections", [1, 3], ids=["c1", "c3"])
    @pytest.mark.parametrize("name", sorted(_FACTORIES))
    def test_cell(
        self, name, connections, keepalive, chaos, faults, journal, tmp_path
    ):
        check_cell(
            name, connections=connections, keepalive=keepalive,
            chaos=chaos, faults=faults,
            journal=tmp_path / "j.jsonl" if journal else None,
        )


class TestCrashAxis:
    """SIGKILL-restart composes like any other option.

    The proxy runs as a child process built from the same arguments,
    is really killed after four completed requests and re-warms from
    its journal; the simulation it must equal never crashes (though it
    does replay the same fault plan).
    """

    @pytest.mark.parametrize("faults", sorted(_FAULTS))
    @pytest.mark.parametrize("name", sorted(_FACTORIES))
    def test_cell(self, name, faults, tmp_path):
        check_cell(
            name, connections=2, keepalive=True, faults=faults,
            journal=tmp_path / "j.jsonl", crash_after=4,
        )

    @pytest.mark.parametrize("faults", sorted(_FAULTS))
    @pytest.mark.parametrize("chaos", ["loss", "reset-dribble"])
    @pytest.mark.parametrize("name", ["invalidation", "selftuning"])
    def test_cell_under_socket_chaos(self, name, chaos, faults, tmp_path):
        check_cell(
            name, connections=2, keepalive=True, chaos=chaos, faults=faults,
            journal=tmp_path / "j.jsonl", crash_after=4,
        )

    def test_serial_one_shot_cell(self, tmp_path):
        check_cell(
            "alex", connections=1, keepalive=False, faults="loss-retries",
            journal=tmp_path / "j.jsonl", crash_after=4,
        )

    def test_traced_cell_has_the_crash_on_its_timeline(self, tmp_path):
        """Both proxy lifetimes land in the one proxy file, the merge
        validates — send ≤ recv and commit ≤ reply across the restart,
        kill ≤ restore — and the run was killed and restored once."""
        base = tmp_path / "TRACE.jsonl"
        check_cell(
            "invalidation", connections=2, keepalive=True, chaos="loss",
            faults="cache-crash", journal=tmp_path / "j.jsonl",
            crash_after=4, trace_path=base,
        )
        merged = timeline.merge(base)
        assert timeline.validate(merged) == []
        crash = [
            (record["proc"], record["kind"])
            for record in merged["records"]
            if record.get("kind") in ("live.trace.kill", "live.trace.restore")
        ]
        assert crash == [
            ("driver", "live.trace.kill"), ("proxy", "live.trace.restore"),
        ]
        summary = timeline.summarize(merged)
        assert summary["exchanges"] == len(_REQUESTS)
        assert summary["retries"] == summary["marks"]["live.trace.retry"] > 0
        proxy_kinds = [
            record.get("kind")
            for record in obs_trace.read_jsonl(
                timeline.role_trace_paths(base)["proxy"]
            )
        ]
        restored = proxy_kinds.index("live.trace.restore")
        assert "live.trace.recv" in proxy_kinds[:restored]
        assert "live.trace.recv" in proxy_kinds[restored:]

    def test_crash_needs_a_journal_and_a_live_stream(self, tmp_path):
        for options in (
            {"crash_after": 4},
            {"crash_after": len(_REQUESTS), "journal_path": tmp_path / "j"},
            {"crash_after": 0, "journal_path": tmp_path / "j"},
        ):
            with pytest.raises(LiveReplayError, match="crash_after"):
                live_vs_sim(
                    OriginServer(_histories()), _FACTORIES["ttl"], _REQUESTS,
                    **options,
                )


class TestAllProtocolsMatchExactly:
    @pytest.mark.parametrize("name", sorted(_FACTORIES))
    @pytest.mark.parametrize("mode", list(SimulatorMode))
    def test_live_equals_sim(self, name, mode):
        check_cell(name, mode)

    def test_default_replay_is_event_checked(self):
        """``live_vs_sim`` with default arguments — one connection, no
        keep-alive — compares per-object event multisets like any other
        replay (it used to report ``events_checked == 0``)."""
        _, _, report = live_vs_sim(
            OriginServer(_histories()), _FACTORIES["ttl"], _REQUESTS,
        )
        assert report.events_checked >= len(_REQUESTS)

    def test_eager_variant_prefetches(self):
        live, _, _ = live_vs_sim(
            OriginServer(_histories()),
            _FACTORIES["invalidation-eager"], _REQUESTS,
            end_time=120.0,
        )
        assert live.counters.prefetches > 0

    def test_weak_protocols_serve_stale_hits(self):
        live, _, _ = live_vs_sim(
            OriginServer(_histories()), _FACTORIES["alex"], _REQUESTS,
            end_time=120.0,
        )
        assert live.counters.stale_hits > 0
        assert live.counters.stale_age_sum > 0.0

    def test_charge_per_flip_policy_also_matches(self):
        check_cell("invalidation", charge_per_modification=False)


class TestDiffMechanics:
    def test_divergence_is_reported_not_swallowed(self):
        live, sim, _ = live_vs_sim(
            OriginServer(_histories()), _FACTORIES["ttl"], _REQUESTS,
            end_time=120.0,
        )
        sim.counters.hits += 1
        sim.bandwidth.charge("full_retrieval", 43, 10)
        lines = diff_live_vs_sim(live, sim)
        assert any("counters.hits" in line and "live=" in line
                   for line in lines)
        assert any("bandwidth." in line for line in lines)

    def test_violation_carries_the_report(self):
        class MiscountingTTL(TTLProtocol):
            """Fresh forever on the live leg only — a seeded bug."""

        def factory():
            factory.calls += 1
            if factory.calls == 1:  # live leg
                return MiscountingTTL(1e9)
            return TTLProtocol(30.0)
        factory.calls = 0

        with pytest.raises(ConsistencyViolation) as excinfo:
            live_vs_sim(
                OriginServer(_histories()), factory, _REQUESTS,
                end_time=120.0,
            )
        assert not excinfo.value.report.ok
        assert excinfo.value.report.divergences


class TestWireExactGate:
    def test_fractional_request_time_is_refused(self):
        with pytest.raises(LiveReplayError, match="whole second"):
            live_vs_sim(
                OriginServer(_histories()), _FACTORIES["ttl"],
                [(1.5, "/a")],
            )

    def test_refusal_is_the_same_with_tracing_on(self, tmp_path):
        """Nothing was recorded yet, and an empty ``TraceSink`` is
        falsy: the teardown must not mistake it for "no sink" and bury
        the refusal under an ``AssertionError``."""
        with pytest.raises(LiveReplayError, match="whole second"):
            asyncio.run(run_replay(
                OriginServer(_histories()), _FACTORIES["ttl"](),
                [(5.5, "/a")], trace_path=tmp_path / "t.jsonl",
            ))

    def test_fractional_modification_time_is_refused(self):
        histories = [
            ObjectHistory(WebObject("/a", size=10, created=-5.0),
                          ModificationSchedule(-5.0, (2.5,))),
        ]
        with pytest.raises(LiveReplayError, match="modification time"):
            live_vs_sim(
                OriginServer(histories), _FACTORIES["ttl"], [(1.0, "/a")],
            )

    def test_unordered_requests_are_refused(self):
        with pytest.raises(LiveReplayError, match="time-ordered"):
            live_vs_sim(
                OriginServer(_histories()), _FACTORIES["ttl"],
                [(10.0, "/a"), (5.0, "/a")],
            )


class TestFaultedDifferential:
    """Injected invalidation-message faults (repro.faults) replayed
    live: the proxy applies the same compiled FaultPlan schedule the
    simulator does, and the runs must still match cell-for-cell —
    including the fault_* events and retry charges."""

    @pytest.mark.parametrize("name", [
        "invalidation", "invalidation-eager", "leased",
    ])
    def test_lossy_retry_plan_matches(self, name):
        _, _, report = check_cell(name, faults="loss-retries")
        # The fault_* events are part of the matched multiset.
        assert report.events_checked > len(_REQUESTS)

    def test_cache_crash_plan_matches(self):
        live, _, _ = check_cell("invalidation", faults="cache-crash")
        # The crash forces refetches the crash-free run never made.
        assert live.counters.full_retrievals > 4

    @pytest.mark.parametrize("chaos", ["calm", "loss"])
    def test_lossy_retry_plan_matches_under_the_pool(self, chaos):
        """The acceptance cell: a faulted replay under a keep-alive
        pool — with and without socket chaos on top — is as exact as a
        serial one."""
        _, _, report = check_cell(
            "invalidation", faults="loss-retries", chaos=chaos,
            connections=3, keepalive=True,
        )
        assert report.events_checked > len(_REQUESTS)

    def test_fractional_fault_delay_is_refused(self):
        with pytest.raises(LiveReplayError, match="whole second"):
            live_vs_sim(
                OriginServer(_histories()), _FACTORIES["invalidation"],
                _REQUESTS, end_time=120.0,
                faults=FaultPlan(delay=0.5, seed=1),
            )


class TestFeedIsReadOnce:
    """The proxy subscribes: one read of the origin's ``feed`` endpoint
    per proxy lifetime, whatever the pool size — the count the origin
    reports in its stats (the two lifetimes of a ``crash_after`` replay
    are counted in ``test_persistence``)."""

    @pytest.mark.parametrize("name,options,reads", [
        ("invalidation", {}, 1),
        ("invalidation", {"connections": 4, "keepalive": True}, 1),
        ("invalidation-eager", {"connections": 4, "keepalive": True}, 1),
        ("invalidation", {"faults": _FAULTS["loss-retries"]}, 1),
        # A plan under a protocol without callbacks compiles an empty
        # feed; nothing is fetched.
        ("ttl", {"faults": _FAULTS["cache-crash"]}, 0),
        ("alex", {"connections": 4, "keepalive": True}, 0),
        ("poll", {}, 0),
    ])
    def test_origin_counts_the_reads(self, name, options, reads):
        sink = obs_trace.TraceSink()
        with obs_trace.installed(sink):
            report = asyncio.run(run_replay(
                OriginServer(_histories()), _FACTORIES[name](), _REQUESTS,
                end_time=120.0, **options,
            ))
        assert report.origin_feed_reads == reads
        # ... and the proxy reports each read as one ambient span.
        spans = [
            record for record in sink.records
            if record["type"] == "span" and record["name"] == "live.feed"
        ]
        assert len(spans) == reads
        assert all(span["meta"] == {"events": 4} for span in spans)

    def test_first_requests_arriving_together_share_one_read(self):
        async def scenario():
            origin = LiveOrigin(OriginServer(_histories()))
            await origin.start()
            proxy = LiveProxy(
                origin.host, origin.port, _FACTORIES["invalidation"](),
            )
            await proxy.start()
            try:
                await proxy.warm(0.0)
                requests = []
                for object_id in ("/a", "/b", "/exp", "/dyn"):
                    request = Request("GET", object_id)
                    request.headers.set_date(DATE, 100.0)
                    requests.append(
                        exchange(proxy.host, proxy.port, request)
                    )
                replies = await asyncio.wait_for(
                    asyncio.gather(*requests), timeout=30.0
                )
                return [r.status for r, _, _ in replies], origin.feed_reads
            finally:
                await proxy.close()
                await origin.close()

        statuses, reads = asyncio.run(scenario())
        assert statuses == [200] * 4
        assert reads == 1


class TestWindowEdges:
    """The ``(cursor, t]`` delivery window, pinned where it now lives —
    in the proxy's walk over the feed it read — on a run that starts
    after time zero: a modification exactly at ``start_time`` is already
    in the warmed copy and must not be delivered, one on a request's own
    second must be delivered *before* that request, and one after the
    last request is delivered by ``finish``, once."""

    START, END = 100.0, 200.0
    REQUESTS = [
        (110.0, "/b"), (120.0, "/a"), (150.0, "/a"), (150.0, "/b"),
        (160.0, "/a"),
    ]
    #: ``/a``'s committed timeline.  The t=130 and t=150 notices arrive
    #: together at the t=150 request; the second finds the copy already
    #: invalid, so charging on transitions only drops it, and an eager
    #: push makes every notice a transition again.
    A_TIMELINE = {
        (False, True): [
            ("hit", 120.0), ("invalidation", 130.0), ("invalidation", 150.0),
            ("validation_200", 150.0), ("hit", 160.0), ("invalidation", 180.0),
        ],
        (False, False): [
            ("hit", 120.0), ("invalidation", 130.0),
            ("validation_200", 150.0), ("hit", 160.0), ("invalidation", 180.0),
        ],
        (True, True): [
            ("hit", 120.0), ("invalidation", 130.0), ("prefetch", 130.0),
            ("invalidation", 150.0), ("prefetch", 150.0), ("hit", 150.0),
            ("hit", 160.0), ("invalidation", 180.0), ("prefetch", 180.0),
        ],
    }
    A_TIMELINE[(True, False)] = A_TIMELINE[(True, True)]

    @staticmethod
    def _server():
        return OriginServer([
            ObjectHistory(
                WebObject("/a", size=1000, created=-50.0),
                ModificationSchedule(-50.0, (100.0, 130.0, 150.0, 180.0))),
            ObjectHistory(WebObject("/b", size=400, created=-50.0),
                          ModificationSchedule(-50.0, (190.0,))),
        ])

    @pytest.mark.parametrize("charge", [True, False],
                             ids=["per-modification", "per-transition"])
    @pytest.mark.parametrize("eager", [False, True], ids=["plain", "eager"])
    @pytest.mark.parametrize("connections", [1, 2], ids=["c1", "c2"])
    def test_edges_match_the_simulator(self, connections, eager, charge):
        live, _, report = live_vs_sim(
            self._server(), lambda: InvalidationProtocol(eager=eager),
            self.REQUESTS, start_time=self.START, end_time=self.END,
            connections=connections, keepalive=connections > 1,
            charge_per_modification=charge,
        )
        assert report.ok and report.events_checked > len(self.REQUESTS)
        timeline = self.A_TIMELINE[(eager, charge)]
        assert live.counters.invalidations_received == 1 + sum(
            kind == "invalidation" for kind, _ in timeline
        )
        # Delivered before the t=150 request, so never served stale.
        assert live.counters.stale_hits == 0

    @pytest.mark.parametrize("charge", [True, False],
                             ids=["per-modification", "per-transition"])
    @pytest.mark.parametrize("eager", [False, True], ids=["plain", "eager"])
    def test_each_edge_where_it_is_delivered(self, eager, charge):
        async def get(proxy, path, t=None):
            request = Request("GET", path)
            if t is not None:
                request.headers.set_date(DATE, t)
            response, _, _ = await exchange(proxy.host, proxy.port, request)
            assert response.status == 200
            return response.headers.get(X_CACHE)

        async def scenario():
            origin = LiveOrigin(self._server())
            await origin.start()
            proxy = LiveProxy(
                origin.host, origin.port, InvalidationProtocol(eager=eager),
                charge_per_modification=charge,
            )
            await proxy.start()
            try:
                await proxy.warm(self.START)
                verdicts = [
                    await get(proxy, object_id, t)
                    for t, object_id in self.REQUESTS
                ]
                await get(proxy, CONTROL_PREFIX + "finish", self.END)
                once = list(proxy.events)
                await get(proxy, CONTROL_PREFIX + "finish", self.END)
                return verdicts, once, list(proxy.events)
            finally:
                await proxy.close()
                await origin.close()

        verdicts, once, twice = asyncio.run(scenario())
        # The t=150 request for /a: a MISS unless the notice pushed the
        # new copy ahead of it.
        assert verdicts == ["HIT", "HIT", "HIT" if eager else "MISS",
                            "HIT", "HIT"]
        assert [
            (kind, t) for kind, t, oid in once if oid == "/a"
        ] == self.A_TIMELINE[(eager, charge)]
        assert ("invalidation", 190.0, "/b") in once
        # A retried finish finds every cursor advanced.
        assert twice == once
