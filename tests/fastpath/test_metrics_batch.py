"""Batched fastpath metrics: flushed totals byte-equal to reference.

PR 6 made the fast engine step aside whenever a metrics registry or
trace sink was active.  The kernel now tallies the same publications in
flat locals and flushes them once per run through the registry's exact
Shewchuk merge path, so with observability on the fast engine must (a)
actually run — zero ``engine.fastpath_fallbacks`` — and (b) leave the
registry byte-identical to one the reference loop filled observation by
observation (``contract.diff_metrics``; the docs/FASTPATH.md
metrics-equivalence rule).
"""

from __future__ import annotations

import json

import pytest

from repro.core.simulator import Simulation, SimulatorMode
from repro.fastpath import diff_metrics, engine_simulate, fast_simulate
from repro.fastpath.contract import ENGINE_METRIC_PREFIXES
from repro.obs import registry as obs_registry
from repro.obs import trace as obs_trace

from .test_identity import EAGER_PROTOCOLS, PLANS, PROTOCOLS


def _reference_dump(workload, make_protocol, mode, *, charge, preload,
                    faults=None):
    registry = obs_registry.MetricsRegistry()
    with obs_registry.installed(registry):
        Simulation(
            workload.server(),
            make_protocol(),
            mode,
            preload=preload,
            charge_per_modification=charge,
            faults=faults,
        ).run(workload.requests, end_time=workload.duration)
    return registry.as_dict()


def _fast_dump(workload, make_protocol, mode, *, charge, preload,
               faults=None):
    registry = obs_registry.MetricsRegistry()
    with obs_registry.installed(registry):
        fast_simulate(
            workload.server(),
            make_protocol(),
            workload.requests,
            mode,
            preload=preload,
            charge_per_modification=charge,
            end_time=workload.duration,
            faults=faults,
        )
    return registry.as_dict()


class TestFlushedTotalsByteEqual:
    @pytest.mark.parametrize(
        "name,make_protocol", PROTOCOLS, ids=[n for n, _ in PROTOCOLS]
    )
    @pytest.mark.parametrize("mode", list(SimulatorMode),
                             ids=[m.value for m in SimulatorMode])
    @pytest.mark.parametrize("charge", [True, False],
                             ids=["per-mod", "per-inval"])
    def test_registry_dump_identical(
        self, workload, name, make_protocol, mode, charge
    ):
        fast = _fast_dump(
            workload, make_protocol, mode, charge=charge, preload=True
        )
        reference = _reference_dump(
            workload, make_protocol, mode, charge=charge, preload=True
        )
        assert diff_metrics(fast, reference) == []
        # Literal byte equality of the serialized dumps, engine
        # bookkeeping aside — what diff_metrics promises, restated raw.
        strip = ENGINE_METRIC_PREFIXES
        for dump in (fast, reference):
            dump["counters"] = {
                k: v for k, v in dump["counters"].items()
                if not k.startswith(strip)
            }
        assert json.dumps(fast, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    @pytest.mark.parametrize(
        "name,make_protocol", PROTOCOLS, ids=[n for n, _ in PROTOCOLS]
    )
    def test_registry_dump_identical_cold_cache(
        self, workload, name, make_protocol
    ):
        fast = _fast_dump(
            workload, make_protocol, SimulatorMode.OPTIMIZED,
            charge=True, preload=False,
        )
        reference = _reference_dump(
            workload, make_protocol, SimulatorMode.OPTIMIZED,
            charge=True, preload=False,
        )
        assert diff_metrics(fast, reference) == []


class TestMixedPopulationTotalsByteEqual:
    """The registry-active leg over ``mixed_workload`` (Expires headers,
    dynamic content): the refresh-window and transfer-bytes tallies of
    the kernel's one store tail, on every way of reaching it."""

    @pytest.mark.parametrize(
        "name,make_protocol", PROTOCOLS, ids=[n for n, _ in PROTOCOLS]
    )
    @pytest.mark.parametrize("mode", list(SimulatorMode),
                             ids=[m.value for m in SimulatorMode])
    @pytest.mark.parametrize("charge", [True, False],
                             ids=["per-mod", "per-inval"])
    @pytest.mark.parametrize("preload", [True, False],
                             ids=["preload", "cold"])
    def test_registry_dump_identical(
        self, mixed_workload, name, make_protocol, mode, charge, preload
    ):
        fast = _fast_dump(
            mixed_workload, make_protocol, mode,
            charge=charge, preload=preload,
        )
        reference = _reference_dump(
            mixed_workload, make_protocol, mode,
            charge=charge, preload=preload,
        )
        assert diff_metrics(fast, reference) == []
        # Not vacuous: the tail's tallies did land.
        assert fast["counters"]["sim.event.dynamic_fetch"] > 0
        assert "sim.transfer_bytes" in fast["histograms"]
        observes_window = name.startswith(("ttl", "expires", "alex"))
        assert (
            "protocol.refresh_window_seconds" in fast["histograms"]
        ) == observes_window


class TestDeliveryScheduleTotalsByteEqual:
    """The registry-active leg under fault plans and eager pushes: the
    action cursor's tallies (``cache.crash_drops``, the ``fault_*`` and
    ``prefetch`` event counters, the pushes inside ``cache.stores`` /
    ``server.gets``) and the plan's own ``faults.*`` schedule counts."""

    @pytest.mark.parametrize(
        "name,make_protocol", PROTOCOLS + EAGER_PROTOCOLS,
        ids=[n for n, _ in PROTOCOLS + EAGER_PROTOCOLS],
    )
    @pytest.mark.parametrize("charge", [True, False],
                             ids=["per-mod", "per-inval"])
    @pytest.mark.parametrize("preload", [True, False],
                             ids=["preload", "cold"])
    @pytest.mark.parametrize("plan_name,plan", PLANS,
                             ids=[n for n, _ in PLANS])
    def test_registry_dump_identical(
        self, workload, name, make_protocol, charge, preload, plan_name, plan
    ):
        fast = _fast_dump(
            workload, make_protocol, SimulatorMode.OPTIMIZED,
            charge=charge, preload=preload, faults=plan,
        )
        reference = _reference_dump(
            workload, make_protocol, SimulatorMode.OPTIMIZED,
            charge=charge, preload=preload, faults=plan,
        )
        assert diff_metrics(fast, reference) == []

    def test_the_delivery_tallies_did_land(self, workload):
        """Not vacuous: under the combined plan an eager run publishes
        every delivery-side name the cursor owns."""
        _, eager = EAGER_PROTOCOLS[0]
        counters = _fast_dump(
            workload, eager, SimulatorMode.OPTIMIZED,
            charge=True, preload=True, faults=dict(PLANS)["combined"],
        )["counters"]
        for name in (
            "cache.crash_drops", "cache.invalidated",
            "sim.event.prefetch", "sim.event.fault_cache_crash",
            "sim.event.fault_invalidation_lost",
            "sim.event.fault_invalidation_dropped",
            "sim.event.fault_invalidation_recovered",
            "faults.attempts", "faults.lost", "faults.dropped",
            "faults.delivered", "faults.crashes",
        ):
            assert counters[name] > 0, name
        assert counters["sim.event.fault_cache_crash"] == 2.0


class TestDispatchStaysFast:
    @pytest.mark.parametrize(
        "name,make_protocol", PROTOCOLS + EAGER_PROTOCOLS,
        ids=[n for n, _ in PROTOCOLS + EAGER_PROTOCOLS],
    )
    def test_no_fallback_with_registry_active(
        self, workload, name, make_protocol
    ):
        from repro.fastpath import set_engine

        set_engine("fast")
        registry = obs_registry.MetricsRegistry()
        with obs_registry.installed(registry):
            engine_simulate(
                workload.server(), make_protocol(), workload.requests,
                end_time=workload.duration,
            )
        assert registry.counter("engine.fastpath_fallbacks").value == 0.0
        assert registry.counter("engine.fastpath_runs").value == 1.0

    def test_no_fallback_with_sink_active(self, workload):
        from repro.core.clock import hours
        from repro.core.protocols import TTLProtocol
        from repro.fastpath import set_engine

        set_engine("fast")
        registry = obs_registry.MetricsRegistry()
        sink = obs_trace.TraceSink()
        with obs_registry.installed(registry), obs_trace.installed(sink):
            engine_simulate(
                workload.server(), TTLProtocol(hours(24)),
                workload.requests, end_time=workload.duration,
            )
        assert registry.counter("engine.fastpath_fallbacks").value == 0.0
        assert sink.events()  # the kernel's stream reached the sink


class TestSinkTee:
    def test_sink_event_stream_matches_reference(self, workload):
        from repro.core.clock import hours
        from repro.core.protocols import TTLProtocol

        ref_sink = obs_trace.TraceSink()
        with obs_trace.installed(ref_sink):
            Simulation(
                workload.server(), TTLProtocol(hours(24)),
            ).run(workload.requests, end_time=workload.duration)
        fast_sink = obs_trace.TraceSink()
        with obs_trace.installed(fast_sink):
            fast_simulate(
                workload.server(), TTLProtocol(hours(24)),
                workload.requests, end_time=workload.duration,
            )
        assert fast_sink.events() == ref_sink.events()

    def test_forwards_to_user_observer(self, workload):
        from repro.core.clock import hours
        from repro.core.protocols import TTLProtocol

        sink = obs_trace.TraceSink()
        seen: list = []
        with obs_trace.installed(sink):
            fast_simulate(
                workload.server(), TTLProtocol(hours(24)),
                workload.requests, end_time=workload.duration,
                observer=lambda kind, t, oid: seen.append((kind, t, oid)),
            )
        assert [(r["kind"], r["t"], r["id"]) for r in sink.events()] == seen


class TestOracleMetricsClause:
    def test_verify_simulation_checks_metrics(self, changing_server):
        from repro.core.clock import days, hours
        from repro.core.protocols import TTLProtocol
        from repro.verify import verify_simulation

        requests = [(days(0.5), "/hot"), (days(1.5), "/hot"),
                    (days(2.5), "/warm")]
        _, report = verify_simulation(
            changing_server, TTLProtocol(hours(6)), requests,
            end_time=days(3.0),
        )
        assert report.ok

    def test_diff_metrics_reports_divergence(self):
        a = {"counters": {"cache.stores": 3.0}, "gauges": {},
             "histograms": {}}
        b = {"counters": {"cache.stores": 4.0}, "gauges": {},
             "histograms": {}}
        lines = diff_metrics(a, b)
        assert lines and "cache.stores" in lines[0]

    def test_diff_metrics_ignores_engine_bookkeeping(self):
        a = {"counters": {"engine.fastpath_runs": 1.0,
                          "fastpath.metrics_flush": 1.0},
             "gauges": {}, "histograms": {}}
        b = {"counters": {}, "gauges": {}, "histograms": {}}
        assert diff_metrics(a, b) == []
