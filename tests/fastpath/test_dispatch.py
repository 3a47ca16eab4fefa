"""Engine selection, the fallback predicate, and dispatch equality."""

from __future__ import annotations

import os

import pytest

from repro.core.cache import Cache
from repro.core.clock import days, hours
from repro.core.costs import DEFAULT_COSTS
from repro.core.protocols import (
    AlexProtocol,
    CERNPolicyProtocol,
    InvalidationProtocol,
    LeasedInvalidationProtocol,
    SelfTuningProtocol,
    TTLProtocol,
)
from repro.core.simulator import SimulatorMode, simulate
from repro.fastpath import (
    ENGINE_ENV_VAR,
    FAST,
    REFERENCE,
    UnsupportedFastPathError,
    compile_protocol,
    compile_server,
    diff_results,
    encode_requests,
    engine_simulate,
    fast_simulate,
    initial_state,
    resolve_engine,
    set_engine,
    unsupported_reason,
)
from repro.fastpath.arrays import NO_OBJECT, compile_schedule
from repro.fastpath.kernels import run_kernel
from repro.faults import FaultPlan, parse_faults
from repro.obs import registry as obs_registry


class TestResolveEngine:
    def test_default_is_fast(self, monkeypatch):
        set_engine(None)
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert resolve_engine() == FAST

    def test_env_beats_default(self, monkeypatch):
        set_engine(None)
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        assert resolve_engine() == REFERENCE

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        set_engine("fast")
        assert resolve_engine() == FAST

    def test_explicit_beats_override(self):
        set_engine("fast")
        assert resolve_engine("reference") == REFERENCE

    def test_set_engine_mirrors_env_and_returns_previous(self):
        set_engine(None)
        assert set_engine("reference") is None
        assert os.environ[ENGINE_ENV_VAR] == "reference"
        assert set_engine("fast") == "reference"
        set_engine(None)
        assert ENGINE_ENV_VAR not in os.environ

    def test_unknown_names_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("turbo")
        with pytest.raises(ValueError, match="unknown engine"):
            set_engine("turbo")
        set_engine(None)
        monkeypatch.setenv(ENGINE_ENV_VAR, "turbo")
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine()


class TestUnsupportedReason:
    def test_supported_protocols_have_no_reason(self):
        assert unsupported_reason(TTLProtocol(hours(1))) is None
        assert unsupported_reason(AlexProtocol.from_percent(10)) is None
        assert unsupported_reason(InvalidationProtocol()) is None

    def test_cache_and_adaptive_fall_back(self):
        assert unsupported_reason(TTLProtocol(hours(1)), cache=Cache()) == (
            "caller-supplied cache (bounded capacity / pre-seeded state)")
        assert unsupported_reason(SelfTuningProtocol()) == (
            "protocol SelfTuningProtocol has no compiled kernel "
            "(cross_object_state: a decision depends on state shared "
            "across objects)")

    def test_fault_plans_and_eager_pushes_are_compiled(self):
        plan = parse_faults("loss=0.5,crash=5d,seed=1").build(days(10))
        for protocol in (
            TTLProtocol(hours(1)),  # no callbacks: the plan's crashes only
            InvalidationProtocol(),
            InvalidationProtocol(eager=True),
            LeasedInvalidationProtocol(hours(12), eager=True),
        ):
            assert unsupported_reason(protocol) is None
            assert unsupported_reason(protocol, faults=plan) is None
        # Only the two documented fallbacks outrank a plan.
        assert "cache" in unsupported_reason(
            InvalidationProtocol(), cache=Cache(), faults=plan)
        assert "no compiled kernel" in unsupported_reason(
            SelfTuningProtocol(), faults=plan)

    def test_subclasses_compile_their_own_rule(self):
        class SloppyTTL(TTLProtocol):
            def is_fresh(self, entry, now):
                return True

        # Never the parent's kernel: the subclass gets one specialised
        # from its own is_fresh (tests/fastpath/test_specialise.py runs
        # it), or a reason.
        assert unsupported_reason(SloppyTTL(hours(1))) is None
        sloppy, plain = (
            compile_protocol(cls(hours(1))) for cls in (SloppyTTL, TTLProtocol)
        )
        assert sloppy[0] is not plain[0]

    def test_fast_simulate_refuses_unsupported(self, static_server):
        with pytest.raises(UnsupportedFastPathError, match="no compiled"):
            fast_simulate(static_server, SelfTuningProtocol(), [])


class TestEngineSimulate:
    def test_fast_matches_reference_output(self, changing_server):
        requests = [(days(0.5), "/hot"), (days(1.5), "/hot"),
                    (days(2.5), "/warm"), (days(4.0), "/cold")]
        set_engine("fast")
        fast = engine_simulate(
            changing_server, AlexProtocol.from_percent(10), requests,
            end_time=days(5.0),
        )
        reference = simulate(
            changing_server, AlexProtocol.from_percent(10), requests,
            end_time=days(5.0),
        )
        assert diff_results(fast, reference) == []

    def test_reference_engine_is_honoured(self, changing_server):
        requests = [(days(0.5), "/hot")]
        result = engine_simulate(
            changing_server, TTLProtocol(hours(1)), requests,
            end_time=days(1.0), engine="reference",
        )
        reference = simulate(
            changing_server, TTLProtocol(hours(1)), requests,
            end_time=days(1.0),
        )
        assert diff_results(result, reference) == []

    def test_fallback_runs_match_reference(self, changing_server):
        set_engine("fast")
        requests = [(days(0.5), "/hot"), (days(1.5), "/hot")]
        for make_protocol, kwargs in (
            (InvalidationProtocol, lambda: {"cache": Cache()}),
            (SelfTuningProtocol, dict),
        ):
            with obs_registry.installed(obs_registry.MetricsRegistry()) as reg:
                dispatched = engine_simulate(
                    changing_server, make_protocol(), requests,
                    end_time=days(3.0), **kwargs(),
                )
            expected = simulate(
                changing_server, make_protocol(), requests,
                end_time=days(3.0), **kwargs(),
            )
            assert diff_results(dispatched, expected) == []
            assert reg.counter("engine.fastpath_fallbacks").value == 1.0
            assert reg.counter("engine.fastpath_runs").value == 0.0

    def test_faults_and_eager_run_on_the_fast_engine(self, changing_server):
        set_engine("fast")
        requests = [(days(0.5), "/hot"), (days(1.5), "/hot"),
                    (days(2.5), "/warm")]
        plan = parse_faults("loss=0.5,retries=1,crash=2d,seed=7").build(
            days(3.0))
        for make_protocol, faults in (
            (InvalidationProtocol, plan),
            (lambda: InvalidationProtocol(eager=True), None),
            (lambda: InvalidationProtocol(eager=True), plan),
            (lambda: TTLProtocol(hours(6)), plan),
        ):
            with obs_registry.installed(obs_registry.MetricsRegistry()) as reg:
                dispatched = engine_simulate(
                    changing_server, make_protocol(), requests,
                    end_time=days(3.0), faults=faults,
                )
            expected = simulate(
                changing_server, make_protocol(), requests,
                end_time=days(3.0), faults=faults,
            )
            assert diff_results(dispatched, expected) == []
            assert reg.counter("engine.fastpath_runs").value == 1.0
            assert reg.counter("engine.fastpath_fallbacks").value == 0.0

    def test_active_registry_stays_on_fast_engine(self, changing_server):
        # An installed metrics registry no longer forces the reference
        # engine: the kernel batches the same publications and flushes
        # them once per run (byte-equal totals, see test_metrics_batch).
        set_engine("fast")
        registry = obs_registry.MetricsRegistry()
        previous = obs_registry.install(registry)
        try:
            engine_simulate(
                changing_server, TTLProtocol(hours(1)),
                [(days(0.5), "/hot")], end_time=days(1.0),
            )
        finally:
            obs_registry.install(previous)
        assert registry.counter("engine.fastpath_fallbacks").value == 0.0
        assert registry.counter("engine.fastpath_runs").value == 1.0
        assert registry.counter("fastpath.metrics_flush").value == 1.0
        assert registry.counter("cache.stores").value > 0.0


class TestCompileCache:
    def test_compiled_server_is_memoized_per_instance(self, static_server):
        assert compile_server(static_server) is compile_server(static_server)

    def test_schedule_is_memoized_per_plan_and_start(self, changing_server):
        plan = FaultPlan(loss_rate=0.5, retries=1, seed=3)
        twin = FaultPlan(loss_rate=0.5, retries=1, seed=3)
        first = compile_schedule(changing_server, plan, 0.0, True)
        # A frozen plan is its own key: an equal plan is a hit.
        assert compile_schedule(changing_server, twin, 0.0, True) is first
        later = compile_schedule(changing_server, plan, days(2.5), True)
        assert later is not first
        assert len(later.times) < len(first.times)
        # No callbacks wanted: the schedule of an empty feed.
        crashing = FaultPlan(loss_rate=0.5, cache_crashes=(days(1),))
        crash_only = compile_schedule(changing_server, crashing, 0.0, False)
        assert list(crash_only.kinds) == ["crash"]
        assert list(crash_only.keys) == [NO_OBJECT]

    def test_schedule_counters_publish_on_a_memo_hit(self, changing_server):
        plan = FaultPlan(loss_rate=0.5, retries=1, seed=3)
        requests = [(days(0.5), "/hot")]
        dumps = []
        for _ in range(2):
            with obs_registry.installed(obs_registry.MetricsRegistry()) as reg:
                fast_simulate(
                    changing_server, InvalidationProtocol(), requests,
                    end_time=days(7.0), faults=plan,
                )
            dumps.append({
                name: value
                for name, value in reg.as_dict()["counters"].items()
                if name.startswith("faults.")
            })
        assert dumps[0] == dumps[1]
        assert dumps[0]["faults.attempts"] > dumps[0]["faults.delivered"] > 0


class TestFrozenBenchSeam:
    """``bench/`` is frozen and calls the two public stages directly; its
    call shapes are pinned here so an API break fails in tier 1."""

    BASE = SimulatorMode.BASE
    OPTIMIZED = SimulatorMode.OPTIMIZED
    #: The five ``sim-kernel`` configurations of ``bench/sim.py``.
    CONFIGS = (
        ("ttl", lambda: TTLProtocol(hours(24)), OPTIMIZED),
        ("alex", lambda: AlexProtocol.from_percent(10.0), OPTIMIZED),
        ("invalidation", InvalidationProtocol, OPTIMIZED),
        ("cern", CERNPolicyProtocol, OPTIMIZED),
        ("alex-base", lambda: AlexProtocol.from_percent(10.0), BASE),
    )

    @pytest.mark.parametrize("name,make,mode", CONFIGS,
                             ids=[c[0] for c in CONFIGS])
    def test_trace_stages_call_shapes(self, workload, name, make, mode):
        BASE = self.BASE
        server, requests = workload.server(), workload.requests
        duration = workload.duration
        protocol = make()
        # bench/sim.py::_trace_stages, verbatim.
        kind, p0, p1, p2, has_p2 = compile_protocol(protocol)
        compiled = compile_server(server)
        req_times, req_objs = encode_requests(compiled, requests, 0.0)
        state = initial_state(compiled, 0.0, True)
        staged = run_kernel(
            compiled, state, req_times, req_objs,
            kind=kind, p0=p0, p1=p1, p2=p2, has_p2=has_p2,
            base_mode=mode is BASE, costs=DEFAULT_COSTS,
            charge_per_modification=True, preload=True, start_time=0.0,
            end_time=duration, protocol_name=protocol.name,
            mode_value=mode.value,
        )
        whole = fast_simulate(server, make(), requests, mode, end_time=duration)
        assert diff_results(staged, whole) == []

    def test_result_contract_call_shapes(self, workload):
        """What ``bench/sim.py`` and ``bench/live.py`` call on the result
        surface, by the names they import it under."""
        import repro.fastpath
        import repro.live
        from repro.core.results import result_to_dict

        server, requests = workload.server(), workload.requests[:500]
        a = simulate(server, TTLProtocol(hours(24)), requests)
        b = simulate(server, TTLProtocol(hours(24)), requests)
        assert repro.fastpath.diff_results(a, b) == []
        assert repro.live.diff_live_vs_sim(a, b) == []
        b.counters.hits += 1
        (line,) = repro.fastpath.diff_results(a, b, label="ttl")
        assert line.startswith("ttl.counters.hits: fast=")
        lines = repro.live.diff_live_vs_sim(a, b)
        assert isinstance(lines, list) and len(lines) == 1
        assert isinstance(lines[0], str)
        # The digest pins in bench/expected.json hash this dict.
        encoded = result_to_dict(a)
        assert list(encoded) == [
            "protocol_name", "mode", "duration", "counters", "bandwidth",
        ]
        assert list(encoded["counters"]) == list(repro.fastpath.COUNTER_FIELDS)
        assert list(encoded["bandwidth"]) == [
            "control_bytes", "body_bytes", "exchanges",
        ]
        assert {len(cells) for cells in encoded["bandwidth"].values()} == {5}
