"""The simulator workloads: ``sim-kernel``, ``sim-sweep``, ``sim-fallback``.

All three drive ``repro.fastpath.engine_simulate`` (directly or through
the sweep layer) and differ in which layer does the work: one long run
per call (the kernel), many short runs (per-run fixed cost), and the
configurations the dispatcher still sends to the reference engine.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.analysis.sweep import (
    ALEX_THRESHOLDS_PERCENT,
    TTL_HOURS,
    SweepResult,
    sweep_alex,
    sweep_ttl,
)
from repro.core.cache import Cache
from repro.core.clock import hours
from repro.core.costs import DEFAULT_COSTS
from repro.core.protocols import (
    AlexProtocol,
    CERNPolicyProtocol,
    InvalidationProtocol,
    SelfTuningProtocol,
    TTLProtocol,
)
from repro.core.results import SimulationResult, result_to_dict
from repro.core.server import OriginServer
from repro.core.simulator import SimulatorMode, simulate
from repro.fastpath import (
    compile_protocol,
    compile_server,
    diff_results,
    encode_requests,
    engine_simulate,
    fast_simulate,
    initial_state,
)
from repro.fastpath.kernels import run_kernel
from repro.faults.plan import FaultPlan
from repro.obs import profile as obs_profile
from repro.obs import registry as obs_metrics
from repro.verify import ConsistencyViolation, checked_simulate, verify_simulation
from repro.workload.base import Workload
from repro.workload.campus import build_campus_workloads
from repro.workload.worrell import WorrellWorkload

from harness import Clock

OPTIMIZED = SimulatorMode.OPTIMIZED
BASE = SimulatorMode.BASE


def _alex10() -> AlexProtocol:
    return AlexProtocol.from_percent(10.0)


def _check_results(
    got: list[SimulationResult], expected: list[SimulationResult]
) -> tuple[int, int]:
    """(attempted, failed): one operation per ``engine_simulate`` run."""
    failed = sum(
        1 for mine, reference in zip(got, expected)
        if diff_results(mine, reference)
    )
    return len(expected), failed + abs(len(expected) - len(got))


def _engine_counts(
    round_fn: Callable[[Clock], Any], probes: Clock, repeats: int
) -> tuple[float, float, Clock]:
    """Run rounds under a ``MetricsRegistry``: (fallbacks, share, clock).

    ``share`` is ``engine.fastpath_runs`` over runs plus fallbacks, per
    round; the clock's normalised seconds over the untraced ones is the
    registry's overhead.
    """
    registry = obs_metrics.MetricsRegistry()
    clock = Clock(probes.calibration)
    with obs_metrics.installed(registry):
        for _ in range(repeats):
            round_fn(clock)
    counters = registry.as_dict()["counters"]
    runs = counters.get("engine.fastpath_runs", 0.0)
    fallbacks = counters.get("engine.fastpath_fallbacks", 0.0)
    total = runs + fallbacks
    return fallbacks / repeats, (runs / total if total else 0.0), clock


def _trace_stages(
    clock: Clock, server: OriginServer, protocol: Any, mode: SimulatorMode,
    requests: list, duration: float, op: str,
) -> None:
    """The public stages of ``fast_simulate``, one span each, same inputs."""
    with clock.layer("bench.fastpath_stages", op=op):
        with clock.layer("fastpath.compile_protocol"):
            kind, p0, p1, p2, has_p2 = compile_protocol(protocol)
        with clock.layer("fastpath.compile_server"):
            compiled = compile_server(server)
        with clock.layer("fastpath.encode_requests"):
            req_times, req_objs = encode_requests(compiled, requests, 0.0)
        with clock.layer("fastpath.initial_state"):
            state = initial_state(compiled, 0.0, True)
        with clock.layer("fastpath.run_kernel"):
            run_kernel(
                compiled, state, req_times, req_objs,
                kind=kind, p0=p0, p1=p1, p2=p2, has_p2=has_p2,
                base_mode=mode is BASE, costs=DEFAULT_COSTS,
                charge_per_modification=True, preload=True, start_time=0.0,
                end_time=duration, protocol_name=protocol.name,
                mode_value=mode.value,
            )


_STAGES = ("compile_protocol", "compile_server", "encode_requests",
           "initial_state", "run_kernel")


def _stage_metrics(
    traced: Clock, requests: int, whole_by_op: dict[str, float]
) -> dict[str, float]:
    """Stage numbers; ``whole_by_op`` is each staged operation's whole call."""
    ops = list(whole_by_op)

    def stage(name: str) -> float:
        """Mean over the staged operations of one stage's seconds."""
        return sum(traced.layer_seconds(f"fastpath.{name}", op) for op in ops) / len(ops)

    whole = sum(whole_by_op.values()) / len(ops)
    return {
        "fastpath.encode_requests_ns_per_req": 1e9 * stage("encode_requests") / requests,
        "fastpath.initial_state_us": 1e6 * stage("initial_state"),
        "fastpath.dispatch_self_us":
            1e6 * (whole - sum(stage(name) for name in _STAGES)),
    }


def _cold_compile_server_s(workload: Workload, probes: Clock, repeats: int = 3) -> float:
    """``compile_server`` on a server it has not seen (its cache is per server)."""
    for _ in range(repeats):
        fresh = OriginServer(workload.histories)
        with probes.slice("compile_server"):
            compile_server(fresh)
    return probes.seconds("compile_server")


class SimKernel:
    """Five compiled configurations, each one long run over the Worrell stream."""

    name = "sim-kernel"
    REQUESTS = 100_000
    ORACLE_PREFIX = 20_000
    CONFIGS: tuple[tuple[str, Callable[[], Any], SimulatorMode], ...] = (
        ("ttl", lambda: TTLProtocol(hours(24)), OPTIMIZED),
        ("alex", _alex10, OPTIMIZED),
        ("invalidation", InvalidationProtocol, OPTIMIZED),
        ("cern", CERNPolicyProtocol, OPTIMIZED),
        ("alex-base", _alex10, BASE),
    )

    def __init__(self) -> None:
        self.problems: list[str] = []

    def prepare(self, seed: int, clock: Clock, full_oracle: bool = False) -> None:
        with clock.slice("setup.worrell_build"):
            workload = WorrellWorkload(
                files=2085, requests=self.REQUESTS, seed=seed
            ).build()
        with clock.slice("setup.server_build"):
            server = workload.server()
        self.workload, self.server = workload, server
        self.stream, self.duration = workload.requests, workload.duration
        sample = self.stream if full_oracle else self.stream[:self.ORACLE_PREFIX]
        with clock.slice("setup.oracle"):
            for name, make, mode in self.CONFIGS:
                reference = simulate(
                    server, make(), sample, mode, end_time=self.duration
                )
                fast = fast_simulate(
                    server, make(), sample, mode, end_time=self.duration
                )
                self.problems += diff_results(fast, reference, label=name)
        with clock.slice("setup.reference_round"):
            self.expected = self.round(Clock())
            for result in self.expected:
                result.counters.check_invariants()
        self.ops_per_round = len(self.CONFIGS)
        self.requests_per_round = len(self.CONFIGS) * len(self.stream)

    def round(self, clock: Clock) -> list[SimulationResult]:
        results = []
        for name, make, mode in self.CONFIGS:
            protocol = make()
            with clock.slice(name, layer="fastpath.engine_simulate"):
                results.append(engine_simulate(
                    self.server, protocol, self.stream, mode,
                    end_time=self.duration,
                ))
            if clock.tracing:
                _trace_stages(clock, self.server, make(), mode, self.stream,
                              self.duration, op=name)
        if clock.tracing:
            with clock.layer("core.simulate", op="alex"):
                simulate(self.server, _alex10(), self.stream, OPTIMIZED,
                         end_time=self.duration)
        return results

    def check(self, results: list[SimulationResult]) -> tuple[int, int]:
        return _check_results(results, self.expected)

    def pinned(self) -> Any:
        return [result_to_dict(result) for result in self.expected]

    def layer_metrics(
        self, setup: Clock, untraced: Clock, traced: Clock, probes: Clock
    ) -> dict[str, float]:
        n = len(self.stream)
        metrics = _stage_metrics(
            traced, n, {name: traced.seconds(name) for name, _, _ in self.CONFIGS}
        )
        for name, _, _ in self.CONFIGS:
            metrics[f"fastpath.run_kernel_ns_per_req.{name}"] = (
                1e9 * traced.layer_seconds("fastpath.run_kernel", op=name) / n
            )
        fallbacks, share, counted = _engine_counts(self.round, probes, repeats=3)
        reference_s = traced.layer_seconds("core.simulate")
        metrics.update({
            "fastpath.compile_server_s": _cold_compile_server_s(self.workload, probes),
            "fastpath.fallbacks": fallbacks,
            "fastpath.share": share,
            "core.simulate_ns_per_req.alex": 1e9 * reference_s / n,
            "fastpath.speedup_vs_reference": reference_s / untraced.seconds("alex"),
            "core.server_build_s": setup.seconds("setup.server_build"),
            "workload.worrell_build_s": setup.seconds("setup.worrell_build"),
            "obs.registry_overhead_ratio":
                counted.normalised_seconds() / untraced.normalised_seconds(),
        })
        return metrics


class SimSweep:
    """The Alex and TTL sweeps over the three campus streams, one worker."""

    name = "sim-sweep"
    REQUEST_SCALE = 0.5
    ORACLE_PREFIX = 4_000
    ORACLE_POINTS = 6

    def __init__(self) -> None:
        self.problems: list[str] = []

    def prepare(self, seed: int, clock: Clock, full_oracle: bool = False) -> None:
        with clock.slice("setup.campus_build"):
            built = build_campus_workloads(
                seed=seed, request_scale=self.REQUEST_SCALE
            )
        self.workloads = list(built.values())
        with clock.slice("setup.server_build"):
            for workload in self.workloads:
                workload.server()
        # Six sampled grid points through the full oracle (spec model,
        # event replay, fast-path cross-check), against the plain engine.
        rng = random.Random(seed)
        points = [
            (rng.choice(self.workloads), family, rng.choice(grid))
            for family, grid in (("alex", ALEX_THRESHOLDS_PERCENT),
                                 ("ttl", TTL_HOURS))
            for _ in range(self.ORACLE_POINTS // 2)
        ]
        for index, (workload, family, parameter) in enumerate(points):
            sample = (workload.requests if full_oracle
                      else workload.requests[:self.ORACLE_PREFIX])
            make = (
                (lambda: AlexProtocol.from_percent(parameter))
                if family == "alex" else (lambda: TTLProtocol(hours(parameter)))
            )
            label = f"{workload.name}.{family}({parameter})"
            with clock.slice(f"setup.oracle_checked.{index}"):
                try:
                    checked = checked_simulate(
                        workload.server(), make(), sample, OPTIMIZED,
                        end_time=workload.duration, force=True,
                    )
                except ConsistencyViolation as violation:
                    self.problems.append(f"{label}: {violation}")
                    continue
            with clock.slice(f"setup.oracle_plain.{index}"):
                plain = engine_simulate(
                    workload.server(), make(), sample, OPTIMIZED,
                    end_time=workload.duration,
                )
            self.problems += diff_results(plain, checked, label=label)
        with clock.slice("setup.reference_round"):
            self.expected = self.round(Clock())
        self.ops_per_round = sum(
            len(grid) + 1 for grid in (ALEX_THRESHOLDS_PERCENT, TTL_HOURS)
        ) * len(self.workloads)
        self.requests_per_round = sum(
            sweep.stats.simulated_requests for sweep in self.expected
        )

    def round(self, clock: Clock, workers: int = 1) -> list[SweepResult]:
        sweeps = []
        for workload in self.workloads:
            with clock.slice(f"{workload.name}.alex", layer="analysis.sweep_alex"):
                sweeps.append(sweep_alex([workload], OPTIMIZED, workers=workers))
            with clock.slice(f"{workload.name}.ttl", layer="analysis.sweep_ttl"):
                sweeps.append(sweep_ttl([workload], OPTIMIZED, workers=workers))
        if clock.tracing:
            self._trace_direct_runs(clock)
        return sweeps

    def _trace_direct_runs(self, clock: Clock) -> None:
        """The round's 132 runs straight through ``engine_simulate``."""
        with clock.layer("bench.direct_runs"):
            for workload in self.workloads:
                families = (
                    ("alex", ALEX_THRESHOLDS_PERCENT, AlexProtocol.from_percent),
                    ("ttl", TTL_HOURS, lambda h: TTLProtocol(hours(h))),
                )
                for family, grid, make in families:
                    protocols = [make(p) for p in grid] + [InvalidationProtocol()]
                    for index, protocol in enumerate(protocols):
                        op = f"{workload.name}.{family}.{index}"
                        with clock.layer("fastpath.engine_simulate", op=op):
                            engine_simulate(
                                workload.server(), protocol, workload.requests,
                                OPTIMIZED, end_time=workload.duration,
                            )
        first = self.workloads[0]
        _trace_stages(clock, first.server(), _alex10(), OPTIMIZED,
                      first.requests, first.duration, op=f"{first.name}.stages")

    def check(self, sweeps: list[SweepResult]) -> tuple[int, int]:
        failed = sum(
            len(reference.points) + 1
            for mine, reference in zip(sweeps, self.expected)
            if mine != reference
        )
        return self.ops_per_round, failed

    def pinned(self) -> Any:
        return [
            {"family": sweep.family, "invalidation": sweep.invalidation,
             "points": [[p.parameter, p.metrics] for p in sweep.points]}
            for sweep in self.expected
        ]

    def _parallel_rounds(self, probes: Clock, repeats: int = 2) -> tuple[float, dict[str, float]]:
        """Rounds at ``workers=2`` with the engine's phase timers on:
        (seconds, seconds per phase), normalised means of one round."""
        obs_profile.reset()
        obs_profile.enable()
        try:
            for _ in range(repeats):
                with probes.slice("workers2"):
                    self.round(Clock(), workers=2)
        finally:
            obs_profile.disable()
        scale = repeats * probes.speed()
        phases = {name: seconds / scale
                  for name, seconds in obs_profile.snapshot()["phases"].items()}
        return probes.seconds("workers2"), phases

    def layer_metrics(
        self, setup: Clock, untraced: Clock, traced: Clock, probes: Clock
    ) -> dict[str, float]:
        first = self.workloads[0]
        # Grid index 2 is Alex 10 %, the configuration the stages were run on.
        whole = traced.layer_seconds(
            "fastpath.engine_simulate", op=f"{first.name}.alex.2"
        )
        metrics = _stage_metrics(
            traced, len(first.requests), {f"{first.name}.stages": whole}
        )
        fallbacks, share, counted = _engine_counts(self.round, probes, repeats=1)
        wall_w2, phases = self._parallel_rounds(probes)
        checked = setup.normalised_seconds("setup.oracle_checked")
        plain = setup.normalised_seconds("setup.oracle_plain")
        metrics.update({
            "fastpath.compile_server_s": _cold_compile_server_s(first, probes),
            "fastpath.fallbacks": fallbacks,
            "fastpath.share": share,
            "core.server_build_s": setup.seconds("setup.server_build"),
            "workload.campus_build_s": setup.seconds("setup.campus_build"),
            "verify.checked_overhead_ratio": checked / plain if plain else 0.0,
            "analysis.sweep_self_s": traced.normalised_seconds()
                - traced.layer_seconds_sum("fastpath.engine_simulate"),
            "runtime.map_ordered_w2_s": wall_w2,
            "runtime.fork_s": phases.get("fork", 0.0),
            "runtime.dispatch_s": phases.get("dispatch", 0.0),
            "runtime.harvest_s": phases.get("harvest", 0.0),
            "runtime.reassembly_s": phases.get("reassembly", 0.0),
            "runtime.parallel_speedup": untraced.normalised_seconds() / wall_w2,
            "obs.registry_overhead_ratio":
                counted.normalised_seconds() / untraced.normalised_seconds(),
        })
        return metrics


class SimFallback:
    """The four configurations the dispatcher sends to the reference engine."""

    name = "sim-fallback"
    REQUESTS = 25_000
    ORACLE_PREFIX = 2_500
    FAULTS = FaultPlan(loss_rate=0.2, retries=3, backoff=300.0, seed=1)
    CACHE_BYTES = 2_000_000
    #: name -> (protocol factory, extra keyword arguments factory)
    CONFIGS: tuple[tuple[str, Callable[[], Any], Callable[[], dict]], ...] = (
        ("faults", InvalidationProtocol, lambda: {"faults": SimFallback.FAULTS}),
        ("selftuning", SelfTuningProtocol, dict),
        ("eager", lambda: InvalidationProtocol(eager=True), dict),
        ("bounded", _alex10,
         lambda: {"cache": Cache(capacity_bytes=SimFallback.CACHE_BYTES)}),
    )

    def __init__(self) -> None:
        self.problems: list[str] = []

    def prepare(self, seed: int, clock: Clock, full_oracle: bool = False) -> None:
        with clock.slice("setup.worrell_build"):
            workload = WorrellWorkload(
                files=2085, requests=self.REQUESTS, seed=seed
            ).build()
        with clock.slice("setup.server_build"):
            self.server = workload.server()
        self.stream, self.duration = workload.requests, workload.duration
        sample = self.stream if full_oracle else self.stream[:self.ORACLE_PREFIX]
        with clock.slice("setup.oracle"):
            for name, make, extra in self.CONFIGS:
                kwargs = extra()
                if "cache" in kwargs:
                    continue  # a bounded cache is outside the spec model
                try:
                    verified, _ = verify_simulation(
                        self.server, make(), sample, OPTIMIZED,
                        end_time=self.duration, **kwargs,
                    )
                except ConsistencyViolation as violation:
                    self.problems.append(f"{name}: {violation}")
                    continue
                engine = engine_simulate(
                    self.server, make(), sample, OPTIMIZED,
                    end_time=self.duration, **kwargs,
                )
                self.problems += diff_results(engine, verified, label=name)
        with clock.slice("setup.reference_round"):
            self.expected = self.round(Clock())
            for result in self.expected:
                result.counters.check_invariants()
        self.ops_per_round = len(self.CONFIGS)
        self.requests_per_round = len(self.CONFIGS) * len(self.stream)

    def round(self, clock: Clock) -> list[SimulationResult]:
        results = []
        for name, make, extra in self.CONFIGS:
            protocol, kwargs = make(), extra()
            with clock.slice(name, layer="core.simulate"):
                results.append(engine_simulate(
                    self.server, protocol, self.stream, OPTIMIZED,
                    end_time=self.duration, **kwargs,
                ))
        return results

    def check(self, results: list[SimulationResult]) -> tuple[int, int]:
        return _check_results(results, self.expected)

    def pinned(self) -> Any:
        return [result_to_dict(result) for result in self.expected]

    def layer_metrics(
        self, setup: Clock, untraced: Clock, traced: Clock, probes: Clock
    ) -> dict[str, float]:
        fallbacks, share, _ = _engine_counts(self.round, probes, repeats=1)
        metrics = {
            f"core.simulate_ns_per_req.{name}":
                1e9 * traced.seconds(name) / len(self.stream)
            for name, _, _ in self.CONFIGS
        }
        metrics.update({
            "fastpath.fallbacks": fallbacks,
            "fastpath.share": share,
            "core.server_build_s": setup.seconds("setup.server_build"),
            "workload.worrell_build_s": setup.seconds("setup.worrell_build"),
        })
        return metrics
