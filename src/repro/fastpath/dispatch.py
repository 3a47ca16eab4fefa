"""Engine selection and the fast-path drop-in for ``simulate``.

Three public seams live here:

* :func:`resolve_engine` / :func:`set_engine` — which engine a run uses.
  Precedence: an explicit argument (the CLI ``--engine`` flag), then the
  process-wide override set by :func:`set_engine` (mirrored into the
  ``REPRO_ENGINE`` environment variable so forked *and* spawned sweep
  workers agree with the parent), then the environment variable, then
  the default — **fast**.
* :func:`unsupported_reason` — the fallback predicate.  The fast path
  refuses, rather than approximates, any configuration outside its
  compiled subset; the reason string is what diagnostics and docs show.
* :func:`engine_simulate` — the drop-in used by
  :func:`repro.verify.checked_simulate`: routes to
  :func:`fast_simulate` when the fast engine is selected and supported,
  and to the reference :func:`repro.core.simulator.simulate` otherwise.

Automatic fallback to the reference engine happens for:

* a protocol whose class :func:`repro.fastpath.specialise.specialise`
  refuses — ``SelfTuningProtocol`` (state shared across objects) and
  any class whose ``is_fresh`` / ``on_stored`` step outside the lowered
  subset; a subclass compiles *its own* rule or not at all;
* a caller-supplied ``cache`` (bounded capacity, pre-seeded state).

A ``faults`` plan does not: its schedule is compiled to index-keyed
columns, memoised per server
(:func:`repro.fastpath.arrays.compile_schedule`), and replayed by the
kernel's action cursor under any compiled protocol — the TTL family,
which takes no callbacks, sees the plan's crashes only.  Nor do the
eager invalidation variants: the push is part of the same cursor.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Union

from repro.core.cache import Cache
from repro.core.costs import DEFAULT_COSTS, MessageCosts
from repro.core.protocols.base import ConsistencyProtocol
from repro.core.results import SimulationResult
from repro.core.server import OriginServer
from repro.core.simulator import EventObserver, SimulatorMode, simulate
from repro.faults.plan import FaultPlan
from repro.fastpath.arrays import (
    compile_schedule,
    compile_server,
    encode_requests,
    initial_state,
)
from repro.fastpath.kernels import Kernel, MetricsBatch, run_kernel
from repro.fastpath.specialise import specialise
from repro.obs import clock as obs_clock
from repro.obs import profile as obs_profile
from repro.obs import registry as obs_metrics
from repro.obs import trace as obs_trace

#: Environment variable carrying the engine selection into workers.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: The two engine names ``--engine`` accepts.
FAST = "fast"
REFERENCE = "reference"
ENGINES = (FAST, REFERENCE)

_engine_override: Optional[str] = None


class UnsupportedFastPathError(ValueError):
    """Raised by :func:`fast_simulate` for configurations outside the
    compiled subset (callers normally pre-check via
    :func:`unsupported_reason` instead)."""


def _validated(engine: str) -> str:
    name = engine.strip().lower()
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {', '.join(ENGINES)}"
        )
    return name


def set_engine(engine: Optional[str]) -> Optional[str]:
    """Set the process-wide engine override; returns the previous one.

    Also mirrors the setting into ``REPRO_ENGINE`` so worker processes —
    forked *or* spawned — agree with the parent.  ``None`` clears the
    override (and the environment variable), restoring env/default
    resolution.

    Raises:
        ValueError: for an unknown engine name.
    """
    global _engine_override
    previous = _engine_override
    if engine is None:
        _engine_override = None
        os.environ.pop(ENGINE_ENV_VAR, None)
    else:
        _engine_override = _validated(engine)
        os.environ[ENGINE_ENV_VAR] = _engine_override
    return previous


def resolve_engine(engine: Optional[str] = None) -> str:
    """The effective engine name under the resolution precedence.

    Args:
        engine: an explicit request (e.g. a ``--engine`` flag value);
            wins when not None.

    Raises:
        ValueError: for an unknown engine name, whether explicit or via
            the ``REPRO_ENGINE`` environment variable.
    """
    if engine is not None:
        return _validated(engine)
    if _engine_override is not None:
        return _engine_override
    env = os.environ.get(ENGINE_ENV_VAR)
    if env:
        return _validated(env)
    return FAST


#: ``(kind, p0, p1, p2, has_p2)``, the shape ``bench/`` unpacks.
CompiledProtocol = tuple[
    Kernel, Optional[float], Optional[float], Optional[float], bool
]


def _compile(protocol: ConsistencyProtocol) -> Union[CompiledProtocol, str]:
    """``compile_protocol``'s tuple, or why there is none."""
    cls = type(protocol)
    specialised = specialise(cls)
    if isinstance(specialised, str):
        return specialised
    kernel, attrs = specialised
    # The kernel is per class; what varies per instance travels per run.
    if protocol.wants_invalidations != cls.wants_invalidations:
        return "wants_invalidations differs from the class's declaration"
    values: list[Optional[float]] = [0.0, 0.0, 0.0]
    for slot, attr in enumerate(attrs):
        values[slot] = getattr(protocol, attr)
        if not isinstance(values[slot], (int, float, type(None))):
            return f"self.{attr} is not a number"
    return (kernel, values[0], values[1], values[2], False)


def compile_protocol(
    protocol: ConsistencyProtocol,
) -> Optional[CompiledProtocol]:
    """Compile a protocol instance to ``(kind, p0, p1, p2, has_p2)``.

    ``kind`` is the kernel specialised for the protocol's *class*
    (:mod:`repro.fastpath.specialise`, compiled once per class), ``p0``
    / ``p1`` / ``p2`` the values of the instance attributes its methods
    read, in order of first use (None stays None); ``has_p2`` is always
    False — the five-slot shape is the one ``bench/`` unpacks.  Returns
    None when the class is refused.  The eager invalidation variants
    share their plain twins' kernel; the push is a delivery-side switch
    :func:`fast_simulate` reads off the protocol.
    """
    compiled = _compile(protocol)
    return None if isinstance(compiled, str) else compiled


def unsupported_reason(
    protocol: ConsistencyProtocol,
    *,
    cache: Optional[Cache] = None,
    faults: Optional[FaultPlan] = None,
) -> Optional[str]:
    """Why the fast path cannot run this configuration (None = it can).

    This is the fallback predicate :func:`engine_simulate` consults; the
    strings are stable enough to show in diagnostics and tests.  It
    takes the whole configuration, but a ``faults`` plan is never a
    reason: every compiled protocol replays one.
    """
    if cache is not None:
        return "caller-supplied cache (bounded capacity / pre-seeded state)"
    compiled = _compile(protocol)
    if isinstance(compiled, str):
        return (
            f"protocol {type(protocol).__name__} has no compiled kernel "
            f"({compiled})"
        )
    return None


def fast_simulate(
    server: OriginServer,
    protocol: ConsistencyProtocol,
    requests: Iterable[tuple[float, str]],
    mode: SimulatorMode = SimulatorMode.OPTIMIZED,
    *,
    costs: MessageCosts = DEFAULT_COSTS,
    preload: bool = True,
    start_time: float = 0.0,
    end_time: Optional[float] = None,
    charge_per_modification: bool = True,
    faults: Optional[FaultPlan] = None,
    observer: Optional[EventObserver] = None,
) -> SimulationResult:
    """Run one simulation on the fast path (no fallback).

    Byte-identical to :func:`repro.core.simulator.simulate` for every
    supported configuration — counters, ledger cells, the observer event
    stream, error messages, and float accumulation order included (the
    contract in docs/FASTPATH.md).

    Raises:
        UnsupportedFastPathError: for configurations outside the
            compiled subset (see :func:`unsupported_reason`).
    """
    compiled_protocol = compile_protocol(protocol)
    if compiled_protocol is None:
        reason = unsupported_reason(protocol)
        raise UnsupportedFastPathError(
            f"fast path cannot run this configuration: {reason}"
        )
    started = obs_clock.monotonic()
    # Observability without fallback: an active sink gets the observer
    # event stream through a recording tee (the stream is contract-
    # pinned identical to the reference's), and an active registry gets
    # the run's metrics as one batched flush through the exact merge
    # path — byte-equal totals, enforced by ``contract.diff_metrics``.
    sink = obs_trace.active()
    registry = obs_metrics.active()
    kernel_observer = (
        obs_trace.sink_observer(sink, observer) if sink is not None
        else observer
    )
    batch = MetricsBatch() if registry is not None else None
    with obs_profile.phase("fastpath.compile"):
        compiled = compile_server(server)
        req_times, req_objs = encode_requests(compiled, requests, start_time)
        schedule = None
        if faults is not None:
            schedule = compile_schedule(
                server, faults, float(start_time),
                protocol.wants_invalidations,
            )
            # Per run, memo hit or not: the reference publishes the
            # schedule's counts every time it compiles.
            schedule.publish_metrics()
    kind, p0, p1, p2, has_p2 = compiled_protocol
    with obs_profile.phase("fastpath.simulate"):
        state = initial_state(compiled, float(start_time), preload)
        result = run_kernel(
            compiled,
            state,
            req_times,
            req_objs,
            kind=kind,
            p0=p0,
            p1=p1,
            p2=p2,
            has_p2=has_p2,
            base_mode=mode is SimulatorMode.BASE,
            costs=costs,
            charge_per_modification=bool(charge_per_modification),
            preload=preload,
            start_time=float(start_time),
            end_time=end_time,
            protocol_name=protocol.name,
            mode_value=mode.value,
            observer=kernel_observer,
            batch=batch,
            schedule=schedule,
            eager=bool(getattr(protocol, "eager", False)),
        )
    if batch is not None and registry is not None:
        batch.flush(registry)
        obs_metrics.emit("fastpath.metrics_flush")
    obs_metrics.emit("engine.fastpath_runs")
    obs_trace.span(
        "fastpath.run",
        obs_clock.monotonic() - started,
        protocol=result.protocol_name,
        requests=result.counters.requests,
    )
    return result


def engine_simulate(
    server: OriginServer,
    protocol: ConsistencyProtocol,
    requests: Iterable[tuple[float, str]],
    mode: SimulatorMode = SimulatorMode.OPTIMIZED,
    *,
    costs: MessageCosts = DEFAULT_COSTS,
    cache: Optional[Cache] = None,
    preload: bool = True,
    start_time: float = 0.0,
    end_time: Optional[float] = None,
    charge_per_modification: bool = True,
    faults: Optional[FaultPlan] = None,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Engine-dispatching drop-in for ``simulate``.

    Runs the fast path when the resolved engine is ``fast`` and the
    configuration is supported, falling back to the reference simulator
    otherwise (and always under ``--engine reference``).  Output is
    byte-identical either way; only throughput differs.
    """
    if resolve_engine(engine) == FAST:
        reason = unsupported_reason(protocol, cache=cache, faults=faults)
        if reason is None:
            return fast_simulate(
                server,
                protocol,
                requests,
                mode,
                costs=costs,
                preload=preload,
                start_time=start_time,
                end_time=end_time,
                charge_per_modification=charge_per_modification,
                faults=faults,
            )
        obs_metrics.emit("engine.fastpath_fallbacks")
    return simulate(
        server,
        protocol,
        requests,
        mode,
        costs=costs,
        cache=cache,
        preload=preload,
        start_time=start_time,
        end_time=end_time,
        charge_per_modification=charge_per_modification,
        faults=faults,
    )
