"""Engine selection and the fast-path drop-in for ``simulate``.

Three public seams live here:

* :func:`resolve_engine` / :func:`set_engine` — which engine a run uses.
  Precedence: an explicit argument (the CLI ``--engine`` flag), then the
  process-wide override set by :func:`set_engine` (mirrored into the
  ``REPRO_ENGINE`` environment variable so forked *and* spawned sweep
  workers agree with the parent), then the environment variable, then
  the default — **fast**.
* :func:`unsupported_reason` — the refusal predicate.  The fast path
  refuses, rather than approximates, any configuration outside its
  compiled subset; the reason string is what the refusal carries.
* :func:`engine_simulate` — the drop-in used by
  :func:`repro.verify.checked_simulate`: :func:`fast_simulate` when the
  fast engine is selected, the reference
  :func:`repro.core.simulator.simulate` when the reference one is.

The fast engine refuses, with :class:`UnsupportedFastPathError`:

* a protocol whose class :func:`repro.fastpath.specialise.specialise`
  refuses — any class whose ``is_fresh`` / ``on_stored`` /
  ``on_validation_result`` step outside the lowered subset (no shipped
  class does); a subclass compiles *its own* rule or not at all;
* a caller-supplied ``cache`` that is pre-seeded, or bounded under a
  replacement policy that is not exactly ``LRUPolicy`` or ``FIFOPolicy``
  (the cache's own order).

Such a configuration runs under ``engine="reference"`` only.  Fault
plans, the eager variants, ``SelfTuningProtocol`` and an empty caller
cache all compile (docs/FASTPATH.md, "Refusals").
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.core.cache import Cache
from repro.core.costs import DEFAULT_COSTS, MessageCosts
from repro.core.protocols.base import ConsistencyProtocol
from repro.core.replacement import FIFOPolicy, LRUPolicy
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
from repro.fastpath.kernels import Kernel, run_kernel
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
    compiled subset; the message carries :func:`unsupported_reason`."""


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

#: The kernel variant keeping a caller's bounded cache, by its policy's
#: exact type: eviction in insertion order or in recency order.
_REPLACEMENTS: dict[type, str] = {LRUPolicy: "lru", FIFOPolicy: "fifo"}


@dataclass(frozen=True)
class _Compiled:
    """A protocol instance on its kernel: the kernel, the values of the
    attributes its methods read (``p0``, ``p1``, ... — at least three)
    and the names of its per-type tables (``t0``, ...)."""

    kernel: Kernel
    values: tuple[Optional[float], ...]
    tables: tuple[str, ...]


def _compile(
    protocol: ConsistencyProtocol, replacement: Optional[str] = None
) -> Union[_Compiled, str]:
    """The instance's kernel for a cache variant, or why there is none."""
    cls = type(protocol)
    specialised = specialise(cls, replacement)
    if isinstance(specialised, str):
        return specialised
    kernel, attrs, tables = specialised
    # The kernel is per class; what varies per instance travels per run.
    if protocol.wants_invalidations != cls.wants_invalidations:
        return "wants_invalidations differs from the class's declaration"
    values = tuple(getattr(protocol, attr) for attr in attrs)
    for attr, value in zip(attrs, values):
        if not isinstance(value, (int, float, type(None))):
            return f"self.{attr} is not a number"
    for attr in tables:
        if not isinstance(getattr(protocol, attr), dict):
            return f"self.{attr} is not a dict"
    # ``p0`` / ``p1`` / ``p2`` are always passed, read or not.
    return _Compiled(kernel, values + (0.0,) * (3 - len(values)), tables)


def _compile_run(
    protocol: ConsistencyProtocol, cache: Optional[Cache]
) -> Union[_Compiled, str]:
    """The kernel for the protocol and the caller's ``cache``, or why the
    fast path cannot run them.  An unbounded cache evicts nothing and
    keeps insertion order."""
    replacement: Optional[str] = None
    if cache is not None:
        if len(cache):
            return "caller-supplied cache is pre-seeded (not empty at call time)"
        policy = cache.policy
        if policy is None:
            replacement = "fifo"
        elif type(policy) in _REPLACEMENTS:
            replacement = _REPLACEMENTS[type(policy)]
        else:
            return (f"caller-supplied cache uses {type(policy).__name__}, "
                    "which has no compiled replacement")
    compiled = _compile(protocol, replacement)
    if isinstance(compiled, str):
        return (f"protocol {type(protocol).__name__} has no compiled kernel "
                f"({compiled})")
    return compiled


def compile_protocol(
    protocol: ConsistencyProtocol,
) -> Optional[CompiledProtocol]:
    """Compile a protocol instance to ``(kind, p0, p1, p2, has_p2)``.

    ``kind`` is the kernel specialised for the protocol's *class*
    (:mod:`repro.fastpath.specialise`, built once per class; a call
    through ``run_kernel`` runs its variant for the call's ``observer``
    and ``schedule``, compiled the first time one is asked for), ``p0``
    / ``p1`` / ``p2`` the values of the instance attributes its methods
    read, in order of first use (None stays None); ``has_p2`` is always
    False — the five-slot shape is the one ``bench/`` unpacks, enough
    for every class that reads at most three attributes and keeps no
    per-type table (a ``SelfTuningProtocol`` runs through
    :func:`fast_simulate`, which passes the rest as ``params``).  Returns
    None when the class is refused.  The eager invalidation variants
    share their plain twins' kernel; the push is a delivery-side switch
    :func:`fast_simulate` reads off the protocol.
    """
    compiled = _compile(protocol)
    if isinstance(compiled, str):
        return None
    p0, p1, p2 = compiled.values[:3]
    return (compiled.kernel, p0, p1, p2, False)


def unsupported_reason(
    protocol: ConsistencyProtocol,
    *,
    cache: Optional[Cache] = None,
    faults: Optional[FaultPlan] = None,
) -> Optional[str]:
    """Why the fast path cannot run this configuration (None = it can).

    The strings are what :class:`UnsupportedFastPathError` carries and
    are stable enough to show in diagnostics and tests.  It
    takes the whole configuration, but a ``faults`` plan is never a
    reason: every compiled protocol replays one.  A caller-supplied
    ``cache`` is one only when it is pre-seeded or its replacement
    policy is neither ``LRUPolicy`` nor ``FIFOPolicy``.
    """
    compiled = _compile_run(protocol, cache)
    return compiled if isinstance(compiled, str) else None


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
    cache: Optional[Cache] = None,
) -> SimulationResult:
    """Run one simulation on the fast path.

    Byte-identical to :func:`repro.core.simulator.simulate` for every
    supported configuration — counters, ledger cells, the observer event
    stream, error messages, and float accumulation order included (the
    contract in docs/FASTPATH.md) — and so are the protocol's per-type
    tables and the caller's ``cache`` after the run.

    Raises:
        UnsupportedFastPathError: for configurations outside the
            compiled subset (see :func:`unsupported_reason`).
    """
    compiled_protocol = _compile_run(protocol, cache)
    if isinstance(compiled_protocol, str):
        raise UnsupportedFastPathError(
            f"fast path cannot run this configuration: {compiled_protocol}"
        )
    started = obs_clock.monotonic()
    # Observability on the kernel: an active sink gets the observer
    # event stream through a recording tee (the stream is contract-
    # pinned identical to the reference's); an active registry gets the
    # run's metrics from the kernel itself, after the run — byte-equal
    # totals, enforced by ``contract.diff_metrics``.
    sink = obs_trace.active()
    kernel_observer = (
        obs_trace.sink_observer(sink, observer) if sink is not None
        else observer
    )
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
    values = compiled_protocol.values
    # Each dict attribute keyed by file type becomes a per-run table
    # keyed by type index, written back into the dict after the run
    # (same keys, same insertion order: an existing key keeps its place).
    types = compiled.file_types
    sources = [getattr(protocol, attr) for attr in compiled_protocol.tables]
    tables = [
        {k: source[name] for k, name in enumerate(types) if name in source}
        for source in sources
    ]
    with obs_profile.phase("fastpath.simulate"):
        state = initial_state(compiled, float(start_time), preload)
        result = run_kernel(
            compiled,
            state,
            req_times,
            req_objs,
            kind=compiled_protocol.kernel,
            p0=values[0],
            p1=values[1],
            p2=values[2],
            params=(*values[3:], *tables),
            base_mode=mode is SimulatorMode.BASE,
            costs=costs,
            charge_per_modification=bool(charge_per_modification),
            preload=preload,
            start_time=float(start_time),
            end_time=end_time,
            protocol_name=protocol.name,
            mode_value=mode.value,
            observer=kernel_observer,
            schedule=schedule,
            eager=bool(getattr(protocol, "eager", False)),
            cache=cache,
        )
    for source, table in zip(sources, tables):
        for k, value in table.items():
            source[types[k]] = value
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

    Runs :func:`fast_simulate` when the resolved engine is ``fast`` and
    the reference simulator when it is ``reference``.  Output is
    byte-identical either way; only throughput differs.

    Raises:
        UnsupportedFastPathError: under the fast engine, for a
            configuration outside the compiled subset (see
            :func:`unsupported_reason`).
    """
    if resolve_engine(engine) == FAST:
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
            cache=cache,
        )
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
