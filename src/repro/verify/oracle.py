"""The differential oracle: run the real simulator, replay the spec, diff.

:func:`verify_simulation` executes one run twice — once through the
production :class:`~repro.core.simulator.Simulation` (with an
:data:`~repro.core.simulator.EventObserver` recording every event) and
once through the brute-force :class:`~repro.verify.spec.SpecModel` — and
compares:

* the **event streams**, event-for-event (kind, time, object id);
* every :class:`~repro.core.metrics.ConsistencyCounters` field;
* every :class:`~repro.core.metrics.BandwidthLedger` cell
  (control bytes, body bytes, exchange counts, per category).

Both comparisons are :mod:`repro.core.results`'s — the one exact differ
(``==``, floats included) every leg calls.  The oracle also replays the
run through :mod:`repro.fastpath` and holds it to the same standard
(see :func:`_check_fastpath`).

Any divergence raises :class:`ConsistencyViolation` carrying the full
diff.  :func:`checked_simulate` is the drop-in used by the experiment
pipeline: a plain :func:`~repro.fastpath.engine_simulate` (which routes
to the fast or reference engine) unless verification is enabled for the
process (``--verify`` flags call :func:`set_enabled`; the
``REPRO_VERIFY`` environment variable covers forked sweep workers,
which inherit the module state either way).
"""

from __future__ import annotations

import copy
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.core.cache import Cache
from repro.core.costs import DEFAULT_COSTS, MessageCosts
from repro.core.metrics import (
    CATEGORIES,
    COUNTER_FIELDS,
    LEDGER_TABLES,
    BandwidthLedger,
    ConsistencyCounters,
)
from repro.core.protocols.base import ConsistencyProtocol
from repro.core.results import SimulationResult, diff_events, diff_results
from repro.core.server import OriginServer
from repro.core.simulator import Simulation, SimulatorMode
from repro.fastpath import diff_metrics, engine_simulate, fast_simulate
from repro.faults.plan import FaultPlan
from repro.obs import clock as obs_clock
from repro.obs import registry as obs_metrics
from repro.obs import trace as obs_trace
from repro.verify.spec import (
    SpecModel,
    SpecOutcome,
    UnsupportedProtocolError,
    rule_for,
)

_TRUTHY = {"1", "true", "yes", "on"}

_enabled = os.environ.get("REPRO_VERIFY", "").strip().lower() in _TRUTHY


def set_enabled(flag: bool) -> None:
    """Turn process-wide verification on or off.

    Also mirrors the setting into ``REPRO_VERIFY`` so worker processes —
    forked *or* spawned — agree with the parent.
    """
    global _enabled
    _enabled = bool(flag)
    os.environ["REPRO_VERIFY"] = "1" if flag else "0"


def is_enabled() -> bool:
    """True when :func:`checked_simulate` runs the oracle."""
    return _enabled


@contextmanager
def counted_runs() -> Iterator[Callable[[], int]]:
    """Count the runs the oracle verifies inside the region.

    Yields a callable to read *after* the region: the number of
    ``verify.runs`` its metrics scope collected, pool workers' runs
    included (the engine ships each task's scope back).  The region runs
    under :func:`repro.obs.registry.scoped` only when verification is
    enabled — every verified run already publishes into a scope, so the
    count costs nothing extra there — and reads 0 otherwise.
    """
    if not _enabled:
        yield lambda: 0
        return
    with obs_metrics.scoped() as scope:
        yield lambda: int(scope.counter("verify.runs").value)


class ConsistencyViolation(AssertionError):
    """The simulator and the spec model disagreed.

    Attributes:
        report: the full :class:`OracleReport` with every divergence.
    """

    def __init__(self, report: "OracleReport") -> None:
        self.report = report
        lines = "\n  ".join(report.divergences[:20])
        more = len(report.divergences) - 20
        suffix = f"\n  ... and {more} more" if more > 0 else ""
        super().__init__(
            f"oracle divergence for {report.protocol_name} "
            f"[{report.mode}]: {len(report.divergences)} difference(s)\n"
            f"  {lines}{suffix}"
        )


@dataclass
class OracleReport:
    """Outcome of one differential check.

    ``counters_checked`` / ``ledger_cells_checked`` are the size of the
    surface :func:`~repro.core.results.diff_results` always covers.
    """

    protocol_name: str
    mode: str
    events_checked: int = 0
    counters_checked: int = len(COUNTER_FIELDS)
    ledger_cells_checked: int = len(LEDGER_TABLES) * len(CATEGORIES)
    divergences: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when simulator and spec agreed on everything."""
        return not self.divergences


def _check_spec(
    report: OracleReport,
    result: SimulationResult,
    events: list[tuple[str, float, str]],
    outcome: SpecOutcome,
) -> None:
    """Leg 1: the spec's prediction against the simulator, exactly.

    The :class:`SpecOutcome` is deliberately no
    :class:`SimulationResult` — the spec keeps its own literal alphabet
    (``spec._COUNTER_NAMES``) — so it is adapted into the result shape
    here and compared by the one differ with ``==``, floats included.
    It predicts cells, not identity: protocol name, mode and duration
    are the simulator's own.  Alphabet drift is loud: a counter only
    the spec names is a ``TypeError``, one only the dataclass names
    stays 0 on the spec side and diverges as soon as the simulator
    counts it.
    """
    predicted = SimulationResult(
        result.protocol_name,
        result.mode,
        # (the spec types its dict ``float`` for ``stale_age_sum``'s sake)
        ConsistencyCounters(**outcome.counters),  # type: ignore[arg-type]
        BandwidthLedger(
            outcome.control_bytes, outcome.body_bytes, outcome.exchanges
        ),
        result.duration,
    )
    sides = ("simulator", "spec")
    report.divergences += diff_events(
        events, outcome.events, label="spec", sides=sides
    )
    report.divergences += diff_results(
        result, predicted, label="spec", sides=sides
    )
    report.events_checked = min(len(events), len(outcome.events))


def _check_fastpath(
    report: OracleReport,
    result: SimulationResult,
    events: list[tuple[str, float, str]],
    reference_metrics: obs_metrics.MetricsRegistry,
    server: OriginServer,
    protocol: ConsistencyProtocol,
    fresh_protocol: ConsistencyProtocol,
    request_list: list[tuple[float, str]],
    mode: SimulatorMode,
    end_time: Optional[float],
    **config: Any,
) -> None:
    """Replay the run on the fast path and diff it against the reference.

    ``config`` is the run configuration :func:`verify_simulation` gave
    the primary run (costs, preload, start time, charging policy, fault
    plan), forwarded whole to the replay.

    This is the third leg of the oracle: the same run executes on the
    compiled arrays of :mod:`repro.fastpath` and must match the
    reference counter-for-counter, ledger-cell-for-ledger-cell, and
    event-for-event — *exactly* (no float tolerance; the contract in
    docs/FASTPATH.md) — and the protocol state it leaves
    (``state_snapshot``) must be the reference run's.  Fault plans, the eager variants and the self-tuning protocol
    are covered: the kernel replays the plan's own compiled schedule and
    the protocol's per-type tables.  Every class with a spec rule
    compiles, so the leg always runs.  Divergences are labelled
    ``fastpath.*`` in the report.

    The metrics-equivalence clause rides along: the fast replay runs
    under a fresh registry (so the kernel's batched flush lands there),
    ``reference_metrics`` is the scope the primary reference run
    published into the historical per-observation way, and the two
    dumps must serialize byte-for-byte identically (engine bookkeeping
    names excluded; see :func:`repro.fastpath.diff_metrics`).  The
    ambient trace sink is suspended for the replay so it never
    duplicates the primary run's event stream.

    ``fresh_protocol`` is a copy of the caller's instance taken before
    the reference run: an adaptive protocol's learned state is part of
    what a run starts from, so the replay must start where the
    reference run started, not where it ended.  ``protocol`` is the
    reference run's instance, after that run.
    """
    fast_events: list[tuple[str, float, str]] = []
    fast_registry = obs_metrics.MetricsRegistry()
    previous_sink = obs_trace.install(None)
    try:
        with obs_metrics.installed(fast_registry):
            fast_result = fast_simulate(
                server,
                fresh_protocol,
                request_list,
                mode,
                end_time=end_time,
                observer=lambda kind, t, oid: fast_events.append(
                    (kind, t, oid)
                ),
                **config,
            )
    finally:
        obs_trace.install(previous_sink)
    report.divergences.extend(
        diff_results(fast_result, result)
        + diff_events(fast_events, events)
        + diff_metrics(fast_registry.as_dict(), reference_metrics.as_dict())
    )
    fast_state, state = fresh_protocol.state_snapshot(), protocol.state_snapshot()
    if fast_state != state:
        report.divergences.append(
            f"fastpath.protocol_state: fast={fast_state!r} reference={state!r}"
        )


def verify_simulation(
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
) -> tuple[SimulationResult, OracleReport]:
    """Run one simulation under the oracle and return both outcomes.

    The ``protocol`` instance must be fresh (unused): adaptive protocols
    carry state, and the spec re-derives that state from the instance's
    construction parameters.  A ``faults`` plan is handed to both sides
    (it is configuration, like ``costs``): each compiles its own
    schedule from its own view of the modification feed, and the oracle
    then diffs the two replays of the faulty delivery — loss, retries,
    drops, crashes, and the ``fault_*`` event kinds included.

    Raises:
        ConsistencyViolation: on any counter, ledger, or event
            divergence.
        UnsupportedProtocolError: when no spec rule covers the protocol.
    """
    request_list = list(requests)
    rule = rule_for(protocol)
    check_started = obs_clock.monotonic()
    fresh_protocol = copy.deepcopy(protocol)
    config: dict[str, Any] = dict(
        costs=costs,
        preload=preload,
        start_time=start_time,
        charge_per_modification=charge_per_modification,
        faults=faults,
    )

    # Neither replay outlives its run: under a fault plan each holds
    # its own compiled schedule, and the fast-path leg builds one more.
    # The reference run publishes into a scope (construction included:
    # the observer tee is chosen there), which is the metrics clause's
    # expectation and folds into the ambient registry, if any.
    events: list[tuple[str, float, str]] = []
    with obs_metrics.scoped() as reference_metrics:
        result = Simulation(
            server,
            protocol,
            mode,
            observer=lambda kind, t, oid: events.append((kind, t, oid)),
            **config,
        ).run(request_list, end_time=end_time)
    outcome = SpecModel(server, rule, mode, **config).run(
        request_list, end_time=end_time
    )

    report = OracleReport(protocol_name=result.protocol_name, mode=result.mode)
    _check_spec(report, result, events, outcome)
    _check_fastpath(
        report, result, events, reference_metrics, server, protocol,
        fresh_protocol, request_list, mode, end_time, **config,
    )
    if not report.ok:
        raise ConsistencyViolation(report)
    obs_metrics.emit("verify.runs")
    obs_trace.span(
        "verify.run",
        obs_clock.monotonic() - check_started,
        protocol=report.protocol_name,
        events=report.events_checked,
    )
    return result, report


def checked_simulate(
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
    force: bool = False,
) -> SimulationResult:
    """Drop-in for :func:`~repro.core.simulator.simulate` that
    self-checks against the spec when verification is enabled.

    Verification is skipped (:func:`~repro.fastpath.engine_simulate`
    runs, dispatching to the selected engine) when:

    * it is disabled and ``force`` is False;
    * a caller-supplied ``cache`` is in play — bounded capacity and
      pre-seeded state are outside the spec's scope;
    * the protocol class has no spec rule (custom subclasses).

    Raises:
        ConsistencyViolation: when verification runs and diverges.
    """
    config: dict[str, Any] = dict(
        costs=costs,
        preload=preload,
        start_time=start_time,
        end_time=end_time,
        charge_per_modification=charge_per_modification,
        faults=faults,
    )
    verify = (force or _enabled) and cache is None
    if verify:
        try:
            rule_for(protocol)
        except UnsupportedProtocolError:
            verify = False
    if not verify:
        return engine_simulate(
            server, protocol, requests, mode, cache=cache, **config
        )
    result, _report = verify_simulation(
        server, protocol, requests, mode, **config
    )
    return result
