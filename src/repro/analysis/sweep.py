"""Parameter sweeps over consistency protocols.

Every figure in the paper's evaluation is a sweep: the Alex update
threshold from 0-100% or the TTL from 0-500 hours, plotted against the
invalidation protocol's (parameter-free) horizontal line.  Figure 6 adds
averaging over the three campus traces.  This module runs those sweeps
and returns tidy per-point metric dictionaries.

Sweep points are independent simulations, so :func:`sweep_protocol`
executes them through the :mod:`repro.runtime` engine: pass ``workers``
(or set ``REPRO_WORKERS`` / :func:`repro.runtime.default_workers`) to
fan the grid out across processes.  The serial path (``workers=1``, the
default) and the parallel path produce bit-identical
:class:`SweepResult` values; only the attached :class:`RunStats`
instrumentation differs, and it is excluded from equality.

The containers are plain data and easy to build by hand, which is how
the report/plot layers are tested:

>>> point = SweepPoint(parameter=50.0, metrics={"total_mb": 12.5})
>>> point["total_mb"]
12.5
>>> sweep = SweepResult(
...     family="alex",
...     points=[SweepPoint(0.0, {"ops": 400.0}), SweepPoint(50.0, {"ops": 80.0})],
...     invalidation={"ops": 100.0},
... )
>>> sweep.parameters()
[0.0, 50.0]
>>> sweep.series("ops")
[400.0, 80.0]
>>> crossover_parameter(sweep, "ops")
50.0
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.clock import hours
from repro.core.costs import DEFAULT_COSTS, MessageCosts
from repro.core.protocols import (
    AlexProtocol,
    InvalidationProtocol,
    TTLProtocol,
)
from repro.core.protocols.base import ConsistencyProtocol
from repro.core.results import SimulationResult, average_results
from repro.core.simulator import SimulatorMode
from repro.faults.plan import FaultPlan
from repro.obs import clock as obs_clock
from repro.obs import registry as obs_metrics
from repro.obs import trace as obs_trace
from repro.fastpath import resolve_engine
from repro.runtime import RunStats, map_ordered, record, resolve_workers
from repro.verify.oracle import checked_simulate, counted_runs
from repro.workload.base import Workload

#: Alex thresholds (percent) matching the figures' x axis, 0-100.
ALEX_THRESHOLDS_PERCENT: tuple[float, ...] = tuple(range(0, 101, 5))
#: TTL values (hours) matching the figures' x axis, 0-500.
TTL_HOURS: tuple[float, ...] = tuple(range(0, 501, 25))

#: Grid marker for the invalidation baseline task (so the baseline
#: parallelizes alongside the swept points).
_BASELINE = object()


@dataclass
class SweepPoint:
    """One sweep sample: a parameter value and the averaged metrics."""

    parameter: float
    metrics: dict[str, float]

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]


@dataclass
class SweepResult:
    """A full sweep of one protocol family plus the invalidation baseline.

    Attributes:
        family: ``alex`` or ``ttl`` (or a custom label).
        points: per-parameter averaged metrics, in parameter order.
        invalidation: averaged metrics of the invalidation protocol on
            the same workloads (the horizontal line in every figure).
        stats: run instrumentation for the sweep that produced this
            result (None for hand-built results).  Excluded from
            equality: identical sweeps compare equal however long they
            took and however many workers ran them.
    """

    family: str
    points: list[SweepPoint]
    invalidation: dict[str, float] = field(default_factory=dict)
    stats: Optional[RunStats] = field(
        default=None, compare=False, repr=False
    )

    def parameters(self) -> list[float]:
        """The swept parameter values."""
        return [p.parameter for p in self.points]

    def series(self, key: str) -> list[float]:
        """One metric across the sweep (e.g. ``total_mb``)."""
        return [p.metrics[key] for p in self.points]

    def point_at(self, parameter: float) -> SweepPoint:
        """The sweep point for an exact parameter value.

        Raises:
            KeyError: when the parameter was not swept.
        """
        for p in self.points:
            if p.parameter == parameter:
                return p
        raise KeyError(f"parameter {parameter!r} not in sweep")


def verify_run(
    workload: Workload,
    protocol: ConsistencyProtocol,
    mode: SimulatorMode,
    costs: MessageCosts = DEFAULT_COSTS,
    faults: Optional[FaultPlan] = None,
) -> SimulationResult:
    """Run one workload, self-checking through the consistency oracle.

    This is the oracle hook for every sweep task: it delegates to
    :func:`repro.verify.checked_simulate`, which replays the run through
    the brute-force :class:`~repro.verify.spec.SpecModel` and raises
    :class:`~repro.verify.ConsistencyViolation` on any counter,
    bandwidth-ledger, or event divergence — but only when verification is
    enabled (``--verify`` / ``REPRO_VERIFY=1``).  Forked sweep workers
    inherit the enable flag from the parent process, so each worker
    verifies its own grid points.  A ``faults`` plan is forwarded intact
    — under the oracle, both the simulator and the spec replay it.
    """
    return checked_simulate(
        workload.server(),
        protocol,
        workload.requests,
        mode,
        costs=costs,
        end_time=workload.duration,
        faults=faults,
    )


def run_protocol(
    workloads: Sequence[Workload],
    protocol_factory: Callable[[], ConsistencyProtocol],
    mode: SimulatorMode,
    costs: MessageCosts = DEFAULT_COSTS,
    faults: Optional[FaultPlan] = None,
) -> dict[str, float]:
    """Run one protocol over every workload and average the metrics.

    A fresh protocol instance is built per workload (protocols may hold
    adaptive state).  Averaging weighs each workload equally, as Figure 6
    does for FAS/HCS/DAS.  Each run goes through :func:`verify_run`, so
    an enabled oracle checks every simulation behind every sweep point.
    The same ``faults`` plan is applied to every workload; its schedule
    still differs per workload because it compiles against each
    workload's own modification feed.
    """
    results = []
    for workload in workloads:
        results.append(
            verify_run(workload, protocol_factory(), mode, costs, faults)
        )
    return average_results(results)


def sweep_protocol(
    workloads: Sequence[Workload],
    make_protocol: Callable[[float], ConsistencyProtocol],
    parameters: Sequence[float],
    mode: SimulatorMode,
    *,
    family: str,
    costs: MessageCosts = DEFAULT_COSTS,
    include_invalidation: bool = True,
    workers: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
) -> SweepResult:
    """Sweep ``make_protocol(parameter)`` over ``parameters``.

    Each grid point (and the invalidation baseline) is an independent
    task run through :func:`repro.runtime.map_ordered`: serial when the
    resolved worker count is 1, forked across a process pool otherwise,
    with results reassembled in parameter order either way.  The
    returned result carries :class:`~repro.runtime.RunStats`
    instrumentation and is also reported to any active
    :func:`repro.runtime.collecting` context.

    Args:
        workloads: the workloads to average over (fresh protocol
            instance per workload).
        make_protocol: parameter -> protocol factory.
        parameters: the grid, in presentation order.
        mode: base or optimized simulator behaviour.
        costs: byte cost model.
        include_invalidation: also run the invalidation baseline.
        workers: process-pool size; None resolves via
            :func:`repro.runtime.resolve_workers` (flag > default >
            ``REPRO_WORKERS`` > serial).
        faults: optional :class:`~repro.faults.FaultPlan` applied to
            every run in the sweep (grid points and baseline alike), so
            the whole grid experiences the *same* delivery faults.
    """
    resolved = resolve_workers(workers)
    started = obs_clock.monotonic()

    tasks: list = list(parameters)
    if include_invalidation:
        tasks.append(_BASELINE)

    def run_task(task):
        if task is _BASELINE:
            return run_protocol(
                workloads, InvalidationProtocol, mode, costs, faults
            )
        return SweepPoint(
            parameter=task,
            metrics=run_protocol(
                workloads, lambda: make_protocol(task), mode, costs, faults
            ),
        )

    with counted_runs() as verified:
        outcomes = map_ordered(run_task, tasks, workers=resolved)

    invalidation: dict[str, float] = {}
    if include_invalidation:
        invalidation = outcomes.pop()
    points: list[SweepPoint] = outcomes

    simulated = sum(
        round(p.metrics["requests"]) * len(workloads) for p in points
    )
    if invalidation:
        simulated += round(invalidation["requests"]) * len(workloads)
    stats = RunStats(
        wall_seconds=obs_clock.monotonic() - started,
        simulated_requests=simulated,
        workers=resolved,
        grid_points=len(points),
        peak_grid_size=len(points),
        verified_runs=verified(),
        engine=resolve_engine(),
    )
    record(stats)
    obs_metrics.set_gauge("sweep.grid_points", float(len(points)))
    obs_trace.span(
        "sweep.run",
        stats.wall_seconds,
        family=family,
        points=len(points),
        workers=resolved,
    )
    return SweepResult(
        family=family, points=points, invalidation=invalidation, stats=stats
    )


def sweep_alex(
    workloads: Sequence[Workload],
    mode: SimulatorMode,
    thresholds_percent: Sequence[float] = ALEX_THRESHOLDS_PERCENT,
    costs: MessageCosts = DEFAULT_COSTS,
    workers: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
) -> SweepResult:
    """The Alex update-threshold sweep (x axis of panels (a))."""
    return sweep_protocol(
        workloads,
        AlexProtocol.from_percent,
        thresholds_percent,
        mode,
        family="alex",
        costs=costs,
        workers=workers,
        faults=faults,
    )


def sweep_ttl(
    workloads: Sequence[Workload],
    mode: SimulatorMode,
    ttl_hours: Sequence[float] = TTL_HOURS,
    costs: MessageCosts = DEFAULT_COSTS,
    workers: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
) -> SweepResult:
    """The TTL sweep in hours (x axis of panels (b))."""
    return sweep_protocol(
        workloads,
        lambda h: TTLProtocol(hours(h)),
        ttl_hours,
        mode,
        family="ttl",
        costs=costs,
        workers=workers,
        faults=faults,
    )


def crossover_parameter(
    sweep: SweepResult, key: str, threshold: Optional[float] = None
) -> Optional[float]:
    """First swept parameter at which ``key`` drops to/below a level.

    The level defaults to the invalidation baseline's value of the same
    metric — e.g. "Alex requires an update threshold of at least 64% in
    order to achieve the same server load as the invalidation protocol".

    Returns:
        The parameter value, or None when the series never crosses.
    """
    level = threshold if threshold is not None else sweep.invalidation[key]
    for point in sweep.points:
        if point.metrics[key] <= level:
            return point.parameter
    return None
