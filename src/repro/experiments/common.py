"""Shared machinery for the experiment modules.

Figures 2 and 3 are two views of one sweep (base-simulator bandwidth and
rates); Figures 4 and 5 share the optimized-simulator sweep; Figures 6,
7, and 8 share the campus-trace sweep.  The builders here are memoized so
running several figures in one process performs each sweep once.

The ``scale`` parameter shrinks workloads proportionally (files and
requests together for the Worrell workload; requests for the fixed-size
campus populations) so tests and benchmarks can run the same experiments
in seconds.  ``scale=1.0`` is the paper-calibrated size.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from functools import lru_cache
from typing import Any, Callable, Iterator

from repro.analysis.sweep import (
    ALEX_THRESHOLDS_PERCENT,
    TTL_HOURS,
    SweepResult,
    sweep_alex,
    sweep_ttl,
)
from repro.core.simulator import SimulatorMode
from repro.runtime import RunStats, collecting
from repro.workload.base import Workload
from repro.workload.campus import build_campus_workloads
from repro.workload.worrell import WorrellWorkload

#: Paper-calibrated Worrell run: 2085 files over 56 days.
WORRELL_FILES = 2085
#: Request volume for the Worrell runs at scale 1.0.  The paper does not
#: state Worrell's request count; 100k over 56 days (~0.86 requests per
#: file per day) puts bandwidth in the figures' MB range.
WORRELL_REQUESTS = 100_000


def _sparse(values: tuple, step: int) -> tuple:
    """Thin a parameter grid, always keeping the first and last points.

    The thinned grid is returned in ascending order: when the stride
    lands short of the final value, that anchor is *inserted in order*
    rather than appended (a plain append could emit an out-of-order tail
    point for grids whose last stride point exceeds the final value,
    breaking the sorted-grid assumption of crossover detection and the
    figures' x axes).

    >>> _sparse((0, 25, 50, 75, 100), 2)
    (0, 50, 100)
    >>> _sparse((0, 20, 40, 30), 2)   # stride point 40 > final value 30
    (0, 30, 40)
    """
    if step <= 1:
        return values
    kept = set(values[::step])
    kept.add(values[-1])
    return tuple(sorted(kept))


def sweep_grids(scale: float) -> tuple[tuple, tuple]:
    """(alex thresholds, ttl hours) grids; thinned at reduced scale."""
    if scale >= 0.99:
        return ALEX_THRESHOLDS_PERCENT, TTL_HOURS
    step = 2 if scale >= 0.25 else 4
    return _sparse(ALEX_THRESHOLDS_PERCENT, step), _sparse(TTL_HOURS, step)


@lru_cache(maxsize=8)
def worrell_workload(scale: float = 1.0, seed: int = 0) -> Workload:
    """The Worrell workload at the given scale (memoized)."""
    return WorrellWorkload(
        files=max(10, int(round(WORRELL_FILES * scale))),
        requests=max(100, int(round(WORRELL_REQUESTS * scale))),
        seed=seed,
    ).build()


@lru_cache(maxsize=8)
def campus_workloads(scale: float = 1.0, seed: int = 0) -> tuple[Workload, ...]:
    """The three campus workloads (DAS, FAS, HCS), memoized."""
    built = build_campus_workloads(seed=seed, request_scale=scale)
    return tuple(built.values())


#: The keys of the shared sweeps called inside each active
#: :func:`shared_uses`.
_uses: list[list[tuple]] = []


@contextmanager
def shared_uses() -> Iterator[list[tuple]]:
    """Collect the key of every shared sweep called inside the context,
    memo hits included: ``(function name, *arguments)``."""
    used: list[tuple] = []
    _uses.append(used)
    try:
        yield used
    finally:
        _uses.remove(used)


def _shared(sweeps: Callable[..., Any]) -> Any:
    """``sweeps`` memoised, each call noted by :func:`shared_uses`."""
    memo = lru_cache(maxsize=8)(sweeps)
    signature = inspect.signature(sweeps)

    @functools.wraps(sweeps)
    def shared(*args: Any, **keywords: Any) -> Any:
        bound = signature.bind(*args, **keywords)
        bound.apply_defaults()
        for used in _uses:
            used.append((sweeps.__name__, *bound.args))
        return memo(*bound.args)

    shared.cache_clear = memo.cache_clear  # type: ignore[attr-defined]
    return shared


@_shared
def worrell_sweeps(
    mode_value: str, scale: float = 1.0, seed: int = 0
) -> tuple[SweepResult, SweepResult]:
    """(alex, ttl) sweeps over the Worrell workload in the given mode."""
    mode = SimulatorMode(mode_value)
    workloads = [worrell_workload(scale, seed)]
    alex_grid, ttl_grid = sweep_grids(scale)
    return (
        sweep_alex(workloads, mode, thresholds_percent=alex_grid),
        sweep_ttl(workloads, mode, ttl_hours=ttl_grid),
    )


@_shared
def campus_sweeps(
    scale: float = 1.0, seed: int = 0
) -> tuple[SweepResult, SweepResult]:
    """(alex, ttl) sweeps averaged over the campus traces (optimized mode).

    This is the configuration behind Figures 6-8: "These results depict
    the averages of the FAS, HCS, and DAS traces."
    """
    workloads = list(campus_workloads(scale, seed))
    alex_grid, ttl_grid = sweep_grids(scale)
    return (
        sweep_alex(workloads, SimulatorMode.OPTIMIZED,
                   thresholds_percent=alex_grid),
        sweep_ttl(workloads, SimulatorMode.OPTIMIZED, ttl_hours=ttl_grid),
    )


def warm_shared_sweeps(
    scale: float = 1.0, seed: int = 0
) -> dict[tuple, list[RunStats]]:
    """Pre-compute the sweep groups shared by several experiments.

    Figures 2/3 share the base Worrell sweep, Figures 4/5 the optimized
    Worrell sweep, and Figures 6/7/8 (plus ``ext-latency``) the campus
    sweep.  ``python -m repro.experiments all --workers N`` calls this
    *before* fanning experiments out across processes: the shared sweeps
    run once here with grid-level parallelism, and the forked experiment
    workers inherit the warmed memo caches instead of each recomputing
    them.  Serial runs get the same effect implicitly from the
    ``lru_cache`` memoization.

    Returns what each group cost, by its :func:`shared_uses` key: the
    records of the sweeps it ran (none for a group already memoised), to
    be credited to the first experiment that uses it, as a serial run
    credits them.
    """
    warmed: dict[tuple, list[RunStats]] = {}
    for sweeps, args in ((worrell_sweeps, ("base", scale, seed)),
                         (worrell_sweeps, ("optimized", scale, seed)),
                         (campus_sweeps, (scale, seed))):
        with collecting() as recorded, shared_uses() as used:
            sweeps(*args)
        warmed[used[0]] = recorded
    return warmed


def clear_caches() -> None:
    """Drop all memoized workloads and sweeps (tests use this)."""
    worrell_workload.cache_clear()
    campus_workloads.cache_clear()
    worrell_sweeps.cache_clear()
    campus_sweeps.cache_clear()
