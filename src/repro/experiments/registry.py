"""The experiment registry: every table and figure, by id.

Each experiment module exposes ``EXPERIMENT_ID``, ``TITLE``, and
``run(scale, seed) -> ExperimentReport``; this registry maps ids to
those runners for the CLI, the tests, and the benchmarks.  Paper
experiments come first, in paper order (``figure1`` … ``table2``),
followed by the extensions that implement Section 5's future-work
directions:

>>> all_ids()[:3]
['figure1', 'figure2', 'figure3']
>>> all_ids()[-1]
'ext-faults'
>>> "figure8" in EXPERIMENTS
True

:func:`run_experiment` is the one entry point everything else goes
through.  It resolves the worker count (``workers`` argument >
:func:`repro.runtime.default_workers` > ``REPRO_WORKERS`` > serial),
scopes it as the default so every sweep the runner triggers fans out
accordingly, and attaches aggregated
:class:`~repro.runtime.RunStats` instrumentation to the returned
report.  Results are bit-identical for every worker count; only the
instrumentation (which is excluded from report equality) differs.  See
``docs/PERFORMANCE.md`` for the execution model.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from repro.analysis.report import ExperimentReport
from repro.experiments import (
    ext_dynamic,
    ext_faults,
    ext_latency,
    ext_scalability,
    ext_worrell,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    table1,
    table2,
)
from repro.fastpath import resolve_engine
from repro.obs import clock as obs_clock
from repro.runtime import RunStats, collecting, default_workers, resolve_workers
from repro.verify.oracle import counted_runs

#: Paper experiments first (in paper order), then the extensions that
#: implement Section 5's future-work directions.
_MODULES = (
    figure1, figure2, figure3, figure4, figure5,
    figure6, figure7, figure8, table1, table2,
    ext_latency, ext_dynamic, ext_scalability, ext_worrell, ext_faults,
)

#: id -> (title, runner)
EXPERIMENTS: dict[str, tuple[str, Callable[..., ExperimentReport]]] = {
    module.EXPERIMENT_ID: (module.TITLE, module.run) for module in _MODULES
}


def all_ids() -> list[str]:
    """Every registered experiment id, in paper order."""
    return list(EXPERIMENTS)


def run_experiment(
    experiment_id: str,
    scale: float = 1.0,
    seed: int = 0,
    workers: Optional[int] = None,
) -> ExperimentReport:
    """Run one experiment by id and attach run instrumentation.

    Args:
        experiment_id: one of :func:`all_ids`.
        scale: workload scale factor (1.0 = paper-calibrated size).
        seed: base RNG seed, forwarded to the experiment's workloads.
        workers: process-pool size for the sweeps the experiment runs;
            None resolves via :func:`repro.runtime.resolve_workers`.

    Returns:
        The experiment's report with ``report.stats`` populated: wall
        time of the whole run, simulated requests summed over the sweeps
        that actually executed (memoized sweeps contribute zero), and
        the resolved worker count and engine.

    Raises:
        KeyError: for an unknown id (message lists the valid ones).
    """
    try:
        _, runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; valid ids: "
            f"{', '.join(all_ids())}"
        ) from None
    resolved = resolve_workers(workers)
    started = obs_clock.monotonic()
    with (
        default_workers(resolved),
        collecting() as recorded,
        counted_runs() as verified,
    ):
        report = runner(scale=scale, seed=seed)
    stats = RunStats.combine(
        recorded,
        wall_seconds=obs_clock.monotonic() - started,
        workers=resolved,
    )
    # Not the sum of the sweeps' own counts: an experiment may also
    # verify simulations outside any sweep, or run none at all (and its
    # runs still ran on the resolved engine).
    report.stats = replace(stats, verified_runs=verified(),
                           engine=resolve_engine())
    return report
