"""Command-line entry point: regenerate any table or figure.

Usage::

    python -m repro.experiments figure6            # one experiment
    python -m repro.experiments all                # everything, serially
    python -m repro.experiments all --workers 4    # everything, in parallel
    python -m repro.experiments figure2 --scale 0.2 --seed 7

Parallelism (see ``docs/PERFORMANCE.md``): ``--workers N`` (default: the
``REPRO_WORKERS`` environment variable, else 1) fans work out across
processes on two axes.  A single experiment parallelizes across its
parameter-grid points.  ``all`` first warms the sweep caches shared by
several figures with grid-level parallelism, then fans the experiment
ids themselves out across the pool — the forked workers inherit the
warmed caches, so nothing is computed twice.  Output is byte-identical
for every worker count; reports print in registry order regardless of
completion order.
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.analysis.report import ExperimentReport
from repro.cli import _add_engine_flag, _add_obs_flags, apply_run_flags
from repro.experiments.common import warm_shared_sweeps
from repro.experiments.registry import all_ids, run_experiment
from repro.runtime import default_workers, map_ordered, resolve_workers
from repro.verify import counted_runs


def _run_all_parallel(
    ids: list[str], scale: float, seed: int, workers: int
) -> list[ExperimentReport]:
    """Run many experiments across a process pool (warm caches first)."""
    with default_workers(workers):
        warm_shared_sweeps(scale=scale, seed=seed)
    # Each forked worker inherits the warmed sweep caches; within a
    # worker the sweeps that remain run serially (workers=1) — the pool
    # is already saturated at the experiment level.
    return map_ordered(
        lambda experiment_id: run_experiment(
            experiment_id, scale=scale, seed=seed, workers=1
        ),
        ids,
        workers=workers,
    )


def main(argv: list[str] | None = None) -> int:
    """Run the requested experiments and print their reports.

    Returns a non-zero exit status when any shape check fails.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of Gwertzman & Seltzer, "
            "'World-Wide Web Cache Consistency' (USENIX 1996)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[*all_ids(), "all"],
        help="experiment id, or 'all'",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor (1.0 = paper-calibrated size)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base RNG seed"
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool size for sweeps and the 'all' fan-out "
             "(default: $REPRO_WORKERS, else 1 = serial; results are "
             "byte-identical either way — see docs/PERFORMANCE.md)",
    )
    parser.add_argument(
        "--csv", type=str, default=None, metavar="DIR",
        help="also dump each experiment's data series/tables as CSV "
             "files into DIR",
    )
    parser.add_argument(
        "--svg", type=str, default=None, metavar="DIR",
        help="also render each experiment's series as SVG charts in DIR",
    )
    _add_obs_flags(parser)
    parser.add_argument(
        "--verify", action="store_true",
        help="replay every simulation through the repro.verify "
             "consistency oracle; any counter, bandwidth-ledger, or "
             "event divergence aborts with a diff (see docs/PROTOCOLS.md "
             "'Invariants & verification')",
    )
    _add_engine_flag(parser)
    args = parser.parse_args(argv)
    apply_run_flags(args)

    # Observability outputs are flushed even when a run fails — a trace
    # of the failing run is exactly what the flags are for.
    with obs.session(args.metrics_out, args.trace_out):
        failures = 0
        with counted_runs() as verified:
            ids = all_ids() if args.experiment == "all" else [args.experiment]
            workers = resolve_workers(args.workers)
            if len(ids) > 1 and workers > 1:
                reports = _run_all_parallel(
                    ids, args.scale, args.seed, workers
                )
            else:
                reports = (
                    run_experiment(i, scale=args.scale, seed=args.seed,
                                   workers=workers)
                    for i in ids
                )
            for experiment_id, report in zip(ids, reports):
                print(report.render())
                if report.stats is not None:
                    print(f"  ({report.stats.render()})")
                if args.csv:
                    from repro.analysis.export import dump_experiment_data

                    written = dump_experiment_data(
                        report.data, args.csv, experiment_id
                    )
                    print(f"  csv: {', '.join(str(p) for p in written)}")
                if args.svg:
                    from repro.analysis.svg import dump_experiment_svg

                    rendered_svgs = dump_experiment_svg(
                        report.data, args.svg, experiment_id
                    )
                    if rendered_svgs:
                        print(
                            "  svg: "
                            f"{', '.join(str(p) for p in rendered_svgs)}"
                        )
                print()
                if not report.all_passed:
                    failures += 1
        if args.verify:
            print(f"oracle: {verified()} run(s) verified, zero divergence")
    if failures:
        print(f"{failures} experiment(s) had failing shape checks",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
