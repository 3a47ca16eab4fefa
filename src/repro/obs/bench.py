"""The benchmark emitter: ``make bench`` -> ``BENCH_<date>.json``.

Runs every registered experiment at reduced scale (the same computation
``tests/experiments/`` verifies) and writes one machine-readable
perf-trajectory sample: total wall time, simulated requests/sec, peak
grid size, and per-experiment timings.  Committing one sample per perf
PR gives every future optimization a before/after baseline — the
ROADMAP's "fast as the hardware allows" goal needs a recorded
trajectory to be falsifiable.

Usage::

    python -m repro.obs.bench                       # BENCH_<date>.json
    python -m repro.obs.bench --scale 0.1 --workers 4 --out .
    python -m repro.obs.bench --baseline benchmarks/BENCH_baseline.json

With ``--baseline`` the run additionally compares its requests/sec
against the committed seed baseline and exits non-zero when throughput
regressed by more than ``--max-regression`` (default 30%) — the CI
bench smoke job runs exactly this.  The committed baseline is a
*conservative floor* (see docs/OBSERVABILITY.md, "Bench baseline
policy"), refreshed via ``make bench-baseline`` when hardware or the
engine changes the regime.

Every document also records which simulator ``engine`` produced it
(``fast`` or ``reference``; see docs/FASTPATH.md) and a
``speedup_vs_reference`` ratio measured on one sample workload timed
under *both* engines (detail in ``speedup_sample``).  ``--min-speedup
RATIO`` turns the ratio into a gate: exit non-zero when the fast engine
fails to beat the reference by at least RATIO.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.obs import clock

#: Bench-document schema identifier.
SCHEMA = "repro.bench/1"

#: Keys every bench document must carry (schema validation).
REQUIRED_KEYS = (
    "schema",
    "generated",
    "scale",
    "seed",
    "workers",
    "engine",
    "wall_seconds",
    "simulated_requests",
    "requests_per_second",
    "speedup_vs_reference",
    "peak_grid_size",
    "experiments",
)

#: Keys every per-experiment entry must carry.
EXPERIMENT_KEYS = (
    "id",
    "wall_seconds",
    "simulated_requests",
    "requests_per_second",
    "grid_points",
    "peak_grid_size",
    "all_passed",
)


def validate(document: dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid bench sample."""
    if document.get("schema") != SCHEMA:
        raise ValueError(
            f"not a {SCHEMA} document (schema={document.get('schema')!r})"
        )
    missing = [key for key in REQUIRED_KEYS if key not in document]
    if missing:
        raise ValueError(f"bench document missing keys: {missing}")
    if not isinstance(document["experiments"], list):
        raise ValueError("bench document 'experiments' must be a list")
    for entry in document["experiments"]:
        entry_missing = [key for key in EXPERIMENT_KEYS if key not in entry]
        if entry_missing:
            raise ValueError(
                f"bench experiment entry missing keys: {entry_missing}"
            )


def measure_speedup(
    scale: float = 0.25, seed: int = 0, repeats: int = 2
) -> dict[str, Any]:
    """Time one sample simulation under both engines; report the ratio.

    The sample is a Worrell workload under Alex at a 10% threshold —
    the fast path's bread-and-butter configuration.  Each engine runs
    ``repeats`` times and keeps its best (minimum) wall time, so a
    single scheduler hiccup cannot fake a regression.  The returned
    detail dict lands in the bench document under ``speedup_sample``;
    the ratio (reference seconds / fast seconds) is the document's
    top-level ``speedup_vs_reference``.
    """
    from repro.core.protocols import AlexProtocol
    from repro.core.simulator import simulate
    from repro.fastpath import fast_simulate
    from repro.workload.worrell import WorrellWorkload

    workload = WorrellWorkload(
        files=max(10, int(2085 * scale)),
        requests=max(100, int(100_000 * scale)),
        seed=seed,
    ).build()
    server = workload.server()
    requests = workload.requests
    duration = workload.duration

    def best_of(run) -> float:
        best = float("inf")
        for _ in range(max(1, repeats)):
            started = clock.monotonic()
            run()
            best = min(best, clock.monotonic() - started)
        return best

    fast_seconds = best_of(lambda: fast_simulate(
        server, AlexProtocol.from_percent(10.0), requests,
        end_time=duration,
    ))
    reference_seconds = best_of(lambda: simulate(
        server, AlexProtocol.from_percent(10.0), requests,
        end_time=duration,
    ))
    count = len(requests)
    return {
        "workload": "worrell/alex-10pct",
        "requests": count,
        "fast_seconds": round(fast_seconds, 4),
        "reference_seconds": round(reference_seconds, 4),
        "fast_requests_per_second": (
            round(count / fast_seconds, 1) if fast_seconds > 0 else 0.0
        ),
        "reference_requests_per_second": (
            round(count / reference_seconds, 1)
            if reference_seconds > 0 else 0.0
        ),
        "speedup": (
            round(reference_seconds / fast_seconds, 2)
            if fast_seconds > 0 else 0.0
        ),
    }


def run_bench(
    scale: float = 0.25,
    seed: int = 0,
    workers: Optional[int] = None,
    stamp: Optional[str] = None,
) -> dict[str, Any]:
    """Run every experiment at ``scale`` and build the bench document."""
    # Imported here (not at module top) so ``repro.obs`` never depends on
    # the experiment layer at import time.
    from repro.experiments import common
    from repro.experiments.registry import all_ids, run_experiment
    from repro.fastpath import resolve_engine
    from repro.runtime import resolve_workers

    common.clear_caches()
    resolved = resolve_workers(workers)
    entries: list[dict[str, Any]] = []
    started = clock.monotonic()
    for experiment_id in all_ids():
        report = run_experiment(
            experiment_id, scale=scale, seed=seed, workers=resolved
        )
        stats = report.stats
        assert stats is not None  # run_experiment always attaches stats
        entries.append(
            {
                "id": experiment_id,
                "wall_seconds": round(stats.wall_seconds, 4),
                "simulated_requests": stats.simulated_requests,
                "requests_per_second": round(stats.requests_per_second, 1),
                "grid_points": stats.grid_points,
                "peak_grid_size": stats.peak_grid_size,
                "all_passed": report.all_passed,
            }
        )
    wall = clock.monotonic() - started
    simulated = sum(e["simulated_requests"] for e in entries)
    speedup_sample = measure_speedup(scale=scale, seed=seed)
    document: dict[str, Any] = {
        "schema": SCHEMA,
        "generated": stamp if stamp is not None else clock.date_stamp(),
        "scale": scale,
        "seed": seed,
        "workers": resolved,
        "engine": resolve_engine(),
        "wall_seconds": round(wall, 4),
        "simulated_requests": simulated,
        "requests_per_second": round(simulated / wall, 1) if wall > 0 else 0.0,
        "speedup_vs_reference": speedup_sample["speedup"],
        "speedup_sample": speedup_sample,
        "peak_grid_size": max(
            (e["peak_grid_size"] for e in entries), default=0
        ),
        "experiments": entries,
    }
    validate(document)
    return document


def check_baseline(
    document: dict[str, Any],
    baseline: dict[str, Any],
    max_regression: float = 0.30,
) -> list[str]:
    """Regression findings of ``document`` against ``baseline`` (empty=ok).

    Only overall requests/sec is gated: per-experiment wall times are
    too noisy on shared runners for a hard gate, but they ride along in
    the artifact for human comparison.
    """
    validate(baseline)
    findings: list[str] = []
    floor = baseline["requests_per_second"] * (1.0 - max_regression)
    measured = document["requests_per_second"]
    if measured < floor:
        findings.append(
            f"requests/sec regressed: measured {measured:,.0f} < floor "
            f"{floor:,.0f} ({baseline['requests_per_second']:,.0f} baseline "
            f"- {100 * max_regression:.0f}% tolerance)"
        )
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (``python -m repro.obs.bench``)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run the experiment suite at reduced scale and emit a "
                    "BENCH_<date>.json perf-trajectory sample.",
    )
    parser.add_argument("--scale", type=float, default=0.25,
                        help="workload scale factor (default 0.25, the "
                             "smallest at which every shape check holds)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None, metavar="N")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="directory for BENCH_<date>.json (default .)")
    parser.add_argument("--stamp", default=None, metavar="YYYY-MM-DD",
                        help="override the date stamp (tests use this)")
    parser.add_argument("--baseline", type=Path, default=None, metavar="PATH",
                        help="committed baseline BENCH json to gate against")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed requests/sec drop vs the baseline "
                             "(default 0.30 = 30%%)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="RATIO",
                        help="fail unless the fast engine beats the "
                             "reference engine by at least RATIO on the "
                             "speedup sample (e.g. 1.0 = at least as "
                             "fast; the CI smoke gate)")
    args = parser.parse_args(argv)

    document = run_bench(
        scale=args.scale, seed=args.seed, workers=args.workers,
        stamp=args.stamp,
    )
    target = args.out / f"BENCH_{document['generated']}.json"
    target.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(
        f"bench: {document['simulated_requests']:,} simulated requests in "
        f"{document['wall_seconds']:.1f}s "
        f"({document['requests_per_second']:,.0f} req/s, "
        f"workers {document['workers']}, engine {document['engine']}) "
        f"-> {target}"
    )
    sample = document["speedup_sample"]
    print(
        f"bench: fast path {document['speedup_vs_reference']:.2f}x "
        f"reference on {sample['workload']} "
        f"({sample['fast_requests_per_second']:,.0f} vs "
        f"{sample['reference_requests_per_second']:,.0f} req/s, "
        f"{sample['requests']:,} requests, best of 2)"
    )

    status = 0
    if (
        args.min_speedup is not None
        and document["speedup_vs_reference"] < args.min_speedup
    ):
        print(
            f"bench: fast-path speedup {document['speedup_vs_reference']:.2f}x "
            f"below required {args.min_speedup:g}x",
            file=sys.stderr,
        )
        status = 1
    failed = [e["id"] for e in document["experiments"] if not e["all_passed"]]
    if failed:
        print(f"bench: shape checks failed for: {', '.join(failed)}",
              file=sys.stderr)
        status = 1
    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
        findings = check_baseline(
            document, baseline, max_regression=args.max_regression
        )
        for finding in findings:
            print(f"bench: {finding}", file=sys.stderr)
        if findings:
            status = 1
        else:
            print(
                f"bench: within {100 * args.max_regression:.0f}% of baseline "
                f"({baseline['requests_per_second']:,.0f} req/s)"
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
