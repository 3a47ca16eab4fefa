"""Run instrumentation: what did a sweep or experiment actually cost?

Every sweep executed by the engine produces a :class:`RunStats` record —
wall time, simulated requests, requests/sec, peak grid size, worker
count — attached to the :class:`~repro.analysis.sweep.SweepResult`, and
``run_experiment`` aggregates the sweeps it triggered into a per-report
record via the :func:`collecting` context.  ``python -m
repro.experiments`` prints the record after each report, and
``docs/PERFORMANCE.md`` explains how to read it.

Instrumentation never participates in result equality: two sweeps that
measured different wall times but produced the same points compare
equal, which is what the parallel-vs-serial equivalence tests assert.

>>> stats = RunStats(wall_seconds=2.0, simulated_requests=100_000,
...                  workers=4, grid_points=21, peak_grid_size=21)
>>> stats.requests_per_second
50000.0
>>> RunStats.combine([stats, stats]).simulated_requests
200000
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator, Optional, Sequence


@dataclass(frozen=True)
class RunStats:
    """Instrumentation for one engine-driven run.

    Attributes:
        wall_seconds: elapsed wall-clock time of the run.
        simulated_requests: client requests simulated by the run, summed
            over every sweep point, workload, and baseline.  Memoized
            sweeps re-used from cache contribute zero — the field counts
            work *performed*, not work *represented*.
        workers: resolved process-pool size the run was started with
            (1 = the serial fallback).
        grid_points: parameter points executed across all sweeps.
        peak_grid_size: the largest single parameter grid executed —
            the upper bound on useful sweep-level parallelism.
        verified_runs: simulations that were replayed through the
            ``repro.verify`` consistency oracle (0 when verification was
            off for the run).
        engine: the resolved simulator engine the run selected —
            ``"fast"`` (the :mod:`repro.fastpath` batched kernel, which
            refuses configurations outside its compiled subset) or
            ``"reference"`` (:mod:`repro.core.simulator` throughout).
    """

    wall_seconds: float
    simulated_requests: int
    workers: int = 1
    grid_points: int = 0
    peak_grid_size: int = 0
    verified_runs: int = 0
    engine: str = "fast"

    @property
    def requests_per_second(self) -> float:
        """Simulated-request throughput (0.0 for an unmeasurable run)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.simulated_requests / self.wall_seconds

    def render(self) -> str:
        """One report line, e.g. ``2.1s wall, 840,000 requests, ...``."""
        parts = [
            f"{self.wall_seconds:.1f}s wall",
            f"{self.simulated_requests:,} simulated requests",
            f"{self.requests_per_second:,.0f} req/s",
        ]
        if self.peak_grid_size:
            parts.append(f"peak grid {self.peak_grid_size}")
        parts.append(f"workers {self.workers}")
        parts.append(f"engine {self.engine}")
        if self.verified_runs:
            parts.append(f"{self.verified_runs} oracle-verified runs")
        return ", ".join(parts)

    def as_dict(self) -> dict:
        """JSON-compatible form, for CSV/benchmark tooling."""
        data = asdict(self)
        data["requests_per_second"] = self.requests_per_second
        return data

    @staticmethod
    def combine(
        runs: Sequence["RunStats"],
        *,
        wall_seconds: Optional[float] = None,
        workers: Optional[int] = None,
    ) -> "RunStats":
        """Aggregate sweep-level records into one run-level record.

        Requests and grid points sum; peak grid size is the maximum.
        ``wall_seconds``/``workers`` default to the sum of the parts and
        the parts' maximum, but an enclosing run (which also spends wall
        time outside its sweeps) should pass its own measurements.

        Raises:
            ValueError: when ``runs`` is empty and no ``wall_seconds``
                override is given to anchor the record.
        """
        if not runs and wall_seconds is None:
            raise ValueError("cannot combine zero RunStats without wall_seconds")
        return RunStats(
            wall_seconds=(
                wall_seconds if wall_seconds is not None
                else sum(r.wall_seconds for r in runs)
            ),
            simulated_requests=sum(r.simulated_requests for r in runs),
            workers=(
                workers if workers is not None
                else max((r.workers for r in runs), default=1)
            ),
            grid_points=sum(r.grid_points for r in runs),
            peak_grid_size=max((r.peak_grid_size for r in runs), default=0),
            verified_runs=sum(r.verified_runs for r in runs),
            engine=runs[0].engine if runs else "fast",
        )


#: Stack of active collectors; :func:`record` appends to every level so
#: an experiment-level collector sees the sweeps run inside it even when
#: further contexts are nested deeper.
_collectors: list[list[RunStats]] = []


@contextmanager
def collecting() -> Iterator[list[RunStats]]:
    """Collect every :func:`record` call made inside the context."""
    bucket: list[RunStats] = []
    _collectors.append(bucket)
    try:
        yield bucket
    finally:
        _collectors.remove(bucket)


def record(stats: RunStats) -> None:
    """Report a completed run to all active collectors (if any)."""
    for bucket in _collectors:
        bucket.append(stats)
