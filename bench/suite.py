"""The ``suite-cold`` workload: one cold pass of every registered experiment.

This is the command users run (``python -m repro.experiments all``) and
the only workload in which workload synthesis, CLF synthesis and parse
(table1/table2), the memoised shared sweeps, analysis and report
rendering all execute.  Memoised experiments cost about nothing and are
credited to the experiment that computed the sweep; the per-experiment
layer rows make that visible.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any

from repro.core.clock import hours
from repro.core.protocols import AlexProtocol, TTLProtocol
from repro.core.results import average_results
from repro.core.simulator import SimulatorMode, simulate
from repro.experiments import common
from repro.experiments.registry import all_ids, run_experiment
from repro.trace.reconstruct import workload_from_trace
from repro.trace.synthesis import read_trace, trace_from_workload, write_trace

from harness import Clock


class SuiteCold:
    name = "suite-cold"
    #: The smallest scale at which seed 0 passes every shape check.
    SCALE = 0.25

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.problems: list[str] = []

    def prepare(self, seed: int, clock: Clock, full_oracle: bool = False) -> None:
        self.seed = seed
        self.ids = all_ids()
        with clock.slice("setup.reference_round"):
            self.expected = self.round(Clock())
        with clock.slice("setup.oracle"):
            self._check_sweep_points(seed, every_point=full_oracle)
        self.ops_per_round = len(self.ids)
        self.requests_per_round = self.simulated

    def _check_sweep_points(self, seed: int, every_point: bool) -> None:
        """Sampled points of the pass's own sweeps, redone on the reference
        engine; the shape checks cannot serve as the oracle because some
        seeds' synthetic data fail two of them (README.md, "Correctness")."""
        rng = random.Random(seed)
        families = (AlexProtocol.from_percent, lambda h: TTLProtocol(hours(h)))
        groups = (
            ("worrell", common.worrell_sweeps("optimized", self.SCALE, seed),
             [common.worrell_workload(self.SCALE, seed)]),
            ("campus", common.campus_sweeps(self.SCALE, seed),
             list(common.campus_workloads(self.SCALE, seed))),
        )
        for label, sweeps, workloads in groups:
            for sweep, make in zip(sweeps, families):
                points = sweep.points if every_point else [rng.choice(sweep.points)]
                for point in points:
                    reference = average_results([
                        simulate(
                            workload.server(), make(point.parameter),
                            workload.requests, SimulatorMode.OPTIMIZED,
                            end_time=workload.duration,
                        )
                        for workload in workloads
                    ])
                    if reference != point.metrics:
                        self.problems.append(
                            f"{label}.{sweep.family}({point.parameter}): "
                            f"suite={point.metrics} reference={reference}"
                        )

    def round(self, clock: Clock) -> list[tuple[bool, str]]:
        common.clear_caches()
        outputs = []
        self.simulated = 0
        for experiment_id in self.ids:
            with clock.slice(experiment_id, layer="bench.experiment"):
                with clock.layer(f"experiments.{experiment_id}"):
                    report = run_experiment(
                        experiment_id, scale=self.SCALE, seed=self.seed, workers=1
                    )
                with clock.layer("analysis.render"):
                    text = report.render()
            self.simulated += report.stats.simulated_requests
            outputs.append((report.all_passed, text))
        return outputs

    def check(self, outputs: list[tuple[bool, str]]) -> tuple[int, int]:
        failed = sum(
            1 for mine, reference in zip(outputs, self.expected) if mine != reference
        )
        return len(self.expected), failed + abs(len(self.expected) - len(outputs))

    def pinned(self) -> Any:
        return [[passed, text] for passed, text in self.expected]

    def shape_failures(self) -> list[str]:
        """Experiments whose shape checks fail on this seed's data."""
        return [
            experiment_id
            for experiment_id, (passed, _) in zip(self.ids, self.expected)
            if not passed
        ]

    def layer_metrics(
        self, setup: Clock, untraced: Clock, traced: Clock, probes: Clock
    ) -> dict[str, float]:
        metrics = {
            f"experiments.{experiment_id}_s":
                traced.layer_seconds(f"experiments.{experiment_id}")
            for experiment_id in self.ids
        }
        metrics["analysis.render_s"] = traced.layer_seconds_sum("analysis.render")
        metrics.update(self._clf_metrics(probes))
        return metrics

    def _clf_metrics(self, probes: Clock, repeats: int = 3) -> dict[str, float]:
        """The user's trace path on the suite's own FAS workload."""
        workload = common.campus_workloads(self.SCALE, self.seed)[1]
        path = self.out_dir / "suite-cold.clf"
        for _ in range(repeats):
            trace = trace_from_workload(workload)
            with probes.slice("write_trace"):
                write_trace(trace, path)
            with probes.slice("read_trace"):
                parsed = read_trace(path)
            with probes.slice("workload_from_trace"):
                workload_from_trace(parsed)
        path.unlink()
        records = len(workload.requests)
        return {
            "trace.write_clf_us_per_record": 1e6 * probes.seconds("write_trace") / records,
            "trace.read_clf_us_per_record": 1e6 * probes.seconds("read_trace") / records,
            "trace.reconstruct_s": probes.seconds("workload_from_trace"),
        }
