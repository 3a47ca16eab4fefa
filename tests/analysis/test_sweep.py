"""Parameter sweeps and crossover detection."""

import pytest

from repro.core.clock import days, hours
from repro.core.protocols import TTLProtocol
from repro.core.simulator import SimulatorMode
from repro.analysis.sweep import (
    SweepPoint,
    SweepResult,
    crossover_parameter,
    run_protocol,
    sweep_alex,
    sweep_protocol,
    sweep_ttl,
)
from repro.workload.base import Workload
from tests.conftest import make_history


@pytest.fixture
def workload() -> Workload:
    return Workload(
        histories=[
            make_history("/hot", changes=tuple(days(i) for i in range(1, 6))),
            make_history("/cold", size=2000),
        ],
        requests=[(days(0.25 * i), "/hot" if i % 2 else "/cold")
                  for i in range(1, 60)],
        duration=days(20),
    )


class TestRunProtocol:
    def test_metrics_keys(self, workload):
        metrics = run_protocol([workload], lambda: TTLProtocol(hours(24)),
                               SimulatorMode.OPTIMIZED)
        assert set(metrics) == {
            "total_mb", "miss_rate", "stale_hit_rate",
            "server_operations", "requests", "mean_round_trips",
        }

    def test_fresh_protocol_instance_per_workload(self, workload):
        instances = []

        def factory():
            proto = TTLProtocol(hours(1))
            instances.append(proto)
            return proto

        run_protocol([workload, workload], factory, SimulatorMode.OPTIMIZED)
        assert len(instances) == 2


class TestSweeps:
    def test_alex_sweep_structure(self, workload):
        sweep = sweep_alex([workload], SimulatorMode.OPTIMIZED,
                           thresholds_percent=(0, 50, 100))
        assert sweep.family == "alex"
        assert sweep.parameters() == [0, 50, 100]
        assert len(sweep.series("total_mb")) == 3
        assert sweep.invalidation["stale_hit_rate"] == 0.0

    def test_ttl_sweep_parameters_in_hours(self, workload):
        sweep = sweep_ttl([workload], SimulatorMode.OPTIMIZED,
                          ttl_hours=(0, 125))
        assert sweep.parameters() == [0, 125]

    def test_point_at(self, workload):
        sweep = sweep_ttl([workload], SimulatorMode.OPTIMIZED,
                          ttl_hours=(0, 125))
        assert sweep.point_at(125).parameter == 125
        with pytest.raises(KeyError):
            sweep.point_at(99)

    def test_invalidation_optional(self, workload):
        sweep = sweep_protocol(
            [workload], lambda h: TTLProtocol(hours(h)), (1,),
            SimulatorMode.OPTIMIZED, family="ttl",
            include_invalidation=False,
        )
        assert sweep.invalidation == {}

    def test_sweep_point_indexing(self):
        point = SweepPoint(parameter=5.0, metrics={"total_mb": 1.5})
        assert point["total_mb"] == 1.5


class TestVerifiedRuns:
    """``RunStats.verified_runs`` counts runs the oracle verified —
    it used to be guessed as tasks x workloads."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_protocol_without_spec_rule_is_not_counted(
        self, workload, workers
    ):
        from repro.verify import set_enabled

        class Custom(TTLProtocol):
            """No spec rule: ``checked_simulate`` skips the oracle."""

        set_enabled(True)
        sweep = sweep_protocol(
            [workload], lambda h: Custom(hours(h)), (0, 24, 48),
            SimulatorMode.OPTIMIZED, family="custom", workers=workers,
        )
        # Three unverifiable grid points + the invalidation baseline.
        assert sweep.stats.verified_runs == 1

    def test_zero_when_the_oracle_is_off(self, workload):
        sweep = sweep_ttl([workload], SimulatorMode.OPTIMIZED,
                          ttl_hours=(0, 24))
        assert sweep.stats.verified_runs == 0


class TestCrossover:
    def _sweep(self, values, baseline) -> SweepResult:
        return SweepResult(
            family="alex",
            points=[SweepPoint(p, {"ops": v})
                    for p, v in zip((0, 25, 50, 75, 100), values)],
            invalidation={"ops": baseline},
        )

    def test_finds_first_crossing(self):
        sweep = self._sweep([100, 80, 40, 20, 10], baseline=50)
        assert crossover_parameter(sweep, "ops") == 50

    def test_none_when_never_crossing(self):
        sweep = self._sweep([100, 90, 80, 70, 60], baseline=50)
        assert crossover_parameter(sweep, "ops") is None

    def test_explicit_threshold(self):
        sweep = self._sweep([100, 80, 40, 20, 10], baseline=50)
        assert crossover_parameter(sweep, "ops", threshold=15) == 100
