"""The process-pool sweep engine: resolution, mapping, equivalence."""

import os
import signal

import pytest

from repro.analysis.sweep import sweep_alex, sweep_ttl
from repro.core.simulator import SimulatorMode
from repro.runtime import engine
from repro.runtime import (
    default_workers,
    derive_seed,
    map_ordered,
    resolve_workers,
    set_default_workers,
)
from repro.workload.worrell import WorrellWorkload


class TestResolveWorkers:
    def test_serial_by_default(self, monkeypatch):
        monkeypatch.delenv(engine.WORKERS_ENV_VAR, raising=False)
        assert resolve_workers() == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(engine.WORKERS_ENV_VAR, "8")
        with default_workers(2):
            assert resolve_workers(3) == 3

    def test_default_context_beats_env(self, monkeypatch):
        monkeypatch.setenv(engine.WORKERS_ENV_VAR, "8")
        with default_workers(2):
            assert resolve_workers() == 2
        assert resolve_workers() == 8

    def test_env_var_honoured(self, monkeypatch):
        monkeypatch.setenv(engine.WORKERS_ENV_VAR, "5")
        assert resolve_workers() == 5

    def test_invalid_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv(engine.WORKERS_ENV_VAR, "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()

    def test_clamped_to_at_least_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1

    def test_set_default_returns_previous(self):
        previous = set_default_workers(6)
        try:
            assert resolve_workers() == 6
        finally:
            set_default_workers(previous)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_distinct_per_index(self):
        seeds = {derive_seed(0, i) for i in range(100)}
        assert len(seeds) == 100

    def test_distinct_per_base(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_non_negative_63_bit(self):
        for i in range(10):
            seed = derive_seed(123, i)
            assert 0 <= seed < 2 ** 63

    @pytest.mark.parametrize("base,index,seed", [
        (0, 0, 7070836379803831727),
        (7, 3, 1529793891446696395),
        (2 ** 64 - 1, 1000, 3988209136557760522),
    ])
    def test_pinned_values(self, base, index, seed):
        """Literal values: the seeds behind ``ext-faults`` (and every
        other per-task stochastic stage) must not drift when the mixer
        is refactored."""
        assert derive_seed(base, index) == seed


class TestMapOrdered:
    def test_serial_is_list_comprehension(self):
        assert map_ordered(lambda x: x * x, [3, 1, 2], workers=1) == [9, 1, 4]

    def test_parallel_preserves_order(self):
        items = list(range(20))
        assert map_ordered(lambda x: x * x, items, workers=4) == [
            x * x for x in items
        ]

    def test_parallel_supports_closures(self):
        captured = {"offset": 1000}
        result = map_ordered(
            lambda x: x + captured["offset"], [1, 2, 3], workers=3
        )
        assert result == [1001, 1002, 1003]

    def test_parallel_exception_propagates(self):
        def boom(x):
            if x == 2:
                raise ValueError("task failure")
            return x

        with pytest.raises(ValueError, match="task failure"):
            map_ordered(boom, [1, 2, 3], workers=2)

    def test_nested_map_in_worker_runs_serially(self):
        # The inner map runs inside a forked pool worker, where the
        # engine must fall back to the serial path instead of spawning a
        # nested (deadlocking) pool.
        def outer(x):
            return sum(map_ordered(lambda y: y + x, [1, 2], workers=4))

        assert map_ordered(outer, [10, 20], workers=2) == [23, 43]

    def test_empty_and_single_item(self):
        assert map_ordered(lambda x: x, [], workers=4) == []
        assert map_ordered(lambda x: -x, [5], workers=4) == [-5]


class TestCrashTolerance:
    """A worker that dies mid-task must not hang ``map_ordered``.

    The tasks below SIGKILL their own worker process — the failure mode
    a plain ``pool.map`` loop turns into a lost result or a hang.  The
    ``engine._in_worker`` guard keeps the kill inside pool workers only,
    so the serial fallback (and the parent) always survives.
    """

    def test_killed_worker_recovers(self, tmp_path):
        marker = tmp_path / "killed-once"

        def task(x):
            if x == 3 and engine._in_worker and not marker.exists():
                marker.write_text("x")
                os.kill(os.getpid(), signal.SIGKILL)
            return x * x

        expected = [x * x for x in range(8)]
        assert map_ordered(task, list(range(8)), workers=2) == expected
        assert marker.exists()  # the kill really happened

    def test_persistent_crasher_degrades_to_serial(self):
        # Index 1 kills *every* worker that picks it up, so every pool
        # round breaks; after the restart budget the engine must finish
        # the remainder serially in the parent (where the guard is off).
        def task(x):
            if x == 1 and engine._in_worker:
                os.kill(os.getpid(), signal.SIGKILL)
            return x + 100

        assert map_ordered(task, [0, 1, 2, 3], workers=2) == [
            100, 101, 102, 103,
        ]

    def test_task_exception_still_propagates_after_crash_rework(self):
        # A task that *raises* is a task failure, not a worker death:
        # no retry, the exception surfaces unchanged.
        def boom(x):
            if x == 0:
                raise KeyError("task bug")
            return x

        with pytest.raises(KeyError, match="task bug"):
            map_ordered(boom, [0, 1, 2], workers=2)


@pytest.fixture(scope="module")
def workload():
    return WorrellWorkload(files=20, requests=600, seed=3).build()


class TestParallelSerialEquivalence:
    """`--workers N` must be bit-identical to the serial fallback."""

    GRID = (0, 25, 50, 75, 100)

    def test_alex_sweep_identical(self, workload):
        serial = sweep_alex([workload], SimulatorMode.OPTIMIZED,
                            thresholds_percent=self.GRID, workers=1)
        parallel = sweep_alex([workload], SimulatorMode.OPTIMIZED,
                              thresholds_percent=self.GRID, workers=4)
        assert serial == parallel  # instrumentation excluded from equality
        for a, b in zip(serial.points, parallel.points):
            assert a.parameter == b.parameter
            assert a.metrics == b.metrics  # exact float equality
        assert serial.invalidation == parallel.invalidation

    def test_ttl_sweep_identical_via_default_workers(self, workload):
        serial = sweep_ttl([workload], SimulatorMode.BASE,
                           ttl_hours=(0, 100, 200))
        with default_workers(4):
            parallel = sweep_ttl([workload], SimulatorMode.BASE,
                                 ttl_hours=(0, 100, 200))
        assert serial == parallel
        assert serial.stats.workers == 1
        assert parallel.stats.workers == 4

    def test_points_stay_in_grid_order(self, workload):
        parallel = sweep_alex([workload], SimulatorMode.OPTIMIZED,
                              thresholds_percent=self.GRID, workers=4)
        assert parallel.parameters() == list(self.GRID)
