"""Serial vs parallel observability: merged output must be identical.

The acceptance bar for the obs layer: with tracing/metrics on, a
``--workers N`` run and a serial run of the same sweep produce the same
merged registry dump and the same deterministic event-record sequence
(spans carry wall times and pids, so they are excluded by design —
``TraceSink.events()`` is the diffable subset).
"""

from __future__ import annotations

import os
import time

from repro.analysis.sweep import sweep_alex, sweep_ttl
from repro.core.simulator import SimulatorMode
from repro.faults import parse_faults
from repro.obs import profile as obs_profile
from repro.obs.registry import (
    MetricsRegistry,
    installed as metrics_installed,
    set_gauge,
)
from repro.obs.trace import TraceSink, installed as trace_installed
from repro.runtime import map_ordered

GRID = (0, 50, 100)


def traced_sweep(workload, *, workers, faults=None, ttl=False):
    """One instrumented sweep; returns (result, registry dump, events)."""
    registry = MetricsRegistry()
    sink = TraceSink()
    with metrics_installed(registry), trace_installed(sink):
        if ttl:
            result = sweep_ttl(
                [workload], SimulatorMode.BASE, ttl_hours=(0, 100),
                workers=workers, faults=faults,
            )
        else:
            result = sweep_alex(
                [workload], SimulatorMode.OPTIMIZED,
                thresholds_percent=GRID, workers=workers, faults=faults,
            )
    return result, registry.as_dict(), sink.events()


class TestMergedRegistries:
    def test_parallel_dump_equals_serial_dump(self, workload):
        serial_result, serial_dump, serial_events = traced_sweep(
            workload, workers=1
        )
        parallel_result, parallel_dump, parallel_events = traced_sweep(
            workload, workers=4
        )
        assert serial_result == parallel_result
        assert parallel_dump["counters"]  # instrumentation actually fired
        assert serial_dump == parallel_dump
        assert serial_events == parallel_events

    def test_engine_counters_cover_every_task(self, workload):
        _, dump, _ = traced_sweep(workload, workers=4)
        # 3 grid points + the invalidation baseline.
        assert dump["counters"]["engine.tasks"] == float(len(GRID) + 1)
        assert dump["gauges"]["sweep.grid_points"] == float(len(GRID))

    def test_spans_present_but_excluded_from_event_diff(self, workload):
        registry = MetricsRegistry()
        sink = TraceSink()
        with metrics_installed(registry), trace_installed(sink):
            sweep_alex([workload], SimulatorMode.OPTIMIZED,
                       thresholds_percent=GRID, workers=4)
        span_names = {
            r["name"] for r in sink.records if r["type"] == "span"
        }
        assert "engine.task" in span_names
        assert "engine.map" in span_names
        assert "sweep.run" in span_names
        assert all(r["type"] == "event" for r in sink.events())


class TestGaugeInterleaving:
    def test_gauge_reset_to_a_workers_own_leftover_is_kept(self):
        """Three tasks set one gauge to 5, 7, 5.  Task 1 is slow, so a
        two-worker pool runs task 2 on the worker task 0 left the gauge
        at 5 on — a write that a "changed since the task began?" test
        drops, ending the merged run at 7 where the serial run ends at
        5.  A task's fresh scope holds every gauge the task set."""

        def task(index):
            set_gauge("sweep.grid_points", (5.0, 7.0, 5.0)[index])
            time.sleep((0.2, 0.8, 0.0)[index])
            return os.getpid()

        gauges = {}
        for workers in (1, 2):
            registry = MetricsRegistry()
            with metrics_installed(registry):
                pids = map_ordered(task, range(3), workers=workers)
            gauges[workers] = registry.as_dict()["gauges"]
        assert pids[0] == pids[2] != pids[1]  # the sleeps steered it
        assert gauges[1] == {"sweep.grid_points": 5.0}
        assert gauges[2] == gauges[1]


class TestWithFaults:
    def test_fault_schedule_metrics_merge_identically(self, workload):
        faults = parse_faults("loss=0.3,retries=1,seed=7").build(
            workload.duration
        )
        _, serial_dump, serial_events = traced_sweep(
            workload, workers=1, faults=faults, ttl=True
        )
        _, parallel_dump, parallel_events = traced_sweep(
            workload, workers=3, faults=faults, ttl=True
        )
        assert serial_dump == parallel_dump
        assert serial_events == parallel_events
        # The invalidation baseline runs under the plan, so the fault
        # counters are populated.
        assert serial_dump["counters"]["faults.attempts"] > 0


class TestWithVerify:
    def test_verify_runs_counter_merges_across_workers(self, workload):
        from repro.verify import set_enabled

        set_enabled(True)
        _, serial_dump, _ = traced_sweep(workload, workers=1)
        _, parallel_dump, _ = traced_sweep(workload, workers=4)
        assert serial_dump == parallel_dump
        # 3 grid points + baseline, one verified run each.
        assert serial_dump["counters"]["verify.runs"] == float(len(GRID) + 1)


class TestProfileMerge:
    def test_hook_calls_identical_serial_vs_parallel(self, workload):
        obs_profile.enable()
        obs_profile.reset()
        sweep_alex([workload], SimulatorMode.OPTIMIZED,
                   thresholds_percent=GRID, workers=1)
        serial_hooks = {
            name: calls for name, calls, _ in obs_profile.hook_table()
        }
        obs_profile.reset()
        sweep_alex([workload], SimulatorMode.OPTIMIZED,
                   thresholds_percent=GRID, workers=4)
        parallel_hooks = {
            name: calls for name, calls, _ in obs_profile.hook_table()
        }
        assert serial_hooks == parallel_hooks == {}  # plain protocols

    def test_parallel_phases_recorded(self, workload):
        obs_profile.enable()
        obs_profile.reset()
        sweep_alex([workload], SimulatorMode.OPTIMIZED,
                   thresholds_percent=GRID, workers=4)
        phases = dict(obs_profile.phase_breakdown())
        for name in ("fork", "dispatch", "harvest", "reassembly"):
            assert name in phases, f"missing engine phase {name!r}"

    def test_serial_phase_recorded(self, workload):
        obs_profile.enable()
        obs_profile.reset()
        sweep_alex([workload], SimulatorMode.OPTIMIZED,
                   thresholds_percent=GRID, workers=1)
        phases = dict(obs_profile.phase_breakdown())
        assert "serial" in phases
