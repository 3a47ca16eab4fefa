"""The zero-fallback gate (ROADMAP item 4a, "asserted in CI").

Every registered experiment runs its simulations through
``engine_simulate``.  None of them uses a self-tuning protocol or a
caller-supplied cache there — the two configurations the fast path
still hands to the reference engine — so under the fast engine no
experiment may record a single ``engine.fastpath_fallbacks``: fault
plans (``ext-faults``) and eager pushes (``ext-latency``) included.
"""

from __future__ import annotations

from repro.experiments import common
from repro.experiments.registry import all_ids, run_experiment
from repro.fastpath import FAST, resolve_engine
from repro.obs import registry as obs_registry


def test_no_experiment_falls_back_to_the_reference_engine():
    fast_runs = 0.0
    fell_back = {}
    common.clear_caches()
    try:
        for experiment_id in all_ids():
            registry = obs_registry.MetricsRegistry()
            with obs_registry.installed(registry):
                run_experiment(experiment_id, scale=0.02, seed=0, workers=1)
            counters = registry.as_dict()["counters"]
            fast_runs += counters.get("engine.fastpath_runs", 0.0)
            if "engine.fastpath_fallbacks" in counters:
                fell_back[experiment_id] = counters["engine.fastpath_fallbacks"]
    finally:
        common.clear_caches()
    assert fell_back == {}
    if resolve_engine() == FAST:
        assert fast_runs > 0
    else:
        # The reference leg never consults the fallback predicate.
        assert fast_runs == 0
