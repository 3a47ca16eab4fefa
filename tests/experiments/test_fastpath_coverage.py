"""What the fast engine runs, and what it refuses.

Every registered experiment runs its simulations through
``engine_simulate``, so under the fast engine every one of them must run
on the kernel: fault plans (``ext-faults``) and eager pushes
(``ext-latency``) included.  So must any shipped protocol with any cache
the kernel keeps: none, ``Cache()``, or a bounded one under the built-in
LRU, ``LRUPolicy`` or ``FIFOPolicy``.  What the fast engine refuses is
pinned here by its reason string: it raises ``UnsupportedFastPathError``
carrying that reason, and only ``engine="reference"`` runs it.
"""

from __future__ import annotations

import pytest

from repro.core.cache import Cache, CacheEntry
from repro.core.protocols.factory import PROTOCOLS, build_protocol
from repro.core.replacement import FIFOPolicy, LFUPolicy, LRUPolicy, SizePolicy
from repro.core.simulator import simulate
from repro.experiments import common
from repro.experiments.registry import all_ids, run_experiment
from repro.fastpath import (
    FAST,
    REFERENCE,
    UnsupportedFastPathError,
    diff_results,
    engine_simulate,
    resolve_engine,
    unsupported_reason,
)
from repro.obs import registry as obs_registry
from repro.workload.worrell import WorrellWorkload

#: Every cache configuration the kernel keeps, by its capacity.
CACHES = {
    "none": lambda capacity: None,
    "unbounded": lambda capacity: Cache(),
    "lru": lambda capacity: Cache(capacity),
    "lru-policy": lambda capacity: Cache(capacity, LRUPolicy()),
    "fifo-policy": lambda capacity: Cache(capacity, FIFOPolicy()),
}


@pytest.fixture(scope="module")
def workload():
    return WorrellWorkload(files=40, requests=400, seed=3).build()


@pytest.mark.parametrize("cache_name", list(CACHES))
@pytest.mark.parametrize("protocol_name", PROTOCOLS)
def test_no_shipped_protocol_falls_back_under_any_kept_cache(
    workload, protocol_name, cache_name
):
    sizes = [history.obj.size for history in workload.histories]
    # Room for the largest object and a tenth of the rest: evictions.
    capacity = max(sizes) + sum(sizes) // 10
    protocol = build_protocol(protocol_name, 10.0)
    make_cache = CACHES[cache_name]
    assert unsupported_reason(protocol, cache=make_cache(capacity)) is None
    registry = obs_registry.MetricsRegistry()
    with obs_registry.installed(registry):
        engine_simulate(
            workload.server(), protocol, workload.requests,
            end_time=workload.duration, cache=make_cache(capacity),
            engine=FAST,
        )
    assert registry.as_dict()["counters"]["engine.fastpath_runs"] == 1.0


class CustomLRU(LRUPolicy):
    pass


def _seeded(capacity):
    cache = Cache()
    cache.store(CacheEntry("/a", 0, 10, "html", 0.0, 0.0, 0.0))
    return cache


#: Each refused cache, by its capacity, with its reason string.
REFUSED = [
    (lambda capacity: Cache(capacity, LFUPolicy()),
     "caller-supplied cache uses LFUPolicy, which has no compiled "
     "replacement"),
    (lambda capacity: Cache(capacity, SizePolicy()),
     "caller-supplied cache uses SizePolicy, which has no compiled "
     "replacement"),
    (lambda capacity: Cache(capacity, CustomLRU()),
     "caller-supplied cache uses CustomLRU, which has no compiled "
     "replacement"),
    (_seeded, "caller-supplied cache is pre-seeded (not empty at call time)"),
]


@pytest.mark.parametrize(
    "make_cache,reason", REFUSED, ids=["lfu", "size", "custom", "seeded"]
)
def test_what_is_refused_is_pinned(workload, make_cache, reason):
    capacity = sum(history.obj.size for history in workload.histories) // 2
    protocol = build_protocol("alex", 10.0)
    assert unsupported_reason(protocol, cache=make_cache(capacity)) == reason
    with pytest.raises(UnsupportedFastPathError) as refused:
        engine_simulate(
            workload.server(), build_protocol("alex", 10.0),
            workload.requests, end_time=workload.duration,
            cache=make_cache(capacity), engine=FAST,
        )
    assert reason in str(refused.value)
    dispatched = engine_simulate(
        workload.server(), build_protocol("alex", 10.0), workload.requests,
        end_time=workload.duration, cache=make_cache(capacity),
        engine=REFERENCE,
    )
    expected = simulate(
        workload.server(), build_protocol("alex", 10.0), workload.requests,
        end_time=workload.duration, cache=make_cache(capacity),
    )
    assert diff_results(dispatched, expected) == []


def test_no_experiment_falls_back_to_the_reference_engine():
    # A refused configuration would raise here instead of running.
    fast_runs = 0.0
    common.clear_caches()
    try:
        for experiment_id in all_ids():
            registry = obs_registry.MetricsRegistry()
            with obs_registry.installed(registry):
                run_experiment(experiment_id, scale=0.02, seed=0, workers=1)
            counters = registry.as_dict()["counters"]
            fast_runs += counters.get("engine.fastpath_runs", 0.0)
    finally:
        common.clear_caches()
    if resolve_engine() == FAST:
        assert fast_runs > 0
    else:
        assert fast_runs == 0
