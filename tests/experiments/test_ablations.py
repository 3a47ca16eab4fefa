"""Directional checks for the design choices DESIGN.md calls out.

Each ablation runs a variant configuration and asserts the directional
effect that justifies the design choice:

* conditional retrieval (the optimized simulator) is a pure win;
* preloading only changes the cold-start transient;
* the popularity↔mutability anti-correlation and the Zipf skew are what
  keep stale rates low — turn either off and staleness rises;
* the unbounded cache is the best case, and recency-aware replacement
  loses least when capacity bites;
* the 43-byte message assumption is not load-bearing — file bodies
  dominate, so a 10x message-size error does not flip the verdict;
* collapsing the cache hierarchy (Figure 1) does not flatter the
  time-based protocols.

Workloads are seeded and run at the smallest scale at which every
direction holds, so the whole module takes about a second.
"""

import pytest

from repro.core.cache import Cache
from repro.core.clock import hours
from repro.core.costs import MessageCosts
from repro.core.hierarchy import drive_workload
from repro.core.protocols import (
    AlexProtocol,
    CERNPolicyProtocol,
    InvalidationProtocol,
    TTLProtocol,
)
from repro.core.replacement import POLICIES, make_policy
from repro.core.simulator import SimulatorMode, simulate
from repro.workload.campus import HCS, CampusWorkload

SCALE = 0.05
#: The flattening inequality needs enough traffic per leaf cache.
HIERARCHY_SCALE = 0.25


def _hcs(seed=31, scale=SCALE, **kwargs):
    return CampusWorkload(
        HCS, seed=seed, request_scale=scale, **kwargs
    ).build()


@pytest.fixture(scope="module")
def hcs_default():
    return _hcs()


def _alex(workload, mode=SimulatorMode.OPTIMIZED, percent=50, **kwargs):
    return simulate(
        workload.server(), AlexProtocol.from_percent(percent),
        workload.requests, mode, end_time=workload.duration, **kwargs,
    )


def test_ablation_conditional_retrieval(hcs_default):
    """Base mode vs optimized mode at the same threshold."""
    base = _alex(hcs_default, SimulatorMode.BASE)
    opt = _alex(hcs_default, SimulatorMode.OPTIMIZED)
    assert opt.bandwidth.total_bytes < base.bandwidth.total_bytes
    assert opt.counters.misses <= base.counters.misses
    assert opt.stale_hit_rate == pytest.approx(base.stale_hit_rate)


def test_ablation_preload(hcs_default):
    """A cold cache pays one compulsory miss per distinct object, no more."""
    warm = _alex(hcs_default)
    cold = _alex(hcs_default, preload=False)
    distinct = len({oid for _, oid in hcs_default.requests})
    extra_misses = cold.counters.misses - warm.counters.misses
    assert 0 < extra_misses <= distinct


def test_ablation_popularity_mutability_correlation(hcs_default):
    """Bestavros' anti-correlation is what keeps weak consistency cheap:
    without it, any file — including the most popular — may change, and
    stale hits multiply."""
    uncorrelated = _hcs(
        mutability_bias=0.0, top_exclude=0.0, bottom_exclude=0.0
    )
    assert (
        _alex(uncorrelated).stale_hit_rate > _alex(hcs_default).stale_hit_rate
    )


def test_ablation_popularity_skew(hcs_default):
    """Worrell "used a uniform distribution to generate file requests";
    the paper argues real streams are skewed.  Flatten the popularity
    (zipf s=0) and the tuned-Alex staleness rises: the Zipf head of
    stable popular files is part of why weak consistency is safe."""
    flat = _alex(_hcs(zipf_s=0.0), percent=100)
    skewed = _alex(hcs_default, percent=100)
    assert flat.stale_hit_rate > skewed.stale_hit_rate


def test_ablation_bounded_cache(hcs_default):
    """The paper assumes an unbounded cache.  Bound it to a fraction of
    the population's bytes and capacity misses appear — quantifying how
    much of the 'near perfect miss rates' depends on that assumption."""
    population_bytes = sum(h.obj.size for h in hcs_default.histories)
    cache = Cache(capacity_bytes=max(1, population_bytes // 10))
    bounded = _alex(hcs_default, cache=cache, preload=False)
    unbounded = _alex(hcs_default, preload=False)
    assert cache.evictions > 0
    assert bounded.counters.misses > unbounded.counters.misses


def test_ablation_cern_policy_baseline(hcs_default):
    """The related-work CERN httpd policy (Expires -> LM-fraction ->
    default) behaves like a fraction-of-age Alex: same regime, and its
    LM-fraction rule is the ancestor of the adaptive idea."""
    cern = simulate(
        hcs_default.server(), CERNPolicyProtocol(lm_fraction=0.1),
        hcs_default.requests, SimulatorMode.OPTIMIZED,
        end_time=hcs_default.duration,
    )
    alex = _alex(hcs_default, percent=10)
    assert cern.stale_hit_rate < 0.05
    # Same decade of bandwidth as the equivalent Alex threshold.
    assert 0.2 < (cern.bandwidth.total_bytes
                  / max(alex.bandwidth.total_bytes, 1)) < 5.0


def test_ablation_message_size_sensitivity(hcs_default):
    """Inflate control messages 10x: the Alex-beats-invalidation verdict
    must not flip, because bodies dominate the byte counts."""
    big = MessageCosts(control_message=430)
    alex = _alex(hcs_default, costs=big)
    inval = simulate(
        hcs_default.server(), InvalidationProtocol(),
        hcs_default.requests, SimulatorMode.OPTIMIZED,
        end_time=hcs_default.duration, costs=big,
    )
    assert alex.bandwidth.total_bytes < inval.bandwidth.total_bytes


def test_replacement_policies_under_pressure():
    """Bound the cache to 15% of the population's bytes: every policy
    misses more than the unbounded cache, and recency beats pure
    insertion order on a Zipf-skewed stream."""
    workload = _hcs(seed=47)
    capacity = max(
        1, sum(h.obj.size for h in workload.histories) * 15 // 100
    )

    def run_with(cache):
        return simulate(
            workload.server(), AlexProtocol.from_percent(20),
            workload.requests, SimulatorMode.OPTIMIZED,
            cache=cache, preload=False, end_time=workload.duration,
        )

    results = {
        name: run_with(
            Cache(capacity_bytes=capacity, policy=make_policy(name))
        )
        for name in sorted(POLICIES)
    }
    unbounded = run_with(Cache())
    for name, result in results.items():
        assert result.counters.misses > unbounded.counters.misses, name
    assert results["lru"].counters.misses <= results["fifo"].counters.misses


def test_hierarchy_flattening_at_workload_scale():
    """The Figure 1 argument on a full campus workload: collapsing a
    two-level cache tree into one cache does not flatter the time-based
    protocols — the premise underlying every single-cache figure."""
    workload = _hcs(seed=41, scale=HIERARCHY_SCALE)
    server = workload.server()
    hier_time = drive_workload(
        server, lambda: TTLProtocol(hours(125)), workload.requests,
        clients=workload.clients, end_time=workload.duration,
    ).total_bytes()
    hier_inval = drive_workload(
        server, InvalidationProtocol, workload.requests,
        clients=workload.clients, deliver_invalidations=True,
        end_time=workload.duration,
    ).total_bytes()
    flat_time = simulate(
        server, TTLProtocol(hours(125)), workload.requests,
        SimulatorMode.OPTIMIZED, end_time=workload.duration,
    ).bandwidth.total_bytes
    flat_inval = simulate(
        server, InvalidationProtocol(), workload.requests,
        SimulatorMode.OPTIMIZED, end_time=workload.duration,
    ).bandwidth.total_bytes
    assert flat_time / flat_inval >= hier_time / hier_inval * 0.999
