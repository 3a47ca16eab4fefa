"""Cache replacement policies under capacity pressure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import Cache, CacheEntry
from repro.core.protocols import AlexProtocol
from repro.core.replacement import (
    FIFOPolicy,
    LFUPolicy,
    LRUPolicy,
    POLICIES,
    SizePolicy,
    make_policy,
)
from repro.core.results import result_to_dict
from repro.core.simulator import simulate
from repro.workload import MicrosoftProxyWorkload


def entry(oid, size=100):
    return CacheEntry(
        object_id=oid, version=0, size=size, file_type="html",
        fetched_at=0.0, validated_at=0.0, last_modified=-100.0,
    )


def bounded_cache(policy, capacity=250):
    return Cache(capacity_bytes=capacity, policy=policy)


class TestRegistry:
    def test_all_policies_constructible(self):
        for name in POLICIES:
            assert make_policy(name).name == name

    def test_case_insensitive(self):
        assert make_policy("LRU").name == "lru"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown replacement"):
            make_policy("random")

    def test_policy_without_capacity_rejected(self):
        with pytest.raises(ValueError, match="meaningless"):
            Cache(policy=LRUPolicy())


class TestLRU:
    def test_evicts_least_recently_used(self):
        cache = bounded_cache(LRUPolicy())
        cache.store(entry("/a"))
        cache.store(entry("/b"))
        cache.lookup("/a")
        cache.store(entry("/c"))
        assert "/b" not in cache
        assert "/a" in cache and "/c" in cache

    def test_matches_builtin_lru(self):
        """A bounded cache with no policy and one with ``LRUPolicy`` agree:
        entries in the same order, bytes, evictions and victims, on a few
        lookups and stores and on a simulator run (with the same result)."""
        def state(cache):
            pool, victims = {e.object_id: e for e in cache}, []
            while pool:
                victims.append(cache.policy.choose_victim(pool))
                del pool[victims[-1]]
            return ([e.object_id for e in cache], cache.used_bytes,
                    cache.evictions, victims)

        pluggable = bounded_cache(LRUPolicy())
        builtin = Cache(capacity_bytes=250)
        ops = ["/a", "/b", "/a", "/c", "/d", "/b", "/e"]
        for oid in ops:
            for cache in (pluggable, builtin):
                if cache.lookup(oid) is None:
                    cache.store(entry(oid))
        assert state(pluggable) == state(builtin)

        workload = MicrosoftProxyWorkload(
            sites=5, files_per_site=40, requests=4000, seed=0
        ).build()
        capacity = sum(h.obj.size for h in workload.histories) // 10
        runs = []
        for cache in (Cache(capacity), Cache(capacity, LRUPolicy())):
            result = simulate(
                workload.server(), AlexProtocol.from_percent(20),
                workload.requests, cache=cache, preload=False,
                end_time=workload.duration,
            )
            runs.append((result_to_dict(result), state(cache)))
        assert runs[0][1][2] > 1000
        assert runs[1] == runs[0]


class TestFIFO:
    def test_ignores_accesses(self):
        cache = bounded_cache(FIFOPolicy())
        cache.store(entry("/a"))
        cache.store(entry("/b"))
        cache.lookup("/a")            # must NOT save /a
        cache.store(entry("/c"))
        assert "/a" not in cache
        assert "/b" in cache


class TestLFU:
    def test_evicts_least_frequent(self):
        cache = bounded_cache(LFUPolicy())
        cache.store(entry("/a"))
        cache.store(entry("/b"))
        cache.lookup("/a")
        cache.lookup("/a")
        cache.lookup("/b")
        cache.store(entry("/c"))       # /b has fewer hits than /a
        assert "/b" not in cache
        assert "/a" in cache

    def test_tie_broken_by_recency(self):
        cache = bounded_cache(LFUPolicy())
        cache.store(entry("/a"))
        cache.store(entry("/b"))
        cache.lookup("/a")
        cache.lookup("/b")             # both count 1; /a older
        cache.store(entry("/c"))
        assert "/a" not in cache

    def test_counts_cleared_on_eviction(self):
        policy = LFUPolicy()
        cache = bounded_cache(policy)
        cache.store(entry("/a"))
        for _ in range(5):
            cache.lookup("/a")
        cache.drop("/a")
        cache.store(entry("/a"))       # re-inserted with zero count
        cache.store(entry("/b"))
        cache.lookup("/b")
        cache.store(entry("/c"))
        assert "/a" not in cache       # fresh /a lost its old frequency


class TestSize:
    def test_evicts_largest_first(self):
        cache = Cache(capacity_bytes=1000, policy=SizePolicy())
        cache.store(entry("/small", size=100))
        cache.store(entry("/big", size=700))
        cache.store(entry("/mid", size=300))   # overflow: /big goes
        assert "/big" not in cache
        assert "/small" in cache and "/mid" in cache

    def test_never_evicts_incoming_entry(self):
        cache = Cache(capacity_bytes=1000, policy=SizePolicy())
        cache.store(entry("/a", size=600))
        cache.store(entry("/huge", size=900))  # bigger than anything
        assert "/huge" in cache
        assert "/a" not in cache


@settings(max_examples=40, deadline=None)
@given(
    policy_name=st.sampled_from(sorted(POLICIES)),
    ops=st.lists(
        st.tuples(st.integers(0, 9), st.integers(50, 400)),
        min_size=1, max_size=60,
    ),
)
def test_capacity_invariant_holds_for_every_policy(policy_name, ops):
    """Whatever the policy, the cache never exceeds its capacity and the
    just-stored entry is always resident."""
    cache = Cache(capacity_bytes=800, policy=make_policy(policy_name))
    for key, size in ops:
        oid = f"/f{key}"
        if cache.lookup(oid) is None:
            size = min(size, 800)
            cache.store(entry(oid, size=size))
            assert oid in cache
        assert cache.used_bytes <= 800
        assert cache.used_bytes == sum(e.size for e in cache)
