"""The hierarchical cache tree."""

import pytest

from repro.core.clock import days, hours
from repro.core.hierarchy import CacheNode, HierarchySimulation
from repro.core.protocols import InvalidationProtocol, TTLProtocol
from repro.core.server import OriginServer
from repro.core.simulator import SimulatorMode, simulate
from repro.fastpath.contract import COUNTER_FIELDS
from repro.workload.worrell import WorrellWorkload
from tests.conftest import make_history
from tests.core.test_protocol_matrix import PROTOCOL_FACTORIES


def build_tree(protocol_factory):
    root = CacheNode("cache-2", protocol_factory())
    leaf_a = CacheNode("1a", protocol_factory(), parent=root)
    leaf_b = CacheNode("1b", protocol_factory(), parent=root)
    return root, leaf_a, leaf_b


class TestWiring:
    def test_children_tracked(self):
        root, leaf_a, leaf_b = build_tree(lambda: TTLProtocol(hours(1)))
        assert set(root.children) == {leaf_a, leaf_b}

    def test_depth(self):
        root, leaf_a, _ = build_tree(lambda: TTLProtocol(hours(1)))
        assert root.depth == 1
        assert leaf_a.depth == 2

    def test_attach_origin_only_at_root(self):
        root, leaf_a, _ = build_tree(lambda: TTLProtocol(hours(1)))
        with pytest.raises(ValueError):
            leaf_a.attach_origin(OriginServer([]))
        root.attach_origin(OriginServer([]))

    def test_unattached_root_raises_on_fetch(self):
        root = CacheNode("r", TTLProtocol(hours(1)))
        with pytest.raises(RuntimeError, match="no origin"):
            root.ensure_fresh("/x", 0.0)


class TestRequestFlow:
    def _sim(self, protocol_factory, histories, invalidations=False):
        server = OriginServer(histories)
        root, leaf_a, leaf_b = build_tree(protocol_factory)
        sim = HierarchySimulation(
            server, root, [leaf_a, leaf_b],
            deliver_invalidations=invalidations,
        )
        sim.preload(at=0.0)
        return sim, root, leaf_a, leaf_b

    def test_fresh_hit_no_traffic(self):
        sim, root, leaf_a, _ = self._sim(
            lambda: TTLProtocol(days(5)), [make_history("/f")]
        )
        stale = sim.request("1a", "/f", days(1))
        assert not stale
        assert sim.total_bytes() == 0

    def test_expiry_validates_through_parent_to_origin(self):
        sim, root, leaf_a, _ = self._sim(
            lambda: TTLProtocol(days(5)), [make_history("/f", size=100)]
        )
        sim.request("1a", "/f", days(6))
        # Both the leaf and the root validated (304): 86 bytes each link.
        assert leaf_a.uplink.total_bytes == 86
        assert root.uplink.total_bytes == 86
        assert root.counters.server_ims_queries == 1

    def test_parent_serves_without_origin_when_fresh(self):
        sim, root, leaf_a, leaf_b = self._sim(
            lambda: TTLProtocol(days(5)),
            [make_history("/f", size=100, changes=(days(1),))],
        )
        sim.request("1a", "/f", days(6))   # root revalidates: body down
        sim.request("1b", "/f", days(6.5))
        # 1b's validation is answered by the (now fresh) root copy.
        assert root.counters.server_ims_queries == 1
        assert leaf_b.uplink.total_bytes == 86 + 100

    def test_hierarchy_can_serve_stale_from_parent(self):
        sim, root, leaf_a, _ = self._sim(
            lambda: TTLProtocol(days(5)),
            [make_history("/f", changes=(days(2),))],
        )
        assert sim.request("1a", "/f", days(3)) is True

    def test_out_of_order_rejected(self):
        sim, *_ = self._sim(lambda: TTLProtocol(days(5)),
                            [make_history("/f")])
        sim.request("1a", "/f", days(2))
        with pytest.raises(ValueError):
            sim.request("1b", "/f", days(1))

    def test_unknown_leaf_rejected(self):
        sim, *_ = self._sim(lambda: TTLProtocol(days(5)),
                            [make_history("/f")])
        with pytest.raises(KeyError):
            sim.request("nope", "/f", days(1))


class TestInvalidationFanOut:
    def test_notices_flow_down_to_holders(self):
        server = OriginServer([make_history("/f", changes=(days(1),))])
        root, leaf_a, leaf_b = build_tree(InvalidationProtocol)
        sim = HierarchySimulation(server, root, [leaf_a, leaf_b],
                                  deliver_invalidations=True)
        sim.preload(at=0.0)
        sim.finish(days(2))
        # Origin->root, root->1a, root->1b: one notice each.
        assert root.uplink.exchanges["invalidation"] == 1
        assert leaf_a.uplink.exchanges["invalidation"] == 1
        assert leaf_b.uplink.exchanges["invalidation"] == 1
        assert not root.cache.peek("/f").valid
        assert not leaf_a.cache.peek("/f").valid

    def test_invalidation_never_stale(self):
        server = OriginServer(
            [make_history("/f", changes=(days(1), days(2), days(3)))]
        )
        root, leaf_a, leaf_b = build_tree(InvalidationProtocol)
        sim = HierarchySimulation(server, root, [leaf_a, leaf_b],
                                  deliver_invalidations=True)
        sim.preload(at=0.0)
        for i, t in enumerate((0.5, 1.5, 2.5, 3.5)):
            leaf = "1a" if i % 2 == 0 else "1b"
            assert sim.request(leaf, "/f", days(t)) is False

    def test_refetch_reregisters_for_callbacks(self):
        server = OriginServer(
            [make_history("/f", changes=(days(1), days(5)))]
        )
        root, leaf_a, leaf_b = build_tree(InvalidationProtocol)
        sim = HierarchySimulation(server, root, [leaf_a, leaf_b],
                                  deliver_invalidations=True)
        sim.preload(at=0.0)
        sim.request("1a", "/f", days(2))   # refetch after first change
        sim.finish(days(6))                # second change must notify again
        assert leaf_a.uplink.exchanges["invalidation"] == 2
        # 1b never refetched, so its registration was consumed at day 1.
        assert leaf_b.uplink.exchanges["invalidation"] == 1


class TestMetrics:
    def test_hop_weighted_bytes(self):
        server = OriginServer([make_history("/f", size=100)])
        root, leaf_a, leaf_b = build_tree(lambda: TTLProtocol(days(5)))
        sim = HierarchySimulation(server, root, [leaf_a, leaf_b])
        sim.preload(at=0.0)
        sim.request("1a", "/f", days(6))
        # Root link (depth 1): 86 bytes; leaf link (depth 2): 86 bytes.
        assert sim.total_bytes() == 172
        assert sim.hop_weighted_bytes() == 86 * 1 + 86 * 2

    def test_message_count(self):
        server = OriginServer([make_history("/f", size=100)])
        root, leaf_a, leaf_b = build_tree(lambda: TTLProtocol(days(5)))
        sim = HierarchySimulation(server, root, [leaf_a, leaf_b])
        sim.preload(at=0.0)
        sim.request("1a", "/f", days(6))
        assert sim.message_count() == 2  # one 304 exchange per link


class TestCounters:
    """Every node accounts through the shared request step, so a leaf's
    counters close: each request is exactly one hit or one miss."""

    def _run(self):
        server = OriginServer([make_history("/f", changes=(5.0,))])
        root, leaf_a, leaf_b = build_tree(lambda: TTLProtocol(3.0))
        sim = HierarchySimulation(server, root, [leaf_a, leaf_b])
        sim.preload(at=0.0)
        sim.request("1a", "/f", 1.0)   # fresh in 1a
        sim.request("1b", "/f", 4.0)   # expired in 1b: 304 via the root
        sim.request("1a", "/f", 8.0)   # expired everywhere, changed: 200
        return sim, root, leaf_a, leaf_b

    def test_leaf_hits_plus_misses_equal_requests(self):
        _, root, leaf_a, leaf_b = self._run()
        assert (leaf_a.counters.requests, leaf_a.counters.hits,
                leaf_a.counters.misses) == (2, 1, 1)
        assert (leaf_b.counters.requests, leaf_b.counters.hits,
                leaf_b.counters.misses) == (1, 1, 0)
        # The root counts the requests its children sent it.
        assert root.counters.hits + root.counters.misses \
            == root.counters.requests == 2

    def test_leaf_counters_merges_every_field(self):
        sim, _, leaf_a, leaf_b = self._run()
        merged = sim.leaf_counters()
        for name in COUNTER_FIELDS:
            assert getattr(merged, name) == (
                getattr(leaf_a.counters, name)
                + getattr(leaf_b.counters, name)
            ), name
        assert merged.hits + merged.misses == merged.requests == 3
        assert merged.validations == 2


# -- the hierarchy joins the differential -------------------------------------

#: The eager push is the one variant the hierarchy does not implement.
HIERARCHY_FACTORIES = [
    param for param in PROTOCOL_FACTORIES if param.id != "inval-eager"
]


@pytest.fixture(scope="module")
def worrell():
    return WorrellWorkload(
        files=40, requests=1500, duration=days(20), seed=3
    ).build()


@pytest.mark.parametrize("per_modification", [True, False])
@pytest.mark.parametrize("make_protocol", HIERARCHY_FACTORIES)
def test_one_node_hierarchy_matches_simulate(
    make_protocol, per_modification, worrell
):
    """A tree of one node *is* the flattened model: same uplink ledger
    (all 15 cells), same request-level counters."""
    protocol = make_protocol()
    single = simulate(
        worrell.server(), make_protocol(), worrell.requests,
        SimulatorMode.OPTIMIZED, end_time=worrell.duration,
        charge_per_modification=per_modification,
    )
    root = CacheNode("only", protocol)
    sim = HierarchySimulation(
        worrell.server(), root, [root],
        deliver_invalidations=protocol.wants_invalidations,
        charge_per_modification=per_modification,
    )
    sim.preload(at=0.0)
    for t, object_id in worrell.requests:
        sim.request("only", object_id, t)
    sim.finish(worrell.duration)

    assert root.uplink.control_bytes == single.bandwidth.control_bytes
    assert root.uplink.body_bytes == single.bandwidth.body_bytes
    assert root.uplink.exchanges == single.bandwidth.exchanges
    assert single.bandwidth.total_bytes > 0
    for name in COUNTER_FIELDS:
        if name == "stale_age_sum":
            continue  # the hierarchy has no modification-schedule view
        assert getattr(root.counters, name) == getattr(
            single.counters, name
        ), name
