"""Hierarchical caching — the topology the paper flattened, rebuilt.

Section 3.0 argues that collapsing Worrell's cache hierarchy to a single
cache never biases the comparison *toward* time-based protocols; Figure 1
walks four scenarios (a-d) showing the collapsed model is either neutral
or favours invalidation.  To verify that argument rather than take it on
faith, this module implements a real multi-level cache tree:

* client requests arrive at leaf caches;
* a miss or expiry is resolved through the parent (which may serve from
  its own, possibly stale, copy — the characteristic hierarchy effect);
* invalidation callbacks flow down the tree, each node notifying only the
  children registered as holding the object;
* every link (child ↔ parent, root ↔ origin) carries its own byte ledger,
  so both total bytes and Worrell's hop-weighted bytes are measurable.

Every node accounts its requests through the one request transition
(:class:`repro.core.step.RequestStep`), always in optimized mode — the
flattening argument concerns message flows, which are identical in both
modes for the scenarios of Figure 1.  What is written here is what only
a tree has: the exchange goes to the parent (or, at the root, the
origin), and invalidations fan out over registered holders.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.core.cache import Cache, CacheEntry
from repro.core.costs import DEFAULT_COSTS, MessageCosts
from repro.core.metrics import (
    INVALIDATION,
    BandwidthLedger,
    ConsistencyCounters,
)
from repro.core.protocols.base import ConsistencyProtocol
from repro.core.server import FetchResult, NotModified, OriginServer
from repro.core.step import RequestStep, SimulatorMode, discard

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan


class CacheNode:
    """One cache in the hierarchy.

    Args:
        name: label for reports (e.g. ``cache-1a``).
        protocol: the consistency protocol this node runs.
        parent: the next cache toward the origin, or None for the root
            (which talks to the origin server directly).
        costs: byte cost model for the link to the parent/origin.

    The node's :attr:`uplink` ledger records all traffic on the link
    between this node and its parent (or the origin, for the root).
    """

    def __init__(
        self,
        name: str,
        protocol: ConsistencyProtocol,
        parent: Optional["CacheNode"] = None,
        costs: MessageCosts = DEFAULT_COSTS,
    ) -> None:
        self.name = name
        self.protocol = protocol
        self.parent = parent
        self.costs = costs
        #: Section 4.1 charging policy (see the single-cache simulator):
        #: False (the hierarchy default) counts an invalidation only when
        #: it flips a valid entry — holder registration means a node is
        #: never re-notified about an entry it already knows is invalid.
        #: :class:`HierarchySimulation` propagates its own flag here.
        self.charge_per_modification = False
        self.cache = Cache()
        self.uplink = BandwidthLedger()
        self.counters = ConsistencyCounters()
        # Optimized mode, no event sink.  Invalidations reach a node
        # through :meth:`receive_invalidation`, never through the step's
        # feed delivery, so the step's own charging flag is moot.
        self._step = RequestStep(
            self.cache,
            protocol,
            SimulatorMode.OPTIMIZED,
            costs,
            self.charge_per_modification,
            self.counters,
            self.uplink,
            discard,
        )
        #: Children registered as holding each object (for invalidation
        #: fan-out); populated as children fetch through this node.
        self._holders: dict[str, set[CacheNode]] = {}
        self._children: list[CacheNode] = []
        if parent is not None:
            parent._children.append(self)
        self._origin: Optional[OriginServer] = None

    # -- wiring -----------------------------------------------------------------

    @property
    def children(self) -> tuple["CacheNode", ...]:
        """Caches directly below this node."""
        return tuple(self._children)

    def attach_origin(self, server: OriginServer) -> None:
        """Connect the root node to the origin server.

        Raises:
            ValueError: when called on a non-root node.
        """
        if self.parent is not None:
            raise ValueError(f"{self.name} is not the root of its hierarchy")
        self._origin = server

    @property
    def depth(self) -> int:
        """Number of links between this node and the origin (root = 1)."""
        node, hops = self, 1
        while node.parent is not None:
            node = node.parent
            hops += 1
        return hops

    # -- upstream operations -------------------------------------------------------

    def _origin_or_fail(self) -> OriginServer:
        if self._origin is None:
            raise RuntimeError(
                f"root node {self.name!r} has no origin attached; "
                "call attach_origin() first"
            )
        return self._origin

    def _register_holder(self, object_id: str, child: "CacheNode") -> None:
        self._holders.setdefault(object_id, set()).add(child)

    def ensure_fresh(self, object_id: str, t: float) -> CacheEntry:
        """Return an entry this node considers servable at time ``t``.

        Resolves misses and expiries through the parent (or origin at the
        root), charging the uplink.  The returned entry may still be
        *stale* with respect to the origin — that is the whole point of
        weak consistency.
        """
        entry, fresh = self._step.begin(object_id, t)
        if entry is None:
            return self._step.fetched(
                object_id, t, self._file_type(object_id),
                self._get(object_id, t), True,
            )
        if fresh:
            self._step.hit(object_id, t)
            return entry
        reply = self._if_modified_since(object_id, t, entry.last_modified)
        return self._step.validated(entry, t, reply)

    def _file_type(self, object_id: str) -> str:
        node: CacheNode = self
        while node.parent is not None:
            node = node.parent
        return node._origin_or_fail().object(object_id).file_type

    def _get(self, object_id: str, t: float) -> FetchResult:
        """A plain GET upstream: the origin's copy at the root, the
        parent's (possibly stale) copy below it."""
        if self.parent is None:
            self.counters.server_gets += 1
            return self._origin_or_fail().get(object_id, t)
        upstream = self.parent.ensure_fresh(object_id, t)
        self.parent._register_holder(object_id, self)
        return FetchResult(
            version=upstream.version,
            last_modified=upstream.last_modified,
            size=upstream.size,
            expires=upstream.server_expires,
        )

    def _if_modified_since(
        self, object_id: str, t: float, since: float
    ) -> "FetchResult | NotModified":
        if self.parent is None:
            self.counters.server_ims_queries += 1
            return self._origin_or_fail().if_modified_since(object_id, t, since)
        result = self._get(object_id, t)
        if result.last_modified <= since:
            # The parent's 304 forwards its own (possibly refreshed)
            # Expires downstream, like the origin's does.
            return NotModified(expires=result.expires)
        return result

    # -- invalidation fan-out ----------------------------------------------------------

    def receive_invalidation(
        self, object_id: str, modified_at: Optional[float] = None
    ) -> None:
        """Handle an invalidation callback for ``object_id``.

        Marks the local entry invalid (if valid and resident) and forwards
        the notice to every registered child holder, charging each child's
        uplink one control message.  Registration is consumed: a child
        must fetch through again to receive future callbacks.

        Args:
            modified_at: the modification generation the notice
                announces; forwarded down the tree so
                :meth:`~repro.core.cache.Cache.invalidate` can ignore
                callbacks a node's refetch has already superseded (see
                :mod:`repro.faults`).
        """
        resident = self.cache.peek(object_id) is not None
        went_invalid = self.cache.invalidate(object_id, modified_at=modified_at)
        if went_invalid or (resident and self.charge_per_modification):
            self.counters.invalidations_received += 1
        holders = self._holders.pop(object_id, set())
        control, body = self.costs.invalidation_notice()
        for child in holders:
            child.uplink.charge(INVALIDATION, control, body)
            self.counters.server_invalidations_sent += 1
            child.receive_invalidation(object_id, modified_at=modified_at)


class HierarchySimulation:
    """Drive client requests against a cache tree.

    Args:
        server: the origin.
        root: the root cache node (will have the origin attached).
        leaves: the caches that receive client requests.
        deliver_invalidations: when True, the origin's modification feed
            is delivered to the root (which fans out) before each request,
            as the invalidation protocol requires.
        charge_per_modification: Section 4.1 charging policy.  The
            hierarchy default is False — holder registration is consumed
            on callback, so a node is never re-notified about an entry it
            already marked invalid, and the origin↔root link follows the
            same transition-only rule.  True charges the root link for
            every modification of a resident entry, matching the
            single-cache simulator's default reading of §4.1.
        faults: an optional :class:`repro.faults.FaultPlan` applied to
            the origin→root link: a notice whose send instant falls in a
            downtime window, or that the per-message loss draw kills, is
            never delivered to the tree at all — the hierarchy analogue
            of the single-cache loss model (retry/backoff/delay are
            single-cache refinements and are not modelled per hop).
    """

    def __init__(
        self,
        server: OriginServer,
        root: CacheNode,
        leaves: Iterable[CacheNode],
        *,
        deliver_invalidations: bool = False,
        charge_per_modification: bool = False,
        costs: MessageCosts = DEFAULT_COSTS,
        faults: Optional["FaultPlan"] = None,
    ) -> None:
        self.server = server
        self.root = root
        self.leaves = {leaf.name: leaf for leaf in leaves}
        self.costs = costs
        root.attach_origin(server)
        self.charge_per_modification = bool(charge_per_modification)
        for node in self._all_nodes():
            node.charge_per_modification = self.charge_per_modification
        self._deliver = deliver_invalidations
        self._feed = server.invalidation_feed() if deliver_invalidations else ()
        self._feed_idx = 0
        self._now = 0.0
        self.faults = faults

    def preload(self, at: float = 0.0) -> None:
        """Load valid copies of every object into every node, registering
        holder relationships so invalidations can fan out.

        Modifications at or before ``at`` are skipped, not delivered:
        the preloaded copies already reflect them (the single-cache
        simulator's ``start_time`` rule).
        """
        if self._deliver:
            self._feed_idx = self.server.feed_position(at)
        for node in self._all_nodes():
            node.cache.preload_from(self.server, at=at)
            for entry in node.cache:
                node.protocol.on_stored(entry, at)
            if node.parent is not None:
                for oid in self.server.object_ids:
                    node.parent._register_holder(oid, node)

    def _all_nodes(self) -> list[CacheNode]:
        nodes, frontier = [], [self.root]
        while frontier:
            node = frontier.pop()
            nodes.append(node)
            frontier.extend(node.children)
        return nodes

    def _deliver_until(self, t: float) -> None:
        feed = self._feed
        idx = self._feed_idx
        faults = self.faults
        control, body = self.costs.invalidation_notice()
        while idx < len(feed) and feed[idx][0] <= t:
            mod_time, oid = feed[idx]
            index = idx
            idx += 1
            if faults is not None and faults.server_down(mod_time):
                # Outage: the origin never records the pending notice.
                continue
            # The origin notifies the root over the root's uplink —
            # per §4.1 policy, either on every modification of a resident
            # entry or only on the valid→invalid transition.
            entry = self.root.cache.peek(oid)
            if entry is not None and (
                entry.valid or self.charge_per_modification
            ):
                self.root.uplink.charge(INVALIDATION, control, body)
                self.root.counters.server_invalidations_sent += 1
            # Lost on the wire: charged like any sent notice, but the
            # tree never hears it.
            if faults is None or not faults.attempt_lost(index, 0):
                self.root.receive_invalidation(oid, modified_at=mod_time)
        self._feed_idx = idx

    def request(self, leaf_name: str, object_id: str, t: float) -> bool:
        """Serve one client request at the named leaf.

        Returns:
            True when the response content was stale relative to the
            origin at time ``t``.

        Raises:
            KeyError: for an unknown leaf.
            ValueError: for out-of-order timestamps.
        """
        if t < self._now:
            raise ValueError(f"request at {t!r} precedes {self._now!r}")
        self._now = t
        if self._deliver:
            self._deliver_until(t)
        leaf = self.leaves[leaf_name]
        entry = leaf.ensure_fresh(object_id, t)
        stale = entry.version < self.server.version_at(object_id, t)
        if stale:
            leaf.counters.stale_hits += 1
        return stale

    def finish(self, end_time: float) -> None:
        """Deliver any trailing invalidations up to ``end_time``."""
        if self._deliver:
            self._deliver_until(end_time)

    # -- measurement ---------------------------------------------------------------

    def total_bytes(self) -> int:
        """Total bytes moved on every link of the hierarchy."""
        return sum(node.uplink.total_bytes for node in self._all_nodes())

    def hop_weighted_bytes(self) -> int:
        """Worrell's goodness metric: bytes on each link weighted by the
        link's distance from the origin (root link = 1)."""
        return sum(
            node.uplink.total_bytes * node.depth for node in self._all_nodes()
        )

    def message_count(self) -> int:
        """Total exchanges (control-level events) across all links."""
        return sum(
            sum(node.uplink.exchanges.values()) for node in self._all_nodes()
        )

    def leaf_counters(self) -> ConsistencyCounters:
        """Merged request-level counters across all leaf caches."""
        merged = ConsistencyCounters()
        for leaf in self.leaves.values():
            merged.merge(leaf.counters)
        return merged


def two_level_tree(
    protocol_factory: "Callable[[], ConsistencyProtocol]",
    fan_out: int = 2,
    costs: MessageCosts = DEFAULT_COSTS,
) -> tuple[CacheNode, list[CacheNode]]:
    """Build the paper's topology: one second-level cache over N leaves.

    Returns:
        ``(root, leaves)`` ready to hand to :class:`HierarchySimulation`.

    Raises:
        ValueError: for a non-positive fan-out.
    """
    if fan_out <= 0:
        raise ValueError(f"fan_out must be positive: {fan_out}")
    root = CacheNode("cache-2", protocol_factory(), costs=costs)
    leaves = [
        CacheNode(f"cache-1{chr(ord('a') + i)}", protocol_factory(),
                  parent=root, costs=costs)
        for i in range(fan_out)
    ]
    return root, leaves


def drive_workload(
    server: OriginServer,
    protocol_factory: "Callable[[], ConsistencyProtocol]",
    workload_requests: "Iterable[tuple[float, str]]",
    *,
    clients: "Optional[list[str]]" = None,
    fan_out: int = 2,
    deliver_invalidations: bool = False,
    charge_per_modification: bool = False,
    end_time: Optional[float] = None,
    costs: MessageCosts = DEFAULT_COSTS,
    faults: "Optional[FaultPlan]" = None,
) -> HierarchySimulation:
    """Run a full request stream through a two-level hierarchy.

    Each client hostname is pinned to one leaf cache (stable CRC32 hash,
    so runs are reproducible across processes), modelling the regional
    caches of Worrell's topology; workloads without client labels
    alternate leaves per request.

    Returns:
        The completed :class:`HierarchySimulation`, ready for its
        measurement accessors.
    """
    root, leaves = two_level_tree(protocol_factory, fan_out, costs)
    sim = HierarchySimulation(
        server, root, leaves,
        deliver_invalidations=deliver_invalidations,
        charge_per_modification=charge_per_modification,
        costs=costs,
        faults=faults,
    )
    sim.preload(at=0.0)
    from zlib import crc32

    names = [leaf.name for leaf in leaves]
    last_t = 0.0
    for index, (t, oid) in enumerate(workload_requests):
        if clients is not None:
            leaf = names[crc32(clients[index].encode()) % fan_out]
        else:
            leaf = names[index % fan_out]
        sim.request(leaf, oid, t)
        last_t = t
    sim.finish(end_time if end_time is not None else last_t)
    return sim
