"""Bandwidth and consistency accounting.

The paper evaluates protocols on four axes:

* **bandwidth** — "the number of bytes required to maintain consistency,
  including invalidation messages, stale data checks, and file data
  movement" (Section 3).  The :class:`BandwidthLedger` tracks bytes split
  into control-message bytes vs file-body bytes, further broken down by
  exchange kind so the figures' explanations ("the effect of saving file
  transfers is much more pronounced than the effect of sending more server
  queries") can be verified directly.
* **cache miss rate** — requests that required a file transfer.
* **stale hit rate** — requests served from cache when the origin already
  held a newer version.
* **server load** — total server operations: document requests, staleness
  queries, and invalidation sends (Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

#: Exchange categories tracked by the ledger.
FULL_RETRIEVAL = "full_retrieval"
VALIDATION_304 = "validation_304"
VALIDATION_200 = "validation_200"
INVALIDATION = "invalidation"
#: Server-push transfers of the eager invalidation variant: bodies moved
#: on modification, before (and regardless of) any client request.
PREFETCH = "prefetch"

CATEGORIES = (FULL_RETRIEVAL, VALIDATION_304, VALIDATION_200, INVALIDATION,
              PREFETCH)
#: The ledger's per-category tables; with :data:`CATEGORIES` they name
#: its 15 cells.
LEDGER_TABLES = ("control_bytes", "body_bytes", "exchanges")


@dataclass
class BandwidthLedger:
    """Byte accounting split by exchange category and payload kind."""

    control_bytes: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in CATEGORIES}
    )
    body_bytes: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in CATEGORIES}
    )
    exchanges: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in CATEGORIES}
    )

    def charge(self, category: str, control: int, body: int) -> None:
        """Record one exchange of ``category`` costing the given bytes."""
        if category not in self.control_bytes:
            raise KeyError(f"unknown exchange category: {category!r}")
        if control < 0 or body < 0:
            raise ValueError("byte counts must be non-negative")
        self.control_bytes[category] += control
        self.body_bytes[category] += body
        self.exchanges[category] += 1

    @property
    def total_control_bytes(self) -> int:
        """All control-message bytes across categories."""
        return sum(self.control_bytes.values())

    @property
    def total_body_bytes(self) -> int:
        """All file-body bytes across categories."""
        return sum(self.body_bytes.values())

    @property
    def total_bytes(self) -> int:
        """Total consistency bandwidth in bytes (the figures' y axis)."""
        return self.total_control_bytes + self.total_body_bytes

    @property
    def total_megabytes(self) -> float:
        """Total bandwidth in MB (the unit Figures 2/4/6 plot)."""
        return self.total_bytes / 1_000_000.0

    def merge(self, other: "BandwidthLedger") -> None:
        """Fold another ledger's counts into this one."""
        for table in LEDGER_TABLES:
            mine, theirs = getattr(self, table), getattr(other, table)
            for category in CATEGORIES:
                mine[category] += theirs[category]


@dataclass
class ConsistencyCounters:
    """Request-level and server-level event counts for one simulation run."""

    #: Client requests presented to the cache.
    requests: int = 0
    #: Requests served from the cache without any file transfer.
    hits: int = 0
    #: Requests that required transferring the file body (the paper's
    #: definition of a cache miss under the optimized simulator:
    #: "Cache misses are recorded only when a file actually needs to be
    #: transferred to the cache").
    misses: int = 0
    #: Hits that returned content older than what the origin held.
    stale_hits: int = 0
    #: Summed "staleness lag" over stale hits: for each, how long (in
    #: simulation seconds) the served entry had already been out of date.
    #: TTL's stale hits are bounded by the TTL; Alex's by threshold*age —
    #: this quantifies how *badly* stale the weak protocols get, a
    #: severity dimension the paper's stale-hit *count* does not capture.
    stale_age_sum: float = 0.0
    #: If-Modified-Since queries issued by the cache.
    validations: int = 0
    #: Validations answered 304 Not Modified.
    validations_not_modified: int = 0
    #: Full (unconditional) retrievals issued by the cache.
    full_retrievals: int = 0
    #: Invalidation notices delivered to the cache.
    invalidations_received: int = 0
    #: Eager-invalidation pushes: bodies transferred at modification
    #: time, not on a client's critical path.
    prefetches: int = 0
    #: Server-side operation counts (Figure 8's "server operations").
    server_gets: int = 0
    server_ims_queries: int = 0
    server_invalidations_sent: int = 0

    @property
    def server_operations(self) -> int:
        """Total server load: GETs + IMS queries + invalidation sends."""
        return (
            self.server_gets
            + self.server_ims_queries
            + self.server_invalidations_sent
        )

    @property
    def round_trips(self) -> int:
        """Client-visible synchronous server round trips.

        Section 2.0 notes Worrell's mark-don't-fetch optimization
        "increased latency on subsequent accesses, but decreased
        bandwidth"; this metric quantifies that latency side: every
        validation or full retrieval stalls the requesting client for
        one server round trip, while a (possibly stale) cache hit costs
        none.
        """
        return self.validations + self.full_retrievals

    @property
    def mean_round_trips(self) -> float:
        """Average synchronous round trips per client request."""
        return self.round_trips / self.requests if self.requests else 0.0

    @property
    def miss_rate(self) -> float:
        """Fraction of requests that transferred a body (0 when idle)."""
        return self.misses / self.requests if self.requests else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served without a body transfer."""
        return self.hits / self.requests if self.requests else 0.0

    @property
    def stale_hit_rate(self) -> float:
        """Fraction of requests that returned stale content."""
        return self.stale_hits / self.requests if self.requests else 0.0

    @property
    def mean_stale_age(self) -> float:
        """Average staleness lag (seconds) over the stale hits; 0 when
        no stale hit occurred."""
        return self.stale_age_sum / self.stale_hits if self.stale_hits else 0.0

    def merge(self, other: "ConsistencyCounters") -> None:
        """Fold another run's counters into this one."""
        for name in COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def check_invariants(self) -> None:
        """Raise AssertionError if the counters are internally inconsistent.

        These are the bookkeeping identities every simulation run must
        satisfy; the property-based tests lean on them.
        """
        assert self.hits + self.misses == self.requests, (
            f"hits({self.hits}) + misses({self.misses}) "
            f"!= requests({self.requests})"
        )
        assert self.stale_hits <= self.hits, (
            f"stale_hits({self.stale_hits}) > hits({self.hits})"
        )
        assert self.validations_not_modified <= self.validations
        assert self.server_ims_queries == self.validations
        assert self.server_gets == self.full_retrievals + self.prefetches


#: Every :class:`ConsistencyCounters` field, in declaration order — with
#: the ledger's cells, the whole surface a run is compared on
#: (:mod:`repro.core.results`).  A new counter is one dataclass field.
COUNTER_FIELDS: tuple[str, ...] = tuple(
    f.name for f in fields(ConsistencyCounters)
)
