"""The server-driven invalidation protocol.

"Invalidation protocols depend on the server keeping track of cached
data; each time an item changes the server notifies caches that their
copies are no longer valid" (Section 1.0).  Freshness is simply the
entry's ``valid`` flag: True until a callback clears it.

Worrell's optimization is preserved by default: "upon receipt of an
invalidation message, objects were simply marked invalid, but not
immediately retrieved.  This increased latency on subsequent accesses,
but decreased bandwidth consumption if the object was not accessed
again."  Constructing the protocol with ``eager=True`` selects the
*pre-optimization* behaviour — the new copy is pushed immediately on
every change — which trades that bandwidth back for zero client-visible
latency.  The two variants bracket the latency/bandwidth trade the
paper describes; the ``ext-latency`` extension experiment measures it.

The callback delivery itself is the simulator's job (it interleaves the
origin's invalidation feed with the request stream in time order); this
class only declares the need for it via ``wants_invalidations``.

The paper also names the protocol's open weakness: it "is not resilient
in the face of network partition or server crashes" — a cache that
misses a callback serves the stale copy *forever*.
:class:`LeasedInvalidationProtocol` is the fault-tolerant variant:
callbacks still provide consistency on the fast path, but every copy
additionally carries a bounded lease measured from its last validation,
so when delivery fails (see :mod:`repro.faults`) staleness degrades
gracefully to Alex/TTL-style revalidation instead of being unbounded.
"""

from __future__ import annotations

from repro.core.cache import CacheEntry
from repro.core.protocols.base import ConsistencyProtocol


class InvalidationProtocol(ConsistencyProtocol):
    """Perfect consistency via server callbacks; zero stale hits.

    Args:
        eager: when True, every invalidation immediately refetches the
            new content (prefetch), so no client request ever waits on
            the origin; when False (Worrell's optimization, the paper's
            configuration), entries are merely marked invalid.
    """

    wants_invalidations = True

    def __init__(self, eager: bool = False) -> None:
        self.eager = bool(eager)

    @property
    def name(self) -> str:
        return "invalidation(eager)" if self.eager else "invalidation"

    def is_fresh(self, entry: CacheEntry, now: float) -> bool:
        """Fresh exactly while no invalidation callback has arrived."""
        return entry.valid

    def on_stored(self, entry: CacheEntry, now: float) -> None:
        """A (re)fetch re-establishes the callback promise."""
        entry.expires_at = None


class LeasedInvalidationProtocol(InvalidationProtocol):
    """Invalidation callbacks backed by a bounded lease.

    Freshness requires *both* that no callback has arrived **and** that
    the copy was validated within the last ``lease`` seconds.  Under
    reliable delivery the lease only adds periodic If-Modified-Since
    traffic (mostly 304s); under faulty delivery it bounds the damage: a
    copy whose invalidation was lost is served stale for at most
    ``lease`` seconds before the cache revalidates it anyway.

    The bound is structural, not statistical.  An entry validated at
    ``v`` carries ``last_modified`` equal to the origin's at ``v``, so
    any modification it can be stale against happened after ``v``; the
    entry stops being served at ``v + lease``; therefore every stale
    serve is younger than ``lease``.  ``tests/faults/`` asserts this
    per-event, and the ``ext-faults`` experiment measures it.

    Args:
        lease: maximum seconds a copy may be served without
            revalidation.
        eager: as for :class:`InvalidationProtocol`.

    Raises:
        ValueError: for a non-positive lease.
    """

    def __init__(self, lease: float, eager: bool = False) -> None:
        super().__init__(eager)
        if lease <= 0.0:
            raise ValueError(f"lease must be positive: {lease}")
        self.lease = float(lease)

    @property
    def name(self) -> str:
        hours_text = f"{self.lease / 3600.0:g}h"
        suffix = ", eager" if self.eager else ""
        return f"leased-invalidation({hours_text}{suffix})"

    def is_fresh(self, entry: CacheEntry, now: float) -> bool:
        """Fresh while un-invalidated *and* inside the lease window."""
        return entry.valid and now - entry.validated_at < self.lease
