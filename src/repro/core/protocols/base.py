"""The consistency-protocol interface.

A consistency protocol answers one question — *may this cache entry be
served without contacting the origin?* — and declares whether it needs
the origin's invalidation callbacks.  Everything else (what happens on a
miss, whether expiry triggers an unconditional refetch or an
If-Modified-Since query) is the *simulator mode's* business, not the
protocol's: the paper runs the same three protocols through the base and
optimized simulators, so the split lives there.
"""

from __future__ import annotations

import abc

from repro.core.cache import CacheEntry


class ConsistencyProtocol(abc.ABC):
    """Decides cache-entry freshness for one cache.

    Protocol objects may keep adaptive state (see
    :class:`~repro.core.protocols.adaptive.SelfTuningProtocol`), so a
    fresh instance should be used per simulation run.
    """

    #: True when the protocol relies on server callbacks (invalidation
    #: protocol); the simulator then registers the cache for the origin's
    #: invalidation feed.
    wants_invalidations: bool = False

    #: True when freshness decisions for one object depend on state
    #: shared *across* objects (the self-tuning per-file-type
    #: thresholds).  It governs live-proxy locking only — lock
    #: granularity follows state scope: the live proxy serves such
    #: protocols under one global lock and the live driver replays their
    #: requests in global trace order, because per-object interleaving
    #: would change which threshold each decision sees.  Per-entry
    #: protocols leave this False and get genuine per-object
    #: concurrency.  The simulators are sequential, so it changes nothing
    #: there (the fast path compiles such a protocol like any other).
    cross_object_state: bool = False

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short human-readable label, e.g. ``alex(10%)``."""

    @abc.abstractmethod
    def is_fresh(self, entry: CacheEntry, now: float) -> bool:
        """Return True when ``entry`` may be served at ``now`` without
        consulting the origin."""

    def on_stored(self, entry: CacheEntry, now: float) -> None:
        """Hook invoked after the entry is fetched or revalidated.

        TTL-family protocols stamp ``entry.expires_at`` here; adaptive
        protocols update their statistics.  The default does nothing.
        """

    def on_validation_result(
        self, entry: CacheEntry, now: float, was_modified: bool
    ) -> None:
        """Hook invoked after an If-Modified-Since exchange completes.

        ``was_modified`` is True when the origin returned a new body.
        Only adaptive protocols care.  The default does nothing.
        """

    def state_snapshot(self) -> dict[str, object]:
        """Instance state beyond what cache entries carry.

        Oracle leg 3 (:mod:`repro.verify.oracle`) requires the fast
        path to leave the state the reference run leaves.  Stateless
        and per-entry protocols have none; adaptive protocols override
        this.  (A restarted live proxy rebuilds it by re-executing its
        journal, so nothing reads it back.)
        """
        return {}

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
