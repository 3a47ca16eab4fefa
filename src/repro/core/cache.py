"""The proxy cache model.

One :class:`Cache` stands between the clients and the origin server — the
paper's flattened hierarchy ("we flattened the cache hierarchy to model a
single cache", Section 3.0).  The cache is a table of
:class:`CacheEntry` records carrying exactly the state the three
consistency protocols consult:

* ``version`` / ``last_modified`` — what content the cache holds and the
  Last-Modified timestamp it learned when it fetched or validated it
  (the Alex protocol's age reference).
* ``validated_at`` — when the cache last confirmed the entry with the
  origin (fetch or 304); TTL and Alex windows are measured from here.
* ``valid`` — the invalidation protocol's flag, cleared by a callback.
* ``expires_at`` — an absolute expiry precomputed by TTL-family protocols
  (server Expires header, CERN policy, or plain TTL).

The paper's simulations use an unbounded cache that never evicts valid
entries ("since valid entries are never evicted from the cache, it also
produces the near perfect cache miss rates").  Capacity-bounded
operation — built-in LRU or any pluggable policy from
:mod:`repro.core.replacement` — is supported as an extension knob for
the ablation benchmarks and the capacity-planning example.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.server import FetchResult, OriginServer
from repro.obs import registry as obs_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.replacement import ReplacementPolicy


class CacheEntry:
    """Per-object cache state.

    Attributes:
        object_id: the cached object's identifier.
        version: content version held by the cache.
        size: body size in bytes.
        file_type: coarse content type (for the self-tuning protocol).
        fetched_at: when the body was last transferred into the cache.
        validated_at: when the entry was last confirmed with the origin
            (body transfer or 304 reply).
        last_modified: the origin Last-Modified timestamp known to the
            cache at validation time.
        valid: invalidation-protocol flag; True until a callback arrives.
        expires_at: absolute expiry assigned by TTL-family protocols, or
            ``None`` when the governing protocol does not use one.
        server_expires: the Expires timestamp the origin attached to the
            last retrieval, if any.
    """

    __slots__ = (
        "object_id",
        "version",
        "size",
        "file_type",
        "fetched_at",
        "validated_at",
        "last_modified",
        "valid",
        "expires_at",
        "server_expires",
    )

    def __init__(
        self,
        object_id: str,
        version: int,
        size: int,
        file_type: str,
        fetched_at: float,
        validated_at: float,
        last_modified: float,
        valid: bool = True,
        expires_at: Optional[float] = None,
        server_expires: Optional[float] = None,
    ) -> None:
        self.object_id = object_id
        self.version = version
        self.size = size
        self.file_type = file_type
        self.fetched_at = fetched_at
        self.validated_at = validated_at
        self.last_modified = last_modified
        self.valid = valid
        self.expires_at = expires_at
        self.server_expires = server_expires

    @classmethod
    def from_fetch(
        cls, object_id: str, file_type: str, result: FetchResult, t: float
    ) -> "CacheEntry":
        """The valid copy ``result`` describes, fetched and validated at
        ``t`` — the one place entries are built from origin replies."""
        return cls(
            object_id=object_id,
            version=result.version,
            size=result.size,
            file_type=file_type,
            fetched_at=t,
            validated_at=t,
            last_modified=result.last_modified,
            valid=True,
            server_expires=result.expires,
        )

    @property
    def age(self) -> float:
        """Age of the content as known to the cache, measured at the last
        validation: ``validated_at - last_modified``.

        This is the Alex protocol's age term — "The update threshold is
        expressed as a percentage of the object's age."
        """
        return self.validated_at - self.last_modified

    def __repr__(self) -> str:
        return (
            f"CacheEntry({self.object_id!r}, v{self.version}, "
            f"valid={self.valid}, validated_at={self.validated_at!r})"
        )


class Cache:
    """A single proxy cache.

    Args:
        capacity_bytes: optional byte capacity; ``None`` (the default, and
            the paper's configuration) means unbounded.  When bounded,
            insertion evicts entries until the new entry fits.
        policy: replacement policy choosing eviction victims when the
            cache is bounded (see :mod:`repro.core.replacement`);
            ``None`` selects the built-in LRU fast path.

    Raises:
        ValueError: if ``capacity_bytes`` is negative or zero, or a
            policy is supplied for an unbounded cache.
    """

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        policy: Optional["ReplacementPolicy"] = None,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive or None, got {capacity_bytes}"
            )
        if policy is not None and capacity_bytes is None:
            raise ValueError(
                "a replacement policy is meaningless without capacity_bytes"
            )
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._capacity = capacity_bytes
        self._policy = policy
        self._used_bytes = 0
        self.evictions = 0

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, object_id: object) -> bool:
        return object_id in self._entries

    def __iter__(self) -> Iterator[CacheEntry]:
        return iter(self._entries.values())

    @property
    def capacity_bytes(self) -> Optional[int]:
        """Configured byte capacity, or None when unbounded."""
        return self._capacity

    @property
    def used_bytes(self) -> int:
        """Total body bytes currently resident."""
        return self._used_bytes

    # -- operations ------------------------------------------------------------

    @property
    def policy(self) -> Optional["ReplacementPolicy"]:
        """The replacement policy, or None for the built-in LRU."""
        return self._policy

    def lookup(self, object_id: str) -> Optional[CacheEntry]:
        """Return the entry for ``object_id`` (updating replacement
        bookkeeping), or None."""
        entry = self._entries.get(object_id)
        if entry is not None and self._capacity is not None:
            if self._policy is not None:
                self._policy.on_access(entry)
            else:
                self._entries.move_to_end(object_id)
        return entry

    def peek(self, object_id: str) -> Optional[CacheEntry]:
        """Return the entry without touching LRU order (for inspection)."""
        return self._entries.get(object_id)

    def store(self, entry: CacheEntry) -> None:
        """Insert or replace an entry, evicting LRU entries if over capacity.

        Raises:
            ValueError: when the entry alone exceeds a bounded capacity.
        """
        obs_metrics.emit("cache.stores")
        old = self._entries.pop(entry.object_id, None)
        if old is not None:
            self._used_bytes -= old.size
        if self._capacity is not None and entry.size > self._capacity:
            raise ValueError(
                f"entry {entry.object_id!r} ({entry.size} B) exceeds cache "
                f"capacity ({self._capacity} B)"
            )
        self._entries[entry.object_id] = entry
        self._used_bytes += entry.size
        if self._capacity is not None and self._policy is not None:
            self._policy.on_store(entry)
            while self._used_bytes > self._capacity:
                try:
                    victim_id = self._policy.choose_victim(
                        self._entries, protect=entry.object_id
                    )
                except LookupError:
                    break
                victim = self._entries.pop(victim_id)
                self._used_bytes -= victim.size
                self._policy.on_evict(victim)
                self.evictions += 1
                obs_metrics.emit("cache.evictions")
        elif self._capacity is not None:
            while self._used_bytes > self._capacity:
                evicted_id, evicted = self._entries.popitem(last=False)
                if evicted_id == entry.object_id:
                    # Put the new entry back; nothing else left to evict.
                    self._entries[evicted_id] = evicted
                    break
                self._used_bytes -= evicted.size
                self.evictions += 1
                obs_metrics.emit("cache.evictions")

    def invalidate(
        self, object_id: str, modified_at: Optional[float] = None
    ) -> bool:
        """Mark an entry invalid (invalidation-protocol callback).

        Per Worrell's optimization, "objects were simply marked invalid,
        but not immediately retrieved".

        Args:
            modified_at: the modification timestamp the callback
                announces, when known.  A callback for a *superseded
                generation* — one whose modification the entry's
                ``last_modified`` already reflects, because the object
                was evicted (or crashed away) and refetched after the
                change — must not clear the fresh entry's flag.  This
                matters once delivery can be delayed or retried (see
                :mod:`repro.faults`); with in-order immediate delivery
                the guard never fires.

        Returns:
            True when a resident, currently-valid entry was invalidated;
            False when the object is absent, already invalid, or the
            notice is for a superseded generation (no state changed).
        """
        entry = self._entries.get(object_id)
        if entry is None or not entry.valid:
            return False
        if modified_at is not None and entry.last_modified >= modified_at:
            return False
        entry.valid = False
        obs_metrics.emit("cache.invalidated")
        return True

    def clear(self) -> int:
        """Drop every entry at once (a cache crash with state loss).

        Unlike :meth:`drop`, nothing counts toward :attr:`evictions` —
        a crash is a fault, not a replacement decision — but any
        replacement policy is still told each entry is gone so its
        bookkeeping cannot reference ghosts.

        Returns:
            The number of entries lost.
        """
        lost = len(self._entries)
        if self._policy is not None:
            for entry in self._entries.values():
                self._policy.on_evict(entry)
        self._entries.clear()
        self._used_bytes = 0
        if lost:
            obs_metrics.emit("cache.crash_drops", float(lost))
        return lost

    def drop(self, object_id: str) -> None:
        """Remove an entry outright (used by eviction experiments).

        Counts toward :attr:`evictions` exactly like a capacity eviction
        (and notifies the policy the same way), so eviction statistics do
        not depend on which code path removed the entry.
        """
        entry = self._entries.pop(object_id, None)
        if entry is not None:
            self._used_bytes -= entry.size
            if self._policy is not None:
                self._policy.on_evict(entry)
            self.evictions += 1
            obs_metrics.emit("cache.evictions")

    def preload_from(self, server: OriginServer, at: float = 0.0) -> int:
        """Load a valid copy of every cacheable server object.

        Figures 2-7 all start from this state: "The cache is pre-loaded
        with valid copies of all the files held in the primary server."
        Entries are marked fetched/validated at time ``at`` with the
        origin's Last-Modified at that instant, so objects enter the
        simulation carrying their real pre-trace ages.

        Returns:
            The number of entries loaded.
        """
        loaded = 0
        for oid, history in server.histories().items():
            obj = history.obj
            if not obj.cacheable:
                continue
            result = server.get(oid, at)
            self.store(CacheEntry.from_fetch(oid, obj.file_type, result, at))
            loaded += 1
        return loaded
