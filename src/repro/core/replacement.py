"""Cache replacement policies for capacity-bounded operation.

The paper sidesteps replacement entirely — its cache is unbounded and
"valid entries are never evicted".  A deployable proxy cannot assume
that, and the mid-90s literature studied exactly this question for Web
workloads (LRU vs frequency- vs size-aware eviction).  This module
provides the classic policies so the capacity ablations can quantify how
much of the paper's "near perfect miss rates" rests on the unbounded
assumption, and which policy loses the least under pressure:

* :class:`LRUPolicy` — evict the least recently used entry.
* :class:`FIFOPolicy` — evict the oldest-inserted entry.
* :class:`LFUPolicy` — evict the least frequently used entry
  (ties broken by recency).
* :class:`SizePolicy` — evict the largest entry first (many small
  objects beat one big one when hits are what you optimize — the
  SIZE policy of Williams et al., 1996).

A policy chooses which resident entry the cache evicts next.  The
cache keeps its entries in one order: a store appends the entry at the
back, and a lookup under a policy whose class declares ``touches``
moves it there too.  LRU and FIFO are that order itself: their victim
is its front, found in O(1) by the default ``choose_victim``.  LFU and
SIZE rank by their own keys, kept up to date through the ``on_store`` /
``on_access`` / ``on_evict`` hooks (no-ops unless a policy needs them).
"""

from __future__ import annotations

import abc
import itertools
from typing import TYPE_CHECKING, ClassVar, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.cache import CacheEntry


class ReplacementPolicy(abc.ABC):
    """Chooses eviction victims for a capacity-bounded cache."""

    #: Whether a lookup moves the entry to the back of the cache's order
    #: (recency), a fact of the class like ``wants_invalidations``.
    touches: ClassVar[bool] = False

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short label (``lru``, ``fifo``, ``lfu``, ``size``)."""

    def on_store(self, entry: CacheEntry) -> None:
        """An entry was inserted (or replaced)."""

    def on_access(self, entry: CacheEntry) -> None:
        """An entry served a lookup."""

    def on_evict(self, entry: CacheEntry) -> None:
        """An entry left the cache (eviction or explicit drop)."""

    def choose_victim(
        self, resident: dict[str, CacheEntry], protect: Optional[str] = None
    ) -> str:
        """Return the object id to evict next: by default the front of
        the cache's order, in O(1) — the LRU / FIFO victim.

        Args:
            resident: the currently resident entries by id (non-empty),
                in the cache's order: oldest store (or, under a
                ``touches`` policy, least recent use) first.
            protect: an id that must not be chosen (the entry being
                inserted), or None.

        Raises:
            LookupError: when every resident entry is protected.
        """
        for oid in resident:
            if oid != protect:
                return oid
        raise LookupError("no evictable entries (all protected)")

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class LRUPolicy(ReplacementPolicy):
    """Least recently used: classic temporal locality."""

    touches = True

    @property
    def name(self) -> str:
        return "lru"


class FIFOPolicy(ReplacementPolicy):
    """First in, first out: insertion order only, accesses ignored.  A
    refresh of a resident entry re-inserts it, so classic FIFO restamps
    on every store."""

    @property
    def name(self) -> str:
        return "fifo"


class LFUPolicy(ReplacementPolicy):
    """Least frequently used, ties broken by least-recent access."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        self._ticks = itertools.count()
        self._last: dict[str, int] = {}

    @property
    def name(self) -> str:
        return "lfu"

    def on_store(self, entry: CacheEntry) -> None:
        self._counts.setdefault(entry.object_id, 0)
        self._last[entry.object_id] = next(self._ticks)

    def on_access(self, entry: CacheEntry) -> None:
        self._counts[entry.object_id] = (
            self._counts.get(entry.object_id, 0) + 1
        )
        self._last[entry.object_id] = next(self._ticks)

    def on_evict(self, entry: CacheEntry) -> None:
        self._counts.pop(entry.object_id, None)
        self._last.pop(entry.object_id, None)

    def choose_victim(
        self, resident: dict[str, CacheEntry], protect: Optional[str] = None
    ) -> str:
        candidates = [oid for oid in resident if oid != protect]
        if not candidates:
            raise LookupError("no evictable entries (all protected)")
        return min(
            candidates,
            key=lambda oid: (self._counts.get(oid, 0),
                             self._last.get(oid, -1)),
        )


class SizePolicy(ReplacementPolicy):
    """Largest entry first: maximize the number of resident objects."""

    @property
    def name(self) -> str:
        return "size"

    def choose_victim(
        self, resident: dict[str, CacheEntry], protect: Optional[str] = None
    ) -> str:
        candidates = [
            entry for oid, entry in resident.items() if oid != protect
        ]
        if not candidates:
            raise LookupError("no evictable entries (all protected)")
        # Ties broken by id for determinism.
        victim = max(candidates, key=lambda e: (e.size, e.object_id))
        return victim.object_id


#: Registry of the built-in policies by name.
POLICIES: dict[str, type[ReplacementPolicy]] = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "lfu": LFUPolicy,
    "size": SizePolicy,
}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a policy by name.

    Raises:
        ValueError: for an unknown policy name.
    """
    try:
        return POLICIES[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from "
            f"{', '.join(POLICIES)}"
        ) from None
