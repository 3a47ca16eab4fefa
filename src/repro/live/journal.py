"""The live proxy's crash journal: append-only JSONL, SIGKILL-safe.

A :class:`repro.obs.trace.JsonlLog` — one record per line under
``O_APPEND``, no user-space buffering — so every committed transaction
reaches the kernel before the proxy replies to its client
(commit-before-reply): a proxy SIGKILLed at any instant leaves a
journal whose complete lines are exactly its committed transactions,
plus at most one torn trailing line, which :meth:`Journal.load`
discards and the restarted proxy's first append cuts off.

Record kinds (the proxy writes them, :meth:`LiveProxy.restore
<repro.live.proxy.LiveProxy.restore>` replays them):

* ``config`` — protocol name, mode, charging policy; a restore sanity
  check against the restarted proxy's own configuration.
* ``warm`` — the warmed cache (every entry's full field set) and the
  warm-time clock state.
* ``txn`` — one committed transaction's deltas: the reply (keyed by
  ``X-Repro-Seq`` for replay-on-retry) as its serialized head
  (``payload``) and the length of its filler body (``body_size``; a
  record without one holds the whole reply), non-zero counter and
  ledger deltas, emitted events, post-state of every touched cache
  entry, invalidation cursors, clocks, per-object upstream sequence
  counters, and the protocol's :meth:`state_snapshot
  <repro.core.protocols.base.ConsistencyProtocol.state_snapshot>`.

The format is deltas-plus-touched-entries rather than full snapshots so
journal size is proportional to work done, and restore is a single
forward replay.
"""

from __future__ import annotations

from repro.obs.trace import JsonlLog


class Journal(JsonlLog):
    """The proxy's journal file; see the module docstring for its records."""


__all__ = ["Journal"]
