"""The live proxy's crash journal: append-only JSONL, SIGKILL-safe.

A :class:`repro.obs.trace.JsonlLog` — one record per line under
``O_APPEND``, no user-space buffering — so every committed transaction
reaches the kernel before the proxy replies to its client
(commit-before-reply): a proxy SIGKILLed at any instant leaves a
journal whose complete lines are exactly its committed transactions,
plus at most one torn trailing line, which :meth:`Journal.load`
discards and the restarted proxy's first append cuts off.

Records hold what came in, not what it did.  The proxy writes them,
and :meth:`LiveProxy.restore <repro.live.proxy.LiveProxy.restore>` runs
each again, in order, through the code that ran it the first time,
answering upstream exchanges from the record's replies:

* ``config`` — protocol name, mode, charging policy; a restore sanity
  check against the restarted proxy's own configuration.
* ``warm`` — the warm-up time and the upstream replies warm-up read.
* ``feed`` — the origin's feed body, written once, before any request
  that delivers from it can commit.
* ``request`` — one committed request: the object, its resolved time,
  its ``X-Repro-Seq`` (absent when the client sent none) and the
  upstream replies it read, in order.
* ``finish`` — its time and the upstream replies it read.

A reply is ``[head, body]``: the serialized head, and the body's text
for a control endpoint or its length for an object (the model's
filler, which nobody reads).  Re-execution rebuilds all the state a
run's result depends on, so a record's size follows the request's
traffic, not the state it touched.
"""

from __future__ import annotations

from repro.obs.trace import JsonlLog


class Journal(JsonlLog):
    """The proxy's journal file; see the module docstring for its records."""


__all__ = ["Journal"]
