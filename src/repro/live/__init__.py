"""Live HTTP/1.0 origin + proxy mode: the simulator's objects on sockets.

The simulator (:mod:`repro.core`) exercises the paper's consistency
protocols against a *modelled* origin server.  This package runs the
very same objects — the :class:`~repro.core.server.OriginServer`
population model, the :class:`~repro.core.cache.Cache`, every
:class:`~repro.core.protocols.base.ConsistencyProtocol`, and the
:mod:`repro.http` message/date models — over real asyncio sockets:

* :class:`~repro.live.origin.LiveOrigin` — an HTTP/1.0 origin serving
  the modelled population (plain GET, If-Modified-Since, an
  invalidation feed control endpoint), keep-alive capable;
* :class:`~repro.live.proxy.LiveProxy` — a caching proxy whose
  freshness decisions are delegated to an unmodified protocol object
  and whose accounting is the simulator's own
  :class:`repro.core.step.RequestStep`, with keyed locking,
  transactional commit, and an
  optional crash journal (:class:`~repro.live.journal.Journal`);
* :func:`~repro.live.driver.run_replay` — the one load driver,
  replaying a synthetic trace through a pool of live connections (a
  pool of one is serial replay), against an in-process proxy or
  (``crash_after=``) a child process built from the same arguments
  that is SIGKILLed and restarted mid-replay;
* :class:`~repro.live.chaos.ChaosRelay` — a deterministic socket-level
  fault injector (loss, reset, truncation, dribble, delay) that sits on
  either hop;
* :func:`~repro.live.differential.live_vs_sim` — the oracle's fourth
  leg: after a live replay (pooled, chaos-ridden, faulted, or SIGKILLed
  and journal-restored), the proxy's counters, bandwidth ledger and
  per-object events must equal a simulated run of the same trace
  *exactly*.

Simulation time travels on the wire in RFC 1123 ``Date`` headers at
whole-second granularity, which is why every timestamp a live run
touches must be integral (:func:`~repro.live.wire.ensure_integral`) —
and why the pre-epoch flooring fix in :mod:`repro.http.datefmt`
matters: objects created before the trace window carry negative
Last-Modified stamps that must survive a header round trip.

See ``docs/LIVE.md`` for the full design and the equivalence argument.
"""

from repro.live.chaos import ChaosRelay, WireFaultPlan, parse_chaos
from repro.live.differential import (
    diff_event_multisets,
    diff_live_vs_sim,
    live_vs_sim,
)
from repro.live.driver import (
    LiveReplayReport,
    check_wire_exact,
    replay_pooled,
    run_replay,
)
from repro.live.journal import Journal
from repro.live.origin import LiveOrigin
from repro.live.proxy import LiveProxy
from repro.live.wire import (
    LiveConnection,
    LiveConnectionClosed,
    LiveReplayError,
    LiveTruncationError,
    LiveWireError,
    ensure_integral,
)

__all__ = [
    "ChaosRelay",
    "Journal",
    "LiveConnection",
    "LiveConnectionClosed",
    "LiveOrigin",
    "LiveProxy",
    "LiveReplayError",
    "LiveReplayReport",
    "LiveTruncationError",
    "LiveWireError",
    "WireFaultPlan",
    "check_wire_exact",
    "diff_event_multisets",
    "diff_live_vs_sim",
    "ensure_integral",
    "live_vs_sim",
    "parse_chaos",
    "replay_pooled",
    "run_replay",
]
