"""Differential verification for the simulator (`the consistency oracle`).

The paper's argument is carried entirely by counters — stale hits,
invalidation messages, "a cache miss is recorded only when a file
actually needs to be transferred" — so this package cross-checks the
production simulator against an independent, deliberately naive
re-implementation of the protocol definitions:

* :mod:`repro.verify.spec` — the :class:`SpecModel`, a brute-force
  per-request recomputation of freshness, staleness and message charges
  straight from the protocol definitions (linear scans, no caching, no
  shared code with the simulator's hot path).
* :mod:`repro.verify.oracle` — replays a run's
  :data:`~repro.core.simulator.EventObserver` stream event-for-event
  against the spec and diffs every counter and bandwidth ledger entry;
  :func:`checked_simulate` is a drop-in for
  :func:`~repro.core.simulator.simulate` that self-checks when
  verification is enabled (``--verify`` / ``REPRO_VERIFY=1``).
* :mod:`repro.verify.metamorphic` — cross-run properties that must hold
  whatever the workload (invalidation ⇒ zero stale hits, optimized
  bytes ≤ base bytes, poll-every-request ⇒ validations == requests,
  hit/miss closure).

See docs/PROTOCOLS.md § "Invariants & verification" for usage.
"""

from repro.verify.metamorphic import (
    PropertyResult,
    check_hit_miss_closure,
    check_invalidation_zero_stale,
    check_optimized_bytes_leq_base,
    check_poll_validates_every_request,
    run_metamorphic_suite,
)
from repro.verify.oracle import (
    ConsistencyViolation,
    OracleReport,
    checked_simulate,
    counted_runs,
    is_enabled,
    set_enabled,
    verify_simulation,
)
from repro.verify.spec import SpecModel, UnsupportedProtocolError, rule_for

__all__ = [
    "ConsistencyViolation",
    "OracleReport",
    "PropertyResult",
    "SpecModel",
    "UnsupportedProtocolError",
    "check_hit_miss_closure",
    "check_invalidation_zero_stale",
    "check_optimized_bytes_leq_base",
    "check_poll_validates_every_request",
    "checked_simulate",
    "counted_runs",
    "is_enabled",
    "rule_for",
    "run_metamorphic_suite",
    "set_enabled",
    "verify_simulation",
]
