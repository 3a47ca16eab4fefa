"""Deterministic fault injection for the consistency simulations.

The paper's invalidation result — perfect consistency at competitive
bandwidth — assumes every callback is delivered.  Gwertzman & Seltzer
flag the assumption themselves: invalidation "is not resilient in the
face of network partition or server crashes"; an unreachable cache keeps
serving a copy the server believes it has invalidated.  This package
turns that caveat into a measurable, reproducible input:

* :class:`~repro.faults.plan.FaultPlan` — a seeded, composable fault
  model: per-message invalidation loss and delay, server downtime
  windows (notices arising or retried during an outage are abandoned —
  server state loss), and cache crash/restart with total state loss.
* :meth:`~repro.faults.plan.FaultPlan.compile` — the plan plus a
  modification feed becomes a time-ordered schedule of
  :class:`~repro.faults.plan.FaultAction` records (the row view of
  :meth:`~repro.faults.plan.FaultPlan.columns`, the columnar form the
  fast kernel replays).  The production simulator, the fast kernel and
  the ``repro.verify`` spec model consume the *same* compiled schedule,
  so the oracle verifies fault *handling* while the schedule itself is
  part of the experiment configuration, like
  :class:`~repro.core.costs.MessageCosts`.
* :func:`~repro.faults.spec.parse_faults` — the CLI grammar behind
  ``--faults loss=0.05,downtime=2h`` on ``repro simulate|sweep``.

Every draw is a pure hash of ``(seed, message index, attempt)`` — see
:mod:`repro.faults.rng` — so a plan's schedule is identical across
processes, worker counts, and platforms.  With no plan installed the
simulator's behaviour is unchanged, and a plan with zero rates compiles
to a schedule whose replay is byte-identical to the fault-free path
(property-tested in ``tests/faults/``).

See ``docs/FAULTS.md`` for the fault model, the spec grammar, and the
recovery semantics (bounded retry with exponential backoff, and the
lease fallback in
:class:`~repro.core.protocols.invalidation.LeasedInvalidationProtocol`).
"""

from repro.faults.plan import (
    ATTEMPT_LOST,
    ATTEMPT_SENT,
    CRASH,
    DELIVER,
    DROP,
    ActionColumns,
    DowntimeWindow,
    FaultAction,
    FaultPlan,
)
from repro.faults.rng import uniform01
from repro.faults.spec import FaultSpec, parse_faults

__all__ = [
    "ActionColumns",
    "ATTEMPT_LOST",
    "ATTEMPT_SENT",
    "CRASH",
    "DELIVER",
    "DROP",
    "DowntimeWindow",
    "FaultAction",
    "FaultPlan",
    "FaultSpec",
    "parse_faults",
    "uniform01",
]
