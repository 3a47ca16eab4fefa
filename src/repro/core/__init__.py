"""Core of the reproduction: protocols, cache, origin server, simulators.

The public surface mirrors the paper's apparatus:

* :func:`simulate` / :class:`Simulation` — the single-cache trace-driven
  simulator with :class:`SimulatorMode` selecting base (unconditional
  refetch) or optimized (If-Modified-Since) behaviour.
* The protocols package — TTL, Alex, invalidation, plus baselines.
* :class:`OriginServer`, :class:`Cache` — the two endpoints.
* :class:`HierarchySimulation` — the multi-level topology the paper
  flattened, for the Figure 1 verification.
"""

from repro.core.cache import Cache, CacheEntry
from repro.core.clock import DAY, HOUR, MINUTE, MONTH, SECOND, days, hours
from repro.core.costs import DEFAULT_COSTS, PAPER_MESSAGE_BYTES, MessageCosts
from repro.core.hierarchy import (
    CacheNode,
    HierarchySimulation,
    drive_workload,
    two_level_tree,
)
from repro.core.metrics import BandwidthLedger, ConsistencyCounters
from repro.core.objects import ModificationSchedule, ObjectHistory, WebObject
from repro.core.results import SimulationResult, average_results, merge_results
from repro.core.server import FetchResult, OriginServer, UnknownObjectError
from repro.core.simulator import Simulation, SimulatorMode, simulate

__all__ = [
    "DAY",
    "DEFAULT_COSTS",
    "HOUR",
    "MINUTE",
    "MONTH",
    "PAPER_MESSAGE_BYTES",
    "SECOND",
    "BandwidthLedger",
    "Cache",
    "CacheEntry",
    "CacheNode",
    "ConsistencyCounters",
    "FetchResult",
    "HierarchySimulation",
    "MessageCosts",
    "ModificationSchedule",
    "ObjectHistory",
    "OriginServer",
    "Simulation",
    "SimulationResult",
    "SimulatorMode",
    "UnknownObjectError",
    "WebObject",
    "average_results",
    "days",
    "drive_workload",
    "hours",
    "merge_results",
    "simulate",
    "two_level_tree",
]
