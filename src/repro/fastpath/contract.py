"""The metrics clause of the equivalence contract.

docs/FASTPATH.md states the contract in prose.  Its result and event
clauses are checked by :func:`repro.core.results.diff_results` /
:func:`~repro.core.results.diff_events` (re-exported here, with
:data:`~repro.core.metrics.COUNTER_FIELDS`, for the callers that know
them by this name); what this module owns is :func:`diff_metrics`, the
byte-level comparison of two registry dumps, and the
:data:`ENGINE_METRIC_PREFIXES` it leaves out.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.metrics import COUNTER_FIELDS
from repro.core.results import diff_events, diff_results

#: Metric-name prefixes excluded from :func:`diff_metrics` — engine
#: bookkeeping describes *which* engine ran, not what the run did.
ENGINE_METRIC_PREFIXES: tuple[str, ...] = ("engine.", "fastpath.")


def _strip_engine_metrics(dump: dict[str, Any]) -> dict[str, Any]:
    prefixes = ENGINE_METRIC_PREFIXES
    return {
        section: {
            name: value
            for name, value in dump.get(section, {}).items()
            if not name.startswith(prefixes)
        }
        for section in ("counters", "gauges", "histograms")
    }


def diff_metrics(
    fast: dict[str, Any],
    reference: dict[str, Any],
    *,
    label: str = "fastpath.metrics",
) -> list[str]:
    """Byte-level differences between two registry dumps (empty = none).

    ``fast`` and ``reference`` are
    :meth:`~repro.obs.registry.MetricsRegistry.as_dict` dumps of two
    registries that each scoped one run — the kernel's batched flush on
    one side, the reference loop's per-observation publication on the
    other.  Equality is *byte* equality of the JSON serialization
    (so ``-0.0`` vs ``0.0`` or a missing lazily-created key counts as a
    divergence), after dropping :data:`ENGINE_METRIC_PREFIXES` names.
    """
    lines: list[str] = []
    fast_filtered = _strip_engine_metrics(fast)
    ref_filtered = _strip_engine_metrics(reference)
    for section in ("counters", "gauges", "histograms"):
        fast_map = fast_filtered[section]
        ref_map = ref_filtered[section]
        for name in sorted(set(fast_map) | set(ref_map)):
            fast_json = json.dumps(fast_map.get(name), sort_keys=True)
            ref_json = json.dumps(ref_map.get(name), sort_keys=True)
            if fast_json != ref_json:
                lines.append(
                    f"{label}.{section}[{name}]: fast={fast_json} "
                    f"reference={ref_json}"
                )
    return lines


__all__ = [
    "COUNTER_FIELDS",
    "ENGINE_METRIC_PREFIXES",
    "diff_events",
    "diff_metrics",
    "diff_results",
]
