"""``repro.fastpath`` — the batched, array-backed simulator engine.

A drop-in fast implementation of the simulator inner loop: per-object
Python objects become parallel arrays of ints/floats, delivery — the
invalidation feed, or a fault plan's compiled schedule — merges with
the request stream through one action cursor, and freshness decisions
run as compiled batch predicates — at byte-identical output
to :mod:`repro.core.simulator`, which remains the oracle reference.

The equivalence contract (what "byte-identical" covers, and how it is
enforced) is documented in docs/FASTPATH.md; docs/PERFORMANCE.md shows
the measured speedups.  Engine selection (``--engine fast|reference``,
``REPRO_ENGINE``) and automatic reference fallback live in
:mod:`repro.fastpath.dispatch`.
"""

from repro.fastpath.arrays import (
    CacheState,
    CompiledServer,
    compile_server,
    encode_requests,
    initial_state,
)
from repro.fastpath.contract import (
    COUNTER_FIELDS,
    diff_events,
    diff_metrics,
    diff_results,
)
from repro.fastpath.dispatch import (
    ENGINE_ENV_VAR,
    ENGINES,
    FAST,
    REFERENCE,
    UnsupportedFastPathError,
    compile_protocol,
    engine_simulate,
    fast_simulate,
    resolve_engine,
    set_engine,
    unsupported_reason,
)

__all__ = [
    "CacheState",
    "CompiledServer",
    "COUNTER_FIELDS",
    "ENGINE_ENV_VAR",
    "ENGINES",
    "FAST",
    "REFERENCE",
    "UnsupportedFastPathError",
    "compile_protocol",
    "compile_server",
    "diff_events",
    "diff_metrics",
    "diff_results",
    "encode_requests",
    "engine_simulate",
    "fast_simulate",
    "initial_state",
    "resolve_engine",
    "set_engine",
    "unsupported_reason",
]
