"""The one audited wall-clock entry point.

Everything under ``repro.*`` that needs to *measure* real elapsed time
(run instrumentation, engine phase timers, live trace spans) calls
:func:`monotonic` — never ``time.perf_counter`` / ``time.time``
directly.  The RPR001 determinism checker forbids wall-clock reads
across the scoped packages (``repro.obs`` included); the suppression in
this module is the *only* sanctioned one there, so an audit of
host-time usage is a read of this file.

Simulated time is a different thing entirely: it comes from the request
stream and ``repro.core.clock``, and must never be mixed with values
from here (RPR002 guards the arithmetic).
"""

from __future__ import annotations

import time


def monotonic() -> float:
    """Seconds from a monotonic high-resolution host clock.

    Differences of two reads measure elapsed wall time; the absolute
    value is meaningless.  This is the single audited wall-clock read
    for all of ``repro`` (see the module docstring).
    """
    return time.perf_counter()  # repro: noqa[RPR001]

