"""Built-in checkers; importing this package registers them all.

* :mod:`repro.lint.checkers.determinism` — RPR001
* :mod:`repro.lint.checkers.units` — RPR002
* :mod:`repro.lint.checkers.conformance` — RPR003
* :mod:`repro.lint.checkers.events` — RPR004
* :mod:`repro.lint.checkers.hygiene` — RPR005
* :mod:`repro.lint.checkers.obsnames` — RPR006
* :mod:`repro.lint.checkers.asyncsafety` — RPR007
* :mod:`repro.lint.checkers.unitflow` — RPR009 (the id before it is
  retired and not reused; docs/DEVELOPING.md has the ledger)

Third-party checkers register the same way: subclass
:class:`repro.lint.registry.Checker`, decorate with
:func:`repro.lint.registry.register`, and import the module before
calling the engine.
"""

from repro.lint.checkers import (  # noqa: F401  (registration side effects)
    asyncsafety,
    conformance,
    determinism,
    events,
    hygiene,
    obsnames,
    unitflow,
    units,
)

__all__ = [
    "asyncsafety",
    "conformance",
    "determinism",
    "events",
    "hygiene",
    "obsnames",
    "unitflow",
    "units",
]
