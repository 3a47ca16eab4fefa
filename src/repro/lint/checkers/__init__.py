"""Built-in checkers; importing this package registers them all.

* :mod:`repro.lint.checkers.determinism` — RPR001
* :mod:`repro.lint.checkers.units` — RPR002
* :mod:`repro.lint.checkers.conformance` — RPR003
* :mod:`repro.lint.checkers.alphabets` — RPR004 and RPR006
* :mod:`repro.lint.checkers.hygiene` — RPR005
* :mod:`repro.lint.checkers.asyncsafety` — RPR007

RPR008 and RPR009 are retired ids, never renumbered or reused
(docs/DEVELOPING.md has the ledger and where their catches went).

Third-party checkers register the same way: subclass
:class:`repro.lint.registry.Checker`, decorate with
:func:`repro.lint.registry.register`, and import the module before
calling the engine.
"""

from repro.lint.checkers import (  # noqa: F401  (registration side effects)
    alphabets,
    asyncsafety,
    conformance,
    determinism,
    hygiene,
    units,
)

__all__ = [
    "alphabets",
    "asyncsafety",
    "conformance",
    "determinism",
    "hygiene",
    "units",
]
