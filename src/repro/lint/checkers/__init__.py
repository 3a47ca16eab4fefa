"""Built-in checkers; importing this package registers them all.

* :mod:`repro.lint.checkers.units` — RPR002
* :mod:`repro.lint.checkers.asyncsafety` — RPR007

RPR001, RPR003, RPR004, RPR005, RPR006, RPR008 and RPR009 are retired
ids, never renumbered or reused (docs/DEVELOPING.md has the ledger and
where their catches went).

Third-party checkers register the same way: subclass
:class:`repro.lint.registry.Checker`, decorate with
:func:`repro.lint.registry.register`, and import the module before
calling the engine.
"""

from repro.lint.checkers import (  # noqa: F401  (registration side effects)
    asyncsafety,
    units,
)

__all__ = [
    "asyncsafety",
    "units",
]
