"""The pluggable checker registry.

A checker is a subclass of :class:`Checker` registered with the
:func:`register` decorator.  Each has a stable ``code`` (``RPRxxx``) and a
one-line ``summary`` (shown by ``repro lint --list-codes``).  Checkers
implement either or both of:

* :meth:`Checker.check_module` — called once per linted file; the place
  for purely local rules (RPR001, RPR005);
* :meth:`Checker.check_project` — called once per run with the whole
  :class:`~repro.lint.project.Project`; the place for cross-module
  invariants (RPR002 unit propagation, RPR003 registration, RPR004 /
  RPR006 alphabets, RPR007 lock discipline).

Registering a second checker under an existing code raises — codes are
the public contract (suppressions and docs key on them).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Type

from repro.lint.diagnostics import Because, Diagnostic
from repro.lint.project import ModuleInfo, Project


class Checker:
    """Base class for one lint rule."""

    #: Stable public code, e.g. ``RPR001``.
    code: str = ""
    #: One-line description for ``--list-codes`` and docs.
    summary: str = ""

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterable[Diagnostic]:
        """Per-file pass; yield diagnostics for ``module``."""
        return ()

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        """Whole-project pass; yield cross-module diagnostics."""
        return ()

    # -- helpers shared by the concrete checkers ----------------------------

    def diagnostic(
        self,
        module_path: str,
        line: int,
        col: int,
        message: str,
        because: tuple[Because, ...] = (),
    ) -> Diagnostic:
        """Build a diagnostic carrying this checker's code.

        ``because`` optionally attaches the cross-file explanation
        chain (call path, inference provenance).
        """
        return Diagnostic(
            path=module_path,
            line=line,
            col=col,
            code=self.code,
            message=message,
            because=because,
        )


_REGISTRY: dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the registry.

    Raises:
        ValueError: on a missing or duplicate code.
    """
    if not cls.code:
        raise ValueError(f"checker {cls.__name__} has no code")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate checker code {cls.code!r}")
    _REGISTRY[cls.code] = cls
    return cls


def all_checkers() -> list[Checker]:
    """Fresh instances of every registered checker, in code order."""
    _ensure_loaded()
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def checker_codes() -> list[str]:
    """Every registered code, sorted."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_checker(code: str) -> Checker:
    """Instantiate the checker registered under ``code``.

    Raises:
        KeyError: for an unknown code (message lists the valid ones).
    """
    _ensure_loaded()
    try:
        return _REGISTRY[code.upper()]()
    except KeyError:
        raise KeyError(
            f"unknown checker code {code!r}; valid codes: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def iter_registry() -> Iterator[tuple[str, Type[Checker]]]:
    """(code, class) pairs, sorted by code."""
    _ensure_loaded()
    return iter(sorted(_REGISTRY.items()))


def _ensure_loaded() -> None:
    """Import the built-in checker modules (idempotent)."""
    import repro.lint.checkers  # noqa: F401  (registration side effect)
