"""The pluggable checker registry.

A checker is a subclass of :class:`Checker` registered with the
:func:`register` decorator.  Each has a stable ``code`` (``RPRxxx``) and a
one-line ``summary`` (shown by ``repro lint --list-codes``).  Checkers
implement :meth:`Checker.check_project`, called once per run with the
whole :class:`~repro.lint.project.Project` (RPR002 unit propagation,
RPR007 lock discipline).

Registering a second checker under an existing code raises — codes are
the public contract (suppressions and docs key on them).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Type

from repro.lint.diagnostics import Because, Diagnostic
from repro.lint.project import Project


class Checker:
    """Base class for one lint rule."""

    #: Stable public code, e.g. ``RPR002``.
    code: str = ""
    #: One-line description for ``--list-codes`` and docs.
    summary: str = ""

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        """Whole-project pass; yield diagnostics."""
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


def iter_registry() -> Iterator[tuple[str, Type[Checker]]]:
    """(code, class) pairs, sorted by code."""
    _ensure_loaded()
    return iter(sorted(_REGISTRY.items()))


def _ensure_loaded() -> None:
    """Import the built-in checker modules (idempotent)."""
    import repro.lint.checkers  # noqa: F401  (registration side effect)
