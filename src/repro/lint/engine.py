"""The lint driver: load, check, suppress.

:func:`run_lint` is the one entry point both the CLI and the tests go
through: it loads a :class:`~repro.lint.project.Project` from the given
paths, runs every selected checker (per-module passes first, then the
project-wide passes), and drops diagnostics suppressed by inline
``# repro: noqa[CODE]`` comments.  The result is a :class:`LintResult`;
rendering and exit codes are the CLI's business.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.lint.diagnostics import Diagnostic
from repro.lint.project import Project, load_project
from repro.lint.registry import Checker, all_checkers


@dataclass
class LintResult:
    """Everything one lint run produced.

    Attributes:
        diagnostics: reportable findings (noqa'd ones removed), sorted
            by file, line, column, code.  Any entry fails the run.
        suppressed: findings silenced by inline ``noqa`` comments.
        files_checked: how many files were parsed and checked.
    """

    diagnostics: list[Diagnostic] = field(default_factory=list)
    suppressed: list[Diagnostic] = field(default_factory=list)
    files_checked: int = 0


def _sort_key(d: Diagnostic) -> tuple[str, int, int, str]:
    return (d.path, d.line, d.col, d.code)


def _selected(select: Optional[Iterable[str]]) -> list[Checker]:
    checkers = all_checkers()
    if select:
        wanted = {c.upper() for c in select}
        unknown = wanted - {c.code for c in checkers}
        if unknown:
            raise KeyError(
                f"unknown checker code(s): {', '.join(sorted(unknown))}"
            )
        checkers = [c for c in checkers if c.code in wanted]
    return checkers


def check_project(
    project: Project, select: Optional[Iterable[str]] = None
) -> tuple[list[Diagnostic], list[Diagnostic]]:
    """Run the (selected) checkers over an already-loaded project.

    Returns:
        ``(reportable, suppressed)`` — both sorted; ``suppressed`` holds
        the findings silenced by inline noqa comments.

    Raises:
        KeyError: when ``select`` names an unknown code.
    """
    found: list[Diagnostic] = []
    for checker in _selected(select):
        for module in project.modules:
            found.extend(checker.check_module(module, project))
        found.extend(checker.check_project(project))

    by_path = {m.path: m for m in project.modules}
    reportable: list[Diagnostic] = []
    suppressed: list[Diagnostic] = []
    for d in sorted(found, key=_sort_key):
        module = by_path.get(d.path)
        if module is not None and module.suppressed(d.code, d.line):
            suppressed.append(d)
        else:
            reportable.append(d)
    return reportable, suppressed


def run_lint(
    paths: Sequence[Path],
    *,
    select: Optional[Iterable[str]] = None,
    root: Optional[Path] = None,
) -> LintResult:
    """Lint ``paths`` and return the full result.

    Args:
        paths: files/directories to lint.
        select: restrict to these checker codes (default: all).
        root: base directory for display paths (defaults to cwd).

    Raises:
        repro.lint.project.LintError: unreadable/unparseable input.
        KeyError: unknown ``select`` code.
    """
    project = load_project(paths, root=root)
    reportable, suppressed = check_project(project, select=select)
    return LintResult(
        diagnostics=reportable,
        suppressed=suppressed,
        files_checked=len(project.modules),
    )
