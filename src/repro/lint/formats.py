"""GitHub Actions rendering of a :class:`~repro.lint.engine.LintResult`.

``--format github`` prints one `workflow command
<https://docs.github.com/actions/reference/workflow-commands>`_
(``::error file=...,line=...::``) per finding, so CI findings surface as
inline PR annotations.  :func:`github_command` is shared with the mypy
filter in :mod:`repro.lint.annotations`.
"""

from __future__ import annotations

from repro.lint.engine import LintResult


def escape_property(value: str) -> str:
    """Escape a workflow-command *property* value (file=, title=)."""
    return (
        value.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
        .replace(":", "%3A")
        .replace(",", "%2C")
    )


def escape_message(value: str) -> str:
    """Escape a workflow-command message (newlines render in the UI)."""
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def github_command(
    level: str, path: str, line: int, col: int, title: str, message: str
) -> str:
    """One ``::level file=...`` annotation line."""
    return (
        f"::{level} file={escape_property(path)},line={line},col={col},"
        f"title={escape_property(title)}::{escape_message(message)}"
    )


def render_github(result: LintResult) -> list[str]:
    """An ``::error`` annotation line for every reportable diagnostic."""
    lines = []
    for d in result.diagnostics:
        message = d.message
        if d.because:
            message += "\n" + "\n".join(b.render() for b in d.because)
        lines.append(
            github_command("error", d.path, d.line, d.col, d.code, message)
        )
    return lines
