"""The ``repro lint`` / ``repro-lint`` / ``python -m repro.lint`` CLI.

Diagnostics print as ``file:line:col: CODE message`` (one per line,
because-chain steps indented underneath) by default; ``--format
github`` emits GitHub Actions ``::error`` annotation commands instead.
Whatever the format, the exit status is the contract CI keys on:

* ``0`` — no findings;
* ``1`` — at least one finding not silenced by a ``noqa`` comment;
* ``2`` — usage problems: bad paths, unparseable sources, unknown
  ``--select`` code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.lint.engine import run_lint
from repro.lint.formats import render_github
from repro.lint.project import LintError
from repro.lint.registry import iter_registry


def make_parser() -> argparse.ArgumentParser:
    """Build the lint CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant linter for the cache-consistency "
            "reproduction (determinism, unit discipline, protocol "
            "registration, oracle and metric alphabets, hygiene, "
            "async lock discipline)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", type=Path, default=[Path("src")],
        help="files/directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated checker codes to run (default: all)",
    )
    parser.add_argument(
        "--format", choices=("text", "github"), default="text",
        dest="format",
        help=(
            "output format: text (default) or github (Actions ::error "
            "annotations)"
        ),
    )
    parser.add_argument(
        "--list-codes", action="store_true",
        help="list the registered checker codes and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the linter; returns the process exit status."""
    args = make_parser().parse_args(argv)

    if args.list_codes:
        for code, cls in iter_registry():
            print(f"{code}  {cls.summary}")
        return 0

    select = None
    if args.select is not None:
        select = [c.strip() for c in args.select.split(",") if c.strip()]
    try:
        result = run_lint(args.paths, select=select)
    except (LintError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"repro-lint: {message}", file=sys.stderr)
        return 2

    if args.format == "github":
        lines = render_github(result)
    else:
        lines = [diagnostic.render() for diagnostic in result.diagnostics]
    for line in lines:
        print(line)
    summary = (
        f"repro-lint: {result.files_checked} file(s), "
        f"{len(result.diagnostics)} error(s)"
    )
    if result.suppressed:
        summary += f", {len(result.suppressed)} noqa-suppressed"
    print(summary)
    return 1 if result.diagnostics else 0


if __name__ == "__main__":
    sys.exit(main())
