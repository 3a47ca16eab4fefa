"""The linted-source model: parsed modules plus project-wide lookups.

The engine parses every ``.py`` file once into a :class:`ModuleInfo`
(source text, AST, dotted module name, per-line ``noqa`` suppressions)
and bundles them into a :class:`Project` so cross-module checkers —
unit propagation (RPR002), lock discipline (RPR007) — can resolve
imported definitions by dotted name instead of by path.

Module names are derived from the path: everything after a ``src``
component (the repo layout), else everything from the first ``repro``
component, else the bare stem.  Fixture trees in tests reuse the same
rule by mimicking a ``src/repro/...`` layout, or by constructing
:class:`ModuleInfo` directly with an explicit name.

Suppression syntax, checked per physical line::

    something_noisy()  # repro: noqa[RPR002]
    another()          # repro: noqa[RPR002, RPR007]
    everything()       # repro: noqa

A bare ``noqa`` suppresses every code on that line; the bracketed form
suppresses only the listed codes.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.callgraph import CallGraph
    from repro.lint.symbols import SymbolTable

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)

#: Sentinel stored for a bare ``# repro: noqa`` (suppresses all codes).
ALL_CODES = "*"


def module_name_for(path: Path) -> str:
    """Derive a dotted module name from a file path (see module docs)."""
    parts = list(path.parts)
    parts[-1] = path.stem
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:] if parts else []
    return ".".join(parts)


def parse_noqa(source: str) -> dict[int, set[str]]:
    """Map 1-based line numbers to the codes suppressed on that line."""
    suppressions: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressions[lineno] = {ALL_CODES}
        else:
            suppressions[lineno] = {
                c.strip().upper() for c in codes.split(",") if c.strip()
            }
    return suppressions


@dataclass
class ModuleInfo:
    """One parsed source file.

    Attributes:
        path: display path (relative to the lint root when possible).
        name: dotted module name, e.g. ``repro.core.simulator``.
        source: raw file text.
        tree: parsed :mod:`ast` module.
        noqa: per-line suppression table from :func:`parse_noqa`.
    """

    path: str
    name: str
    source: str
    tree: ast.Module
    noqa: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def from_source(
        cls, source: str, path: str = "<string>", name: Optional[str] = None
    ) -> "ModuleInfo":
        """Parse ``source`` directly (the unit-test entry point).

        Raises:
            SyntaxError: when the source does not parse.
        """
        if name is None:
            name = module_name_for(Path(path))
        return cls(
            path=path,
            name=name,
            source=source,
            tree=ast.parse(source, filename=path),
            noqa=parse_noqa(source),
        )

    def suppressed(self, code: str, line: int) -> bool:
        """True when ``code`` is noqa'd on ``line``."""
        codes = self.noqa.get(line)
        if not codes:
            return False
        return ALL_CODES in codes or code.upper() in codes


class Project:
    """Every module under the lint roots, addressable by dotted name.

    Two project-wide analyses are built lazily and shared by every
    checker that asks: :attr:`symbols` (definitions, imports, method
    resolution — :mod:`repro.lint.symbols`) and :attr:`call_graph`
    (resolved call edges — :mod:`repro.lint.callgraph`).
    """

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        self.modules: list[ModuleInfo] = list(modules)
        self._by_name: dict[str, ModuleInfo] = {
            m.name: m for m in self.modules
        }
        self._symbols: Optional[object] = None
        self._call_graph: Optional[object] = None

    def module(self, name: str) -> Optional[ModuleInfo]:
        """The module with dotted name ``name``, or None if not linted."""
        return self._by_name.get(name)

    @property
    def symbols(self) -> "SymbolTable":
        """The whole-project symbol table (built on first use)."""
        if self._symbols is None:
            from repro.lint.symbols import SymbolTable

            self._symbols = SymbolTable(self)
        return self._symbols  # type: ignore[return-value]

    @property
    def call_graph(self) -> "CallGraph":
        """The project call graph (built on first use)."""
        if self._call_graph is None:
            from repro.lint.callgraph import CallGraph

            self._call_graph = CallGraph(self, self.symbols)
        return self._call_graph  # type: ignore[return-value]


class LintError(Exception):
    """A file could not be linted (unreadable or unparseable)."""


def collect_paths(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Raises:
        LintError: when a named path does not exist.
    """
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise LintError(f"no such file or directory: {path}")
    seen: set[Path] = set()
    unique: list[Path] = []
    for f in files:
        if f not in seen:
            seen.add(f)
            unique.append(f)
    return unique


def load_project(paths: Iterable[Path], root: Optional[Path] = None) -> Project:
    """Parse every ``.py`` file under ``paths`` into a :class:`Project`.

    Args:
        paths: files and/or directories to lint.
        root: base for display paths; defaults to the current directory
            (paths outside it stay absolute).

    Raises:
        LintError: on missing paths or files that fail to parse.
    """
    base = root if root is not None else Path.cwd()
    modules: list[ModuleInfo] = []
    for file_path in collect_paths(paths):
        try:
            display = str(file_path.resolve().relative_to(base.resolve()))
        except ValueError:
            display = str(file_path)
        try:
            source = file_path.read_text(encoding="utf-8")
            module = ModuleInfo.from_source(
                source, path=display, name=module_name_for(file_path)
            )
        except (OSError, SyntaxError) as exc:
            raise LintError(f"cannot lint {file_path}: {exc}") from exc
        modules.append(module)
    return Project(modules)
