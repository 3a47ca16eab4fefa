"""Diagnostic records emitted by the invariant linter.

A :class:`Diagnostic` is one finding: *where* (file, line, column) and
*what* (a stable ``RPRxxx`` code plus a human message).  Every finding
fails the run; there are no severities.  Renderings follow the
conventional ``file:line:col: CODE message`` shape so editors and CI
annotations can parse them.

Cross-file checkers (the call-graph and dataflow rules, RPR002 and
RPR007) can attach a **because chain**: an ordered list of
:class:`Because` steps explaining *why* the flagged line is implicated
— the call path from an ``async def`` to a blocking call, the
definition site a unit was inferred from.  The chain renders indented
under the main line and folds into the ``--format github`` annotation;
it never participates in suppression (a ``noqa`` works only on the
diagnostic's own line).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Because:
    """One step of a cross-file explanation chain.

    Attributes:
        path: file the step points at.
        line: 1-based line number of the step.
        note: what this step contributes to the finding.
    """

    path: str
    line: int
    note: str

    def render(self) -> str:
        """The canonical ``because: file:line: note`` line."""
        return f"because: {self.path}:{self.line}: {self.note}"


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding.

    Attributes:
        path: file the finding is in, as given to the engine (relative
            to the lint root when possible).
        line: 1-based line number.
        col: 1-based column number.
        code: stable checker code, e.g. ``RPR002``.
        message: human-readable explanation.
        because: optional cross-file explanation chain (outermost step
            first), e.g. the call path that makes a blocking call
            reachable from an ``async def``.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    because: tuple[Because, ...] = field(default=())

    def render(self) -> str:
        """The canonical ``file:line:col: CODE message`` line(s).

        Because-chain steps render indented underneath, one per line.
        """
        head = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if not self.because:
            return head
        steps = "\n".join(f"    {b.render()}" for b in self.because)
        return f"{head}\n{steps}"
