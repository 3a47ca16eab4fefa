"""The observability alphabet: every declared name is spelled out
where it is published.

The other direction is checked at the point of entry: the registry and
the trace sink refuse an undeclared name.  Those refusals are shown in
``tests/lint/test_checkers.py::TestObsNames``, beside the lint fixtures
they replaced."""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import repro
from repro.obs import names

#: The alphabets ``repro/obs/names.py`` declares.
ALPHABETS = ("METRIC_NAMES", "SPAN_NAMES", "TRACE_MARK_NAMES")


@functools.cache
def source_constants() -> frozenset[str]:
    """Every string constant in a ``repro`` module other than
    ``names.py``.  Docstrings count, and so do dict literals: a
    table-driven name such as an ``EVENT_METRICS`` value stays live
    through the table that holds it."""
    root = Path(repro.__file__).parent
    return frozenset(
        node.value
        for path in sorted(root.rglob("*.py"))
        if path != Path(names.__file__)
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )


def dead_names() -> list[str]:
    """Declared names that no other module spells out."""
    return [
        name
        for alphabet in ALPHABETS
        for name in getattr(names, alphabet)
        if name not in source_constants()
    ]


def test_every_declared_name_is_live():
    assert dead_names() == []

