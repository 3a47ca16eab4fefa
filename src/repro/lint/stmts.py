"""Statement-shape helpers shared by the flow-walking checkers.

RPR002 (unit propagation) and RPR007 (lock discipline) both walk a
function one statement at a time: they look at what a statement
evaluates *itself*, then descend into the blocks it owns.  These three
helpers are that split, kept in one place so the two walkers agree on
what "the statement's own expressions" means.
"""

from __future__ import annotations

import ast
from typing import Iterator

#: Statement fields that hold nested statements (directly, or inside
#: ``except`` handlers) rather than the statement's own expressions.
_BLOCK_FIELDS = ("body", "handlers", "orelse", "finalbody")


def child_blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists nested directly in ``stmt``, in source order
    (``try`` body, each handler, ``else``, ``finally``)."""
    blocks: list[list[ast.stmt]] = []
    for attr in _BLOCK_FIELDS:
        inner = getattr(stmt, attr, None) or []
        if attr == "handlers":
            blocks.extend(handler.body for handler in inner)
        elif inner:
            blocks.append(inner)
    return blocks


def own_exprs(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Root nodes of what ``stmt`` evaluates itself — targets, values,
    tests, ``with`` items, default arguments — nested blocks excluded."""
    for name, value in ast.iter_fields(stmt):
        if name in _BLOCK_FIELDS:
            continue
        for node in value if isinstance(value, list) else [value]:
            if isinstance(node, ast.AST):
                yield node


def iter_no_defs(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested function bodies."""
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.append(child)
