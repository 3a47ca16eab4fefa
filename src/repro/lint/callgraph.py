"""The project call graph: who can call whom, with call-site evidence.

Built once per lint run from the :class:`~repro.lint.symbols
.SymbolTable`, the graph's nodes are function/method definitions
(identified by ``module::qualname`` refs) and its edges are *resolved*
call sites.  The resolution rules — deliberately static and
conservative — are:

* ``f(...)`` — a name defined (or imported) in the calling module;
* ``mod.f(...)`` / ``alias.f(...)`` — an imported module's top-level
  function;
* ``self.m(...)`` inside a class — resolved through the class's base
  chain (the method that would actually run, as far as single
  inheritance determines it);
* ``super().m(...)`` inside a class — resolved starting *past* the
  class itself;
* ``Cls(...)`` — an edge to ``Cls.__init__`` when the class and its
  chain define one.

Calls on arbitrary objects (``self.cache.store(...)``,
``response.headers.set(...)``) are **not** resolved — static type
inference is out of scope; checkers that care about such calls match
them syntactically instead.  An unresolved call simply contributes no
edge, so reachability answers are under-approximate: good for "flag
only what we can prove", the documented bias of every RPR checker.

:meth:`CallGraph.reachable_from` returns, for every function reachable
from a set of roots, the *shortest chain of call sites* that proves it
— exactly the material a diagnostic's because-chain wants.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.lint.project import ModuleInfo, Project
from repro.lint.symbols import (
    FunctionNode,
    Symbol,
    SymbolTable,
    _dotted_parts,
)


@dataclass(frozen=True)
class CallSite:
    """One resolved call: ``caller`` invokes ``callee`` at path:line."""

    caller: str
    callee: str
    path: str
    line: int


@dataclass(frozen=True)
class FunctionInfo:
    """One call-graph node.

    Attributes:
        ref: ``module::qualname`` id.
        module: defining module.
        qualname: name within the module (``Cls.method`` for methods).
        node: the def node.
        is_async: True for ``async def``.
        class_qualname: enclosing class qualname, or None for plain
            functions.
    """

    ref: str
    module: ModuleInfo
    qualname: str
    node: FunctionNode
    is_async: bool
    class_qualname: Optional[str]


class CallGraph:
    """Resolved static call edges over the whole project."""

    def __init__(self, project: Project, symbols: SymbolTable) -> None:
        self.project = project
        self.symbols = symbols
        self.functions: dict[str, FunctionInfo] = {}
        self._edges: dict[str, list[CallSite]] = {}
        for module in project.modules:
            for qualname, node in symbols.functions_in(module).items():
                ref = f"{module.name}::{qualname}"
                class_qualname = (
                    qualname.rsplit(".", 1)[0] if "." in qualname else None
                )
                self.functions[ref] = FunctionInfo(
                    ref=ref,
                    module=module,
                    qualname=qualname,
                    node=node,
                    is_async=isinstance(node, ast.AsyncFunctionDef),
                    class_qualname=class_qualname,
                )
        for info in self.functions.values():
            self._edges[info.ref] = list(self._resolve_calls(info))

    # -- queries -------------------------------------------------------------

    def reachable_from(
        self, roots: Iterable[str]
    ) -> dict[str, tuple[CallSite, ...]]:
        """Every function reachable from ``roots``, with a proof path.

        Returns a map from reachable ref to the chain of call sites
        (outermost call first) that reaches it; roots map to an empty
        chain.
        """
        paths: dict[str, tuple[CallSite, ...]] = {}
        queue: deque[str] = deque()
        for root in roots:
            if root in self.functions and root not in paths:
                paths[root] = ()
                queue.append(root)
        while queue:
            current = queue.popleft()
            for edge in self._edges.get(current, []):
                if edge.callee not in paths:
                    paths[edge.callee] = paths[current] + (edge,)
                    queue.append(edge.callee)
        return paths

    # -- edge resolution -----------------------------------------------------

    def _resolve_calls(self, info: FunctionInfo) -> Iterable[CallSite]:
        for call in self._calls_in(info.node):
            target = self._resolve_callee(info, call)
            if target is None:
                continue
            yield CallSite(
                caller=info.ref,
                callee=target,
                path=info.module.path,
                line=call.lineno,
            )

    @staticmethod
    def _calls_in(node: FunctionNode) -> Iterable[ast.Call]:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                yield sub

    def _resolve_callee(
        self, info: FunctionInfo, call: ast.Call
    ) -> Optional[str]:
        func = call.func
        # super().m(...)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and info.class_qualname is not None
        ):
            found = self.symbols.resolve_super_method(
                info.module, info.class_qualname, func.attr
            )
            return self._function_ref(found)
        # self.m(...)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and info.class_qualname is not None
        ):
            found = self.symbols.resolve_method(
                info.module, info.class_qualname, func.attr
            )
            return self._function_ref(found)
        parts = _dotted_parts(func)
        if parts is None:
            return None
        symbol = self.symbols.resolve_name(info.module, parts)
        if symbol is None:
            return None
        if symbol.kind == "class":
            ctor = self.symbols.resolve_method(
                symbol.module, symbol.qualname, "__init__"
            )
            return self._function_ref(ctor)
        return self._function_ref(symbol)

    @staticmethod
    def _function_ref(symbol: Optional[Symbol]) -> Optional[str]:
        if symbol is None or symbol.kind != "function":
            return None
        return symbol.ref
