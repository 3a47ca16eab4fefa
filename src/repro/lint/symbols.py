"""The whole-project symbol table: definitions, imports, method lookup.

:class:`SymbolTable` indexes every linted module's top-level functions,
classes, and methods by *qualified name* (``TTLProtocol.is_fresh``),
resolves each module's import aliases back to dotted project names, and
walks base-class chains so checkers can answer "which method actually
runs here?" across files.  It is the substrate the project-wide
dataflow checkers build on:

* RPR007 follows the call graph (:mod:`repro.lint.callgraph`) from
  ``async def`` bodies into sync helpers;
* RPR002 propagates inferred units through function signatures and
  returns at resolved call sites.

Everything is derived from the parsed :class:`~repro.lint.project
.Project` — stdlib ``ast`` only, nothing is imported or executed.

Known imprecision (documented in docs/DEVELOPING.md): names are
resolved *statically* — conditional imports, ``setattr``/``getattr``
indirection, decorators that replace functions, star imports, and
multiple inheritance beyond the first resolvable base are not modelled.
When resolution fails the table answers ``None`` and checkers must
degrade to silence, never to guesses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from repro.lint.project import ModuleInfo, Project

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class Symbol:
    """One resolved definition.

    Attributes:
        module: the module the definition lives in.
        qualname: dotted name *within* the module
            (``Cls.method``, ``function``, ``Cls``).
        node: the defining AST node.
        kind: ``"function"``, ``"class"``, or ``"module"`` (for module
            references ``node`` is the module's ``ast.Module``).
    """

    module: ModuleInfo
    qualname: str
    node: ast.AST
    kind: str

    @property
    def ref(self) -> str:
        """Globally unique id: ``<module dotted name>::<qualname>``."""
        if self.kind == "module":
            return self.module.name
        return f"{self.module.name}::{self.qualname}"


class _ModuleIndex:
    """Per-module definition and import tables."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        #: qualname -> def node, for functions/methods (one class level).
        self.functions: dict[str, FunctionNode] = {}
        #: qualname -> ClassDef.
        self.classes: dict[str, ast.ClassDef] = {}
        #: local name -> absolute dotted target ("repro.core.cache.Cache"
        #: for ``from repro.core.cache import Cache``, "repro.core.cache"
        #: for ``import repro.core.cache``).
        self.imports: dict[str, str] = {}
        self._index(module.tree.body, prefix="")

    def _index(self, body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[prefix + node.name] = node
            elif isinstance(node, ast.ClassDef):
                qualname = prefix + node.name
                self.classes[qualname] = node
                self._index(node.body, prefix=qualname + ".")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._absolute_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue  # star imports are not modelled
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}" if base else alias.name

    def _absolute_base(self, node: ast.ImportFrom) -> Optional[str]:
        """The absolute dotted module a ``from ... import`` names."""
        if node.level == 0:
            return node.module or ""
        # Relative import: climb from this module's package.
        parts = self.module.name.split(".")
        # ``from .x import y`` inside package ``a.b`` (module a.b.c):
        # level 1 strips the module segment, each further level one more.
        if len(parts) < node.level:
            return None
        base_parts = parts[: len(parts) - node.level]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts)


class SymbolTable:
    """Project-wide name resolution over parsed modules."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._indexes: dict[str, _ModuleIndex] = {
            m.name: _ModuleIndex(m) for m in project.modules
        }

    # -- per-module views ----------------------------------------------------

    def functions_in(self, module: ModuleInfo) -> dict[str, FunctionNode]:
        """qualname -> def node for every function/method in ``module``."""
        return self._indexes[module.name].functions

    # -- global resolution ---------------------------------------------------

    def lookup(self, module_name: str, qualname: str) -> Optional[Symbol]:
        """The definition of ``qualname`` inside module ``module_name``."""
        index = self._indexes.get(module_name)
        if index is None:
            return None
        if qualname in index.functions:
            return Symbol(index.module, qualname, index.functions[qualname], "function")
        if qualname in index.classes:
            return Symbol(index.module, qualname, index.classes[qualname], "class")
        return None

    def resolve_dotted(self, dotted: str) -> Optional[Symbol]:
        """Resolve an absolute dotted name to a project symbol.

        Tries the longest module prefix first, then the remainder as a
        qualname inside it; a bare module name resolves to a
        ``"module"`` symbol.
        """
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module_name = ".".join(parts[:cut])
            module = self.project.module(module_name)
            if module is None:
                continue
            rest = ".".join(parts[cut:])
            if not rest:
                return Symbol(module, "", module.tree, "module")
            found = self.lookup(module_name, rest)
            if found is not None:
                return found
            # An imported name re-exported from the module (one hop).
            index = self._indexes[module_name]
            head = parts[cut]
            if head in index.imports:
                onward = index.imports[head] + (
                    "." + ".".join(parts[cut + 1:]) if cut + 1 < len(parts) else ""
                )
                if onward != dotted:
                    return self.resolve_dotted(onward)
            return None
        return None

    def resolve_name(
        self, module: ModuleInfo, dotted_parts: list[str]
    ) -> Optional[Symbol]:
        """Resolve ``a.b.c`` as written in ``module`` (imports applied).

        The head segment is looked up among the module's own defs first,
        then its imports; anything unresolvable returns None.
        """
        if not dotted_parts:
            return None
        head, rest = dotted_parts[0], dotted_parts[1:]
        index = self._indexes[module.name]
        local = self.lookup(module.name, ".".join([head, *rest]))
        if local is not None:
            return local
        if head in index.imports:
            target = ".".join([index.imports[head], *rest])
            return self.resolve_dotted(target)
        return None

    # -- class hierarchy -----------------------------------------------------

    def mro(
        self, module: ModuleInfo, class_qualname: str
    ) -> Iterator[tuple[ModuleInfo, str, ast.ClassDef]]:
        """The class and its project-resolvable base chain, in order.

        Follows every base the project can resolve (left to right,
        depth-first, each class visited once) — exact Python MRO
        linearization is not reproduced, which is fine for the
        single-inheritance chains the checkers walk.
        """
        seen: set[str] = set()
        stack: list[tuple[ModuleInfo, str]] = [(module, class_qualname)]
        while stack:
            mod, qualname = stack.pop(0)
            ref = f"{mod.name}::{qualname}"
            if ref in seen:
                continue
            seen.add(ref)
            index = self._indexes.get(mod.name)
            if index is None or qualname not in index.classes:
                continue
            node = index.classes[qualname]
            yield mod, qualname, node
            bases: list[tuple[ModuleInfo, str]] = []
            for base in node.bases:
                resolved = self._resolve_base(mod, base)
                if resolved is not None:
                    bases.append(resolved)
            stack = bases + stack

    def _resolve_base(
        self, module: ModuleInfo, base: ast.expr
    ) -> Optional[tuple[ModuleInfo, str]]:
        parts = _dotted_parts(base)
        if parts is None:
            return None
        symbol = self.resolve_name(module, parts)
        if symbol is not None and symbol.kind == "class":
            return symbol.module, symbol.qualname
        return None

    def resolve_method(
        self, module: ModuleInfo, class_qualname: str, method: str
    ) -> Optional[Symbol]:
        """The defining class's ``method`` along the MRO, or None."""
        for mod, qualname, _node in self.mro(module, class_qualname):
            found = self.lookup(mod.name, f"{qualname}.{method}")
            if found is not None and found.kind == "function":
                return found
        return None

    def resolve_super_method(
        self, module: ModuleInfo, class_qualname: str, method: str
    ) -> Optional[Symbol]:
        """``super().method`` resolution: skip the class itself."""
        chain = iter(self.mro(module, class_qualname))
        next(chain, None)  # drop the class itself
        for mod, qualname, _node in chain:
            found = self.lookup(mod.name, f"{qualname}.{method}")
            if found is not None and found.kind == "function":
                return found
        return None


def _dotted_parts(node: ast.expr) -> Optional[list[str]]:
    """``a.b.c`` attribute chains as ``["a", "b", "c"]``; None otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None
