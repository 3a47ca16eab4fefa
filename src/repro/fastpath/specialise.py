"""Derive a protocol class's kernel from the class itself.

:func:`specialise` reads a class's ``is_fresh`` / ``on_stored`` source,
lowers the ASTs onto the state arrays and splices them into the holes of
:func:`repro.fastpath.kernels.run_kernel` — ``entry.x`` becomes ``x[i]``
(``entry.x is None`` the presence array ``has_x[i]``), ``self.a`` a
per-run parameter ``p0`` / ``p1`` / ``p2``, ``now`` the hole's time
argument, early returns ``if`` / ``else``; ``super().m(entry, ...)`` and
``self._helper(entry, ...)`` are inlined and ``obs_metrics.observe(
REFRESH_WINDOW, v)`` becomes the template's ``rw_*`` tally — so the
arithmetic a kernel evaluates is the protocol's own expression tree.
One kernel is compiled per class, memoised, its source registered with
:mod:`linecache` as ``<repro.fastpath kernel module.Class>``.

Anything outside the closed subset (docs/FASTPATH.md, "Derived, not
transcribed") is a :class:`Refusal`: the run goes to the reference
engine, never to a partially specialised kernel.  What is known non-None
is tracked per path (``known``): a field with a presence array is read
only where a test has shown it present, and ``entry.expires_at``, which
has none, is read by ``is_fresh`` only if ``on_stored`` stamps it on
every path — every resident entry went through ``on_stored``.
"""

from __future__ import annotations

import ast
import copy
import functools
import inspect
import linecache
import re
import textwrap
import weakref
from dataclasses import dataclass, field
from types import FunctionType
from typing import Any, Optional, Union

from repro.core.cache import CacheEntry
from repro.core.protocols.base import ConsistencyProtocol
from repro.fastpath import kernels
from repro.fastpath.arrays import CacheState
from repro.obs import registry as obs_metrics

_SLOTS = ("p0", "p1", "p2")
#: ``CacheEntry`` fields a method may touch: those with a state array.
_FIELDS = frozenset(CacheEntry.__slots__) & frozenset(CacheState.__slots__)
#: Those that may hold None: the ones ``CacheEntry`` defaults to None.
_OPTIONAL = frozenset(
    name for name, parameter in inspect.signature(CacheEntry).parameters.items()
    if name in _FIELDS and parameter.default is None
)
#: The one field ``on_stored`` may write; it has no presence array.
_STAMP = "expires_at"
_TALLY = ("rw_val = {0}\nrw_counts[bl(rw_bounds, rw_val)] += 1\n"
          "acc(rw_partials, rw_val)\nrw_n += 1")
#: Expression nodes lowered as they stand (their children are visited).
_PLAIN = (ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare, ast.IfExp,
          ast.Constant, ast.operator, ast.unaryop, ast.boolop, ast.cmpop)

#: A class's kernel and the attribute names behind ``p0`` / ``p1`` / ``p2``.
Specialised = tuple[kernels.Kernel, tuple[str, ...]]


class Refusal(Exception):
    """A protocol steps outside the subset the specialiser lowers."""


@dataclass
class _Frame:
    """One method being lowered (a hole's, or an inlined call's)."""

    owner: type
    #: The defining module's namespace (what ``obs_metrics`` names there).
    namespace: dict[str, Any]
    self_name: str
    entry_name: str
    #: Where ``return v`` lands (None: the value is dropped).
    target: Optional[ast.expr]
    #: Parameter / local name -> the expression standing for it.
    names: dict[str, ast.expr]
    #: What is known non-None at each point the method returns.
    exits: list[frozenset[str]] = field(default_factory=list)


def _name(identifier: str) -> ast.Name:
    # Kernels are compiled from unparsed text, which ignores ``ctx``.
    return ast.Name(id=identifier, ctx=ast.Load())


class _Lowering(ast.NodeTransformer):
    """Lowers one class's ``is_fresh`` / ``on_stored`` into template code:
    expressions through the visitor, statements through :meth:`_block`."""

    def __init__(self, cls: type[ConsistencyProtocol]) -> None:
        self.cls = cls
        self.attrs: list[str] = []
        self.sources: dict[FunctionType, str] = {}
        self.frame: Any = None
        self.depth = 0
        #: is_fresh reads what on_stored stamps / on_stored observes.
        self.stamps = self.observes = False

    def hole(self, method: str, args: list[ast.expr],
             target: Optional[ast.expr]) -> list[ast.stmt]:
        """The statements that replace one ``method(index, now)`` hole."""
        self.method, (self.index, now) = method, args
        # Optional entry fields known non-None here.  is_fresh is lowered
        # as if on_stored stamped every entry; on_stored is then checked.
        self.known = frozenset({_STAMP} if method == "is_fresh" else ())
        body = self._inline(method, None, [now], target)
        if method == "is_fresh":
            return body
        if self.stamps and _STAMP not in self.known:
            raise Refusal(f"is_fresh reads entry.{_STAMP}, which on_stored "
                          "does not stamp on every path")
        # The template guards the hole with ``stamps or (collect and
        # observes)``; with neither, no run could see it.
        return body if self.stamps or self.observes else []

    def _inline(self, method: str, after: Optional[type],
                args: list[ast.expr], target: Optional[ast.expr]) -> list[ast.stmt]:
        """``method(entry, *args)`` as statements whose returns land in
        ``target``; leaves ``known`` as it stands where the method returns."""
        mro = self.cls.__mro__
        owner, function = next(
            ((owner, vars(owner)[method])
             for owner in mro[mro.index(after) + 1 if after else 0:]
             if method in vars(owner)), (object, None))
        if not isinstance(function, FunctionType) or self.depth > 8:
            raise Refusal(f"calls {method}, not a plain method of the class")
        try:  # once per method: each hole lowers (and mutates) a fresh tree
            if function not in self.sources:
                self.sources[function] = textwrap.dedent(inspect.getsource(function))
        except (OSError, TypeError):
            raise Refusal(f"the source of {method} is not available") from None
        tree = ast.parse(self.sources[function]).body[0]
        match tree:
            case ast.FunctionDef(decorator_list=[], args=ast.arguments(
                    posonlyargs=[], vararg=None, kwonlyargs=[], kwarg=None,
                    defaults=[], args=[me, entry, *rest])) if len(rest) == len(args):
                params = [arg.arg for arg in rest]
            case _:
                raise Refusal(f"{method} is not a plain (self, entry, ...) method")
        names = dict(zip(params, args))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id in params:
                    raise Refusal(f"{method} assigns to its parameter {node.id}")
                names[node.id] = _name(f"_{node.id}_{self.depth}")
        outer, self.depth = self.frame, self.depth + 1
        frame = self.frame = _Frame(
            owner, function.__globals__, me.arg, entry.arg, target, names)
        body, falls_off = self._block(tree.body)
        if falls_off:  # the method returns None here
            body += self._assign(target, None)
            frame.exits.append(self.known)
        self.frame, self.depth = outer, self.depth - 1
        self.known = frozenset.intersection(*frame.exits)
        return body

    def _method_call(self, node: Optional[ast.expr]) -> Optional[
            tuple[str, Optional[type], list[ast.expr]]]:
        """``self.m(entry, ...)`` / ``super().m(entry, ...)``, else None."""
        match node:
            case ast.Call(
                    func=ast.Attribute(value=ast.Name(id=self.frame.self_name),
                                       attr=method),
                    args=[ast.Name(id=self.frame.entry_name), *args], keywords=[]):
                return method, None, args
            case ast.Call(
                    func=ast.Attribute(value=ast.Call(
                        func=ast.Name(id="super"), args=[], keywords=[]), attr=method),
                    args=[ast.Name(id=self.frame.entry_name), *args], keywords=[]):
                return method, self.frame.owner, args
        return None

    def _none_test(self, node: ast.expr) -> Optional[tuple[str, bool]]:
        """``entry.f is None`` -> (f, True); ``is not None`` -> (f, False)."""
        match node:
            case ast.Compare(
                    left=ast.Attribute(value=ast.Name(id=self.frame.entry_name),
                                       attr=name),
                    ops=[ast.Is() | ast.IsNot() as op],
                    comparators=[ast.Constant(value=None)]):
                return name, isinstance(op, ast.Is)
        return None

    def _block(self, stmts: list[ast.stmt]) -> tuple[list[ast.stmt], bool]:
        """The lowered statements, and whether control can fall off their
        end (False: every path returned)."""
        frame, out = self.frame, []
        for k, stmt in enumerate(stmts):
            match stmt:
                case ast.Return(value=value):
                    out += self._assign(frame.target, value)
                    frame.exits.append(self.known)
                    return out, False
                case ast.If(test=condition, body=body, orelse=orelse):
                    tested, before = self._none_test(condition), self.known
                    test = self.visit(condition)
                    if isinstance(test, ast.Constant):
                        # Decided statically: the other arm is never lowered.
                        more, falls_off = self._block(
                            (body if test.value else orelse) + stmts[k + 1:])
                        return out + more, falls_off
                    # What follows an early return belongs to the arm that
                    # falls through: each arm continues with (a copy of) it.
                    returns = any(isinstance(n, ast.Return) for n in ast.walk(stmt))
                    rest = stmts[k + 1:] if returns else []
                    arms, after = [], []
                    for arm, is_none in ((body, False), (orelse, True)):
                        self.known = before
                        if tested is not None and tested[1] == is_none:
                            self.known = before | {tested[0]}
                        lowered, falls_off = self._block(arm + copy.deepcopy(rest))
                        arms.append(lowered)
                        after += [self.known] if falls_off else []
                    out.append(ast.If(
                        test=test, body=arms[0] or [ast.Pass()], orelse=arms[1]))
                    if after:
                        self.known = frozenset.intersection(*after)
                    if returns:
                        return out, bool(after)
                case ast.Assign(targets=[ast.Name(id=local)], value=value):
                    out += self._assign(frame.names[local], value)
                case ast.Assign(targets=[ast.Attribute(
                        value=ast.Name(id=frame.entry_name), attr=attr)],
                        value=value) if attr == _STAMP and self.method == "on_stored":
                    out += self._assign(self._element(_STAMP), value)
                case ast.Expr(value=ast.Call(
                        func=ast.Attribute(value=ast.Name(id=alias), attr="observe"),
                        args=[ast.Constant(value=kernels.REFRESH_WINDOW), value],
                        keywords=[])) if frame.namespace.get(alias) is obs_metrics:
                    self.observes = True
                    tally = ast.parse(
                        _TALLY.format(ast.unparse(self.visit(value)))).body
                    # Under ``collect`` already unless the stamp forces the hole.
                    out += [ast.If(test=_name("collect"), body=tally, orelse=[])
                            ] if self.stamps else tally
                case ast.Expr(value=call) if self._method_call(call):
                    out += self._assign(None, call)
                case ast.Pass() | ast.Expr(value=ast.Constant()):  # a docstring
                    pass
                case _:
                    raise Refusal(f"uses `{ast.unparse(stmt).splitlines()[0]}`")
        return out, True

    def _assign(self, target: Optional[ast.expr],
                value: Optional[ast.expr]) -> list[ast.stmt]:
        """``target = value``; a method call on the right is inlined with
        its returns landing in ``target``."""
        call = self._method_call(value)
        if call is not None:
            method, after, args = call
            return self._inline(
                method, after, [self.visit(arg) for arg in args], target)
        lowered = ast.Constant(value=None) if value is None else self.visit(value)
        if target is None:
            return []
        if isinstance(target, ast.Subscript):  # the stamp
            unset = isinstance(lowered, ast.Constant) and lowered.value is None
            self.known = self.known - {_STAMP} if unset else self.known | {_STAMP}
        return [ast.Assign(targets=[target], value=lowered)]

    # -- expressions ---------------------------------------------------------

    def _element(self, array: str) -> ast.expr:
        return ast.Subscript(value=_name(array), slice=self.index, ctx=ast.Load())

    def _present(self, name: str) -> bool:
        """Note a use of ``entry.name``; is it known non-None here?"""
        if name not in _FIELDS:
            raise Refusal(f"uses entry.{name}, which has no state array")
        if name == _STAMP and self.method == "is_fresh":
            self.stamps = True
        return name not in _OPTIONAL or name in self.known

    def visit_Compare(self, node: ast.Compare) -> Any:
        tested = self._none_test(node)
        if tested is None:
            return self.generic_visit(node)
        name, is_none = tested
        if self._present(name):
            return ast.Constant(value=not is_none)
        if name == _STAMP:
            raise Refusal(f"tests entry.{_STAMP} where nothing has stamped it")
        has = self._element("has_" + name)
        return ast.UnaryOp(op=ast.Not(), operand=has) if is_none else has

    def visit_Attribute(self, node: ast.Attribute) -> Any:
        match node.value:
            case ast.Name(id=self.frame.entry_name):
                if not self._present(node.attr):
                    raise Refusal(f"reads entry.{node.attr} where it may be None")
                return self._element(node.attr)
            case ast.Name(id=self.frame.self_name):
                if node.attr not in self.attrs:
                    if len(self.attrs) == len(_SLOTS):
                        raise Refusal(
                            f"reads more than {len(_SLOTS)} attributes of self")
                    self.attrs.append(node.attr)
                return _name(_SLOTS[self.attrs.index(node.attr)])
        raise Refusal(f"uses {ast.unparse(node)}")

    def visit_Name(self, node: ast.Name) -> Any:
        if node.id not in self.frame.names:
            raise Refusal(f"reads the name {node.id}")
        return self.frame.names[node.id]

    def visit_Call(self, node: ast.Call) -> Any:
        match node:
            case ast.Call(func=ast.Name(id="min" | "max" as builtin), keywords=[]
                          ) if builtin not in self.frame.namespace:
                node.args = [self.visit(arg) for arg in node.args]
                return node
        raise Refusal(f"calls {ast.unparse(node)}")

    def generic_visit(self, node: ast.AST) -> ast.AST:
        if not isinstance(node, _PLAIN):
            raise Refusal(f"uses {ast.unparse(node)}")
        return super().generic_visit(node)


@functools.cache
def _shipped_template() -> str:
    # Tokenises kernels.py (~10 ms): once per process, not once per class.
    return inspect.getsource(kernels.run_kernel)


def build(cls: type[ConsistencyProtocol], template: Optional[str] = None) -> Specialised:
    """Specialise ``template`` — the source of ``run_kernel``, by default
    the shipped one — for ``cls``.

    Raises:
        Refusal: when ``cls`` steps outside the lowered subset.
    """
    if cls.cross_object_state:
        raise Refusal("cross_object_state: a decision depends on state "
                      "shared across objects")
    if cls.on_validation_result is not ConsistencyProtocol.on_validation_result:
        raise Refusal("overrides on_validation_result")
    lowering = _Lowering(cls)

    def fill(hole: re.Match[str]) -> str:
        indent, target, method, index, now = hole.groups()
        body = lowering.hole(method, [_name(index), _name(now)],
                             _name(target) if target else None)
        return textwrap.indent(ast.unparse(ast.fix_missing_locations(
            ast.Module(body=body or [ast.Pass()], type_ignores=[]))) + "\n", indent)

    qualified = f"{cls.__module__}.{cls.__qualname__}"
    # Minus the decorator line: a kernel runs, it does not dispatch.
    text = (template or _shipped_template()).split("\n", 1)[1]
    # is_fresh first: whether on_stored must run depends on what it reads.
    for method in ("is_fresh", "on_stored"):
        text = re.sub(rf"^( *)(?:(\w+) = )?({method})\((\w+), (\w+)\)\n",
                      fill, text, flags=re.MULTILINE)
    constants = {"wants_invalidations": bool(cls.wants_invalidations),
                 "stamps": lowering.stamps, "observes": lowering.observes}
    text = f"# run_kernel with its holes filled from {qualified}: {constants}\n{text}"
    filename = f"<repro.fastpath kernel {qualified}>"
    # No mtime: linecache.checkcache leaves such entries alone.
    linecache.cache[filename] = (
        len(text), None, text.splitlines(keepends=True), filename)
    scope: dict[str, Any] = {**vars(kernels), **constants}
    exec(compile(text, filename, "exec"), scope)
    return scope["run_kernel"], tuple(lowering.attrs)


_KERNELS: "weakref.WeakKeyDictionary[type, Union[Specialised, str]]" = (
    weakref.WeakKeyDictionary()
)


def specialise(cls: type[ConsistencyProtocol]) -> Union[Specialised, str]:
    """The kernel for ``cls`` — compiled once per class — or, as a string,
    why it has none."""
    found = _KERNELS.get(cls)
    if found is None:
        try:
            found = build(cls)
        except Refusal as refusal:
            found = str(refusal)
        _KERNELS[cls] = found
    return found
