"""Derive a protocol class's kernel from the class itself.

:func:`specialise` reads a class's ``is_fresh`` / ``on_stored`` /
``on_validation_result`` source, lowers the ASTs onto the state arrays
and splices them into the holes of :func:`repro.fastpath.kernels.
run_kernel` — ``entry.x`` becomes ``x[i]`` (``entry.x is None`` the
presence array ``has_x[i]``), ``self.a`` a per-run parameter ``p0``,
``p1``, ..., a ``dict`` attribute keyed by ``entry.file_type`` a per-run
table ``t0``, ... at ``file_type[i]``, ``now`` the hole's time argument,
early returns ``if`` / ``else``; ``super().m(entry, ...)`` and
``self._helper(...)`` are inlined (inside an expression, a helper that
is one ``return``) and ``obs_metrics.observe(REFRESH_WINDOW, v)``
becomes ``rw_values.append(v)`` — so the arithmetic a kernel
evaluates is the protocol's own expression tree.  One kernel is built
per class and cache variant, memoised; it compiles one variant per set
of run facts a call asks for (observed or not, delivering or not,
skipping hit runs or not), each with its source registered with
:mod:`linecache` as ``<repro.fastpath kernel module.Class>`` (the cache
variant and the run facts that are on are named after the class).  Its
runs skip hit runs only once :func:`_fresh_until` proves its
``is_fresh`` monotone in ``now``; else why not is ``unskippable``.

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
import io
import linecache
import re
import textwrap
import tokenize
import weakref
from dataclasses import dataclass, field
from types import FunctionType
from typing import Any, Optional, Union

from repro.core.cache import CacheEntry
from repro.core.protocols.base import ConsistencyProtocol
from repro.fastpath import kernels
from repro.fastpath.arrays import CacheState
from repro.obs import registry as obs_metrics

#: How many attributes travel as ``p0`` / ``p1`` / ``p2``; the rest, and
#: the per-type tables, travel in ``params``.
_NAMED_SLOTS = 3
#: ``CacheEntry`` fields a method may touch: those with a state array.
_FIELDS = frozenset(CacheEntry.__slots__) & frozenset(CacheState.__slots__)
#: Those that may hold None: the ones ``CacheEntry`` defaults to None.
_OPTIONAL = frozenset(
    name for name, parameter in inspect.signature(CacheEntry).parameters.items()
    if name in _FIELDS and parameter.default is None
)
#: The one field ``on_stored`` may write; it has no presence array.
_STAMP = "expires_at"
#: The field that keys per-type tables, and nothing else.
_TYPE = "file_type"
#: What a refresh-window observation becomes: one sample the kernel
#: observes after the run.
_SAMPLE = "rw_values.append({0})"
#: Expression nodes lowered as they stand (their children are visited).
_PLAIN = (ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare, ast.IfExp,
          ast.Constant, ast.List, ast.operator, ast.unaryop, ast.boolop,
          ast.cmpop, ast.expr_context)
#: The holes, each ``[target = ]method(index, now[, argument])``.
_HOLES = ("is_fresh", "on_stored", "on_validation_result")
#: The same methods for every lane at once, each
#: ``[target = ]method_each(state, lanes, now[, where])``
#: (:class:`_Lockstep`), and ``is_fresh``'s candidate boundary.
_EACH = ("is_fresh", "on_stored", "fresh_until")
#: The constant holes that are facts of a run, not of the class: each
#: call decides them (:func:`repro.fastpath.kernels._runs_kind`).
_RUN_FACTS = ("observed", "delivers", "skips", "steps")
#: The constant holes (:mod:`repro.fastpath.kernels`), written into each
#: kernel as literals.
_CONSTANTS = frozenset(("wants_invalidations", "stamps", "observes", "tunes",
                        "vectorises", "caches", "touches", *_RUN_FACTS))

#: A class's kernel, the attribute names behind ``p0``, ``p1``, ... and
#: those behind the per-type tables ``t0``, ``t1``, ...
Specialised = tuple[kernels.Kernel, tuple[str, ...], tuple[str, ...]]


class Refusal(Exception):
    """A protocol steps outside the subset the specialiser lowers."""


@dataclass
class _Frame:
    """One method being lowered (a hole's, or an inlined call's)."""

    owner: type
    #: The defining module's namespace (what ``obs_metrics`` names there).
    namespace: dict[str, Any]
    self_name: str
    #: The parameter bound to the entry (None: the method takes none).
    entry_name: Optional[str]
    #: Where ``return v`` lands (None: the value is dropped).
    target: Optional[ast.expr]
    #: Parameter / local name -> the expression standing for it.
    names: dict[str, ast.expr]
    #: What is known non-None at each point the method returns.
    exits: list[frozenset[str]] = field(default_factory=list)


def _name(identifier: str) -> ast.Name:
    # Kernels are compiled from unparsed text, which ignores ``ctx``.
    return ast.Name(id=identifier, ctx=ast.Load())


def _is_key(node: Optional[ast.expr]) -> bool:
    """Is ``node`` the per-type index ``file_type[...]``?"""
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == _TYPE)


class _Lowering(ast.NodeTransformer):
    """Lowers one class's hole methods into template code: expressions
    through the visitor, statements through :meth:`_block`."""

    def __init__(self, cls: type[ConsistencyProtocol], caches: bool) -> None:
        self.cls = cls
        #: on_stored must run on every store: a caller's Cache is written
        #: back, ``expires_at`` included.
        self.caches = caches
        self.attrs: list[str] = []
        self.tables: list[str] = []
        self.sources: dict[FunctionType, str] = {}
        self.frame: Any = None
        self.depth = 0
        #: is_fresh reads what on_stored stamps / on_stored observes /
        #: on_validation_result does something / a method writes a table.
        self.stamps = self.observes = self.tunes = self.shares = False
        #: on_stored stamps on every path / reads the stamp it writes.
        self.stamped = self.rereads = False

    def hole(self, method: str, args: list[ast.expr],
             target: Optional[ast.expr]) -> list[ast.stmt]:
        """The statements that replace one ``method(index, ...)`` hole."""
        self.method, self.index = method, args[0]
        # Optional entry fields known non-None here.  is_fresh is lowered
        # as if on_stored stamped every entry; on_stored is then checked.
        self.known = frozenset({_STAMP} if method == "is_fresh" else ())
        body = self._inline(method, None, [None, *args[1:]], target)
        if method == "is_fresh":
            return body
        if method == "on_validation_result":
            self.tunes = bool(body)
            return body
        self.stamped = _STAMP in self.known
        if self.stamps and not self.stamped:
            raise Refusal(f"is_fresh reads entry.{_STAMP}, which on_stored "
                          "does not stamp on every path")
        # The template guards the hole with ``stamps or caches or
        # (collect and observes)``; with none of them, no run could see it.
        return body if self.stamps or self.observes or self.caches else []

    def _inline(self, method: str, after: Optional[type],
                args: list[Optional[ast.expr]],
                target: Optional[ast.expr]) -> list[ast.stmt]:
        """``self.method(*args)`` (None standing for the entry) as
        statements whose returns land in ``target``; leaves ``known`` as
        it stands where the method returns."""
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
                    defaults=[], args=[me, *parameters])) if len(parameters) == len(args):
                params = [arg.arg for arg in parameters]
            case _:
                raise Refusal(f"{method} is not a plain method of "
                              f"{len(args)} argument(s)")
        entry = next((p for p, arg in zip(params, args) if arg is None), None)
        names = {p: arg for p, arg in zip(params, args) if arg is not None}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id in params:
                    raise Refusal(f"{method} assigns to its parameter {node.id}")
                names[node.id] = _name(f"_{node.id}_{self.depth}")
        outer, self.depth = self.frame, self.depth + 1
        frame = self.frame = _Frame(
            owner, function.__globals__, me.arg, entry, target, names)
        body, falls_off = self._block(tree.body)
        if falls_off:  # the method returns None here
            body += self._assign(target, None)
            frame.exits.append(self.known)
        self.frame, self.depth = outer, self.depth - 1
        self.known = frozenset.intersection(*frame.exits)
        return body

    def _method_call(self, node: Optional[ast.expr]) -> Optional[
            tuple[str, Optional[type], list[ast.expr]]]:
        """``self.m(...)`` / ``super().m(...)``, else None."""
        match node:
            case ast.Call(
                    func=ast.Attribute(value=ast.Name(id=self.frame.self_name),
                                       attr=method), args=args, keywords=[]):
                return method, None, args
            case ast.Call(
                    func=ast.Attribute(value=ast.Call(
                        func=ast.Name(id="super"), args=[], keywords=[]), attr=method),
                    args=args, keywords=[]):
                return method, self.frame.owner, args
        return None

    def _call(self, method: str, after: Optional[type], args: list[ast.expr],
              target: Optional[ast.expr]) -> list[ast.stmt]:
        """A method call inlined: the entry passed as such, a per-type key
        as the index, anything else lowered."""
        return self._inline(method, after, [
            None if isinstance(arg, ast.Name) and arg.id == self.frame.entry_name
            else self._key(arg) or self.visit(arg)
            for arg in args
        ], target)

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
                case ast.Assign(targets=[ast.Subscript() as target], value=value):
                    value = self.visit(value)
                    out.append(ast.Assign(targets=[self._target(target)], value=value))
                case ast.AugAssign(target=ast.Name() | ast.Subscript() as target,
                                   op=op, value=value):
                    value = self.visit(value)
                    out.append(ast.AugAssign(
                        target=self._target(target), op=op, value=value))
                case ast.Expr(value=ast.Call(
                        func=ast.Attribute(value=ast.Name(id=alias), attr="observe"),
                        args=[ast.Constant(value=kernels.REFRESH_WINDOW), value],
                        keywords=[])) if frame.namespace.get(alias) is obs_metrics:
                    self.observes = True
                    sample = ast.parse(
                        _SAMPLE.format(ast.unparse(self.visit(value)))).body
                    # Under ``collect`` already unless something else
                    # forces the hole.
                    out += [ast.If(test=_name("collect"), body=sample, orelse=[])
                            ] if self.stamps or self.caches else sample
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
            return self._call(*call, target)
        lowered = ast.Constant(value=None) if value is None else self.visit(value)
        if target is None:
            return []
        if isinstance(target, ast.Subscript):  # the stamp
            unset = isinstance(lowered, ast.Constant) and lowered.value is None
            self.known = self.known - {_STAMP} if unset else self.known | {_STAMP}
        return [ast.Assign(targets=[target], value=lowered)]

    def _target(self, node: ast.expr) -> ast.expr:
        """An assignment target: a local, an element of a local, or a
        per-type table's entry."""
        match node:
            case ast.Name(id=local):
                return self.frame.names[local]
            case ast.Subscript(value=ast.Attribute(
                    value=ast.Name(id=self.frame.self_name), attr=attr), slice=key):
                table, index = self._table(attr, key)
                self.shares = True
                return ast.Subscript(value=table, slice=index, ctx=ast.Store())
            case ast.Subscript(value=ast.Name(id=local), slice=index) if (
                    local in self.frame.names):
                self.shares = True
                return ast.Subscript(value=self.frame.names[local],
                                     slice=self.visit(index), ctx=ast.Store())
        raise Refusal(f"assigns to {ast.unparse(node)}")

    # -- expressions ---------------------------------------------------------

    def _element(self, array: str) -> ast.expr:
        return ast.Subscript(value=_name(array), slice=self.index, ctx=ast.Load())

    def _present(self, name: str) -> bool:
        """Note a use of ``entry.name``; is it known non-None here?"""
        if name == _TYPE:
            raise Refusal(f"uses entry.{_TYPE} other than as a per-type table key")
        if name not in _FIELDS:
            raise Refusal(f"uses entry.{name}, which has no state array")
        if name == _STAMP and self.method == "is_fresh":
            self.stamps = True
        elif name == _STAMP and self.method == "on_stored":
            self.rereads = True
        return name not in _OPTIONAL or name in self.known

    def _slot(self, attr: str, kind: list[str], other: list[str]) -> int:
        """The index of ``self.attr`` among the attributes of one kind."""
        if attr in other:
            raise Refusal(f"uses self.{attr} both as a per-type table "
                          "and as a value")
        if attr not in kind:
            kind.append(attr)
        return kind.index(attr)

    def _key(self, node: ast.expr) -> Optional[ast.expr]:
        """``entry.file_type`` (or a parameter bound to it) as the per-type
        index ``file_type[i]``; None for anything else."""
        match node:
            case ast.Attribute(value=ast.Name(id=self.frame.entry_name),
                               attr=attribute) if attribute == _TYPE:
                return self._element(_TYPE)
            case ast.Name(id=name) if _is_key(self.frame.names.get(name)):
                return copy.deepcopy(self.frame.names[name])
        return None

    def _table(self, attr: str, key: ast.expr) -> tuple[ast.expr, ast.expr]:
        """``self.attr`` indexed by ``key``: the per-run table and the
        type index."""
        index = self._key(key)
        if index is None:
            raise Refusal(f"indexes self.{attr} by `{ast.unparse(key)}`, "
                          f"not entry.{_TYPE}")
        return _name(f"t{self._slot(attr, self.tables, self.attrs)}"), index

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
                slot = self._slot(node.attr, self.attrs, self.tables)
                return _name(f"p{slot}")
        raise Refusal(f"uses {ast.unparse(node)}")

    def visit_Subscript(self, node: ast.Subscript) -> Any:
        match node.value:
            case ast.Attribute(value=ast.Name(id=self.frame.self_name), attr=attr):
                table, index = self._table(attr, node.slice)
                return ast.Subscript(value=table, slice=index, ctx=ast.Load())
        raise Refusal(f"uses {ast.unparse(node)}")

    def visit_Name(self, node: ast.Name) -> Any:
        if node.id not in self.frame.names:
            raise Refusal(f"reads the name {node.id}")
        if _is_key(self.frame.names[node.id]):
            raise Refusal(f"uses {node.id} (entry.{_TYPE}) other than as a "
                          "per-type table key")
        return self.frame.names[node.id]

    def visit_Call(self, node: ast.Call) -> Any:
        match node:
            case ast.Call(func=ast.Name(id="min" | "max" as builtin), keywords=[]
                          ) if builtin not in self.frame.namespace:
                node.args = [self.visit(arg) for arg in node.args]
                return node
            case ast.Call(func=ast.Attribute(value=ast.Attribute(
                    value=ast.Name(id=self.frame.self_name), attr=attr),
                    attr="get" | "setdefault" as method),
                    args=[key, *default], keywords=[]) if len(default) < 2:
                table, index = self._table(attr, key)
                self.shares = self.shares or method == "setdefault"
                return ast.Call(
                    func=ast.Attribute(value=table, attr=method, ctx=ast.Load()),
                    args=[index, *(self.visit(d) for d in default)], keywords=[])
        call = self._method_call(node)
        if call is not None:
            # Inside an expression: a method that is one ``return``.
            match self._call(*call, _name("_")):
                case [ast.Assign(value=value)]:
                    return value
            raise Refusal(f"calls self.{call[0]} inside an expression, and "
                          "it is more than one return")
        raise Refusal(f"calls {ast.unparse(node)}")

    def generic_visit(self, node: ast.AST) -> ast.AST:
        if not isinstance(node, _PLAIN):
            raise Refusal(f"uses {ast.unparse(node)}")
        return super().generic_visit(node)


def _fresh_until(body: list[ast.stmt], now: str,
                 target: str) -> list[ast.stmt]:
    """The lowered ``is_fresh`` ``body`` (its result landing in
    ``target``) as its candidate boundary, once proved monotone in
    ``now``: no test and no local reads ``now``, and each result is free
    of it (the boundary is infinity), ``now < R`` (``R``) or
    ``now - E < R`` (``E + R``).  Between two stores the state it reads
    is fixed, so an entry fresh at a request stays fresh up to a
    boundary and never after it."""
    def reads(node: ast.AST) -> bool:
        return any(isinstance(n, ast.Name) and n.id == now for n in ast.walk(node))

    def show(node: ast.AST) -> str:
        return re.sub(rf"\b{now}\b", "now", ast.unparse(node))

    def boundary(value: ast.expr) -> ast.expr:
        match value:
            case _ if not reads(value):
                return _name("_INFINITY")
            case ast.Compare(left=ast.Name(id=name), ops=[ast.Lt()],
                             comparators=[bound]) if name == now and not reads(bound):
                return bound
            case ast.Compare(left=ast.BinOp(left=ast.Name(id=name), op=ast.Sub(),
                                            right=origin),
                             ops=[ast.Lt()], comparators=[bound]) if (
                    name == now and not reads(origin) and not reads(bound)):
                return ast.BinOp(left=origin, op=ast.Add(), right=bound)
        raise Refusal(f"returns `{show(value)}`, neither `now < R` nor "
                      "`now - E < R`")

    out: list[ast.stmt] = []
    for stmt in body:
        match stmt:
            case ast.If(test=test, body=arm, orelse=other):
                if reads(test):
                    raise Refusal(f"branches on now: `{show(test)}`")
                out.append(ast.If(test=test, body=_fresh_until(arm, now, target),
                                  orelse=_fresh_until(other, now, target)))
            case ast.Assign(targets=[ast.Name(id=name)], value=value) if (
                    name == target):
                out.append(ast.Assign(targets=[_name(target)], value=boundary(value)))
            case ast.Assign(targets=[ast.Name()], value=value) if not reads(value):
                out.append(stmt)
            case ast.Pass():
                out.append(stmt)
            case _:
                raise Refusal(f"computes `{show(stmt)}`")
    return out


def _np(function: str, *args: ast.expr, **keywords: ast.expr) -> ast.Call:
    """``np.function(*args, **keywords)``."""
    return ast.Call(func=ast.Attribute(value=_name("np"), attr=function,
                                       ctx=ast.Load()),
                    args=list(args),
                    keywords=[ast.keyword(arg=k, value=v)
                              for k, v in keywords.items()])


class _Lockstep:
    """A lowered hole for a slice of lanes at once, by if-conversion.

    An entry read ``x[lanes]`` — which becomes ``state.x[lanes]``, the
    :class:`~repro.fastpath.arrays.LaneState` — and ``now`` hold one
    value per lane; so does any local computed from one.  A test on such
    a value becomes a mask: both arms run on every lane, and what an arm
    assigns lands only where its mask holds — ``np.where`` for a local
    defined outside the arm, ``np.copyto(..., where=)`` for the stamp.
    A test on parameters alone stays a Python ``if``.  On lanes, ``+``, ``-``, ``*`` and one
    comparison are numpy's, which round as Python's, and ``min(a, b)``
    is ``np.where(b < a, b, a)``: the builtin's own choice between its
    operands, so even ±0 comes out as Python's.  Anything else on lanes
    is a :class:`Refusal`, and so is what numpy would evaluate otherwise
    than Python anywhere: a quotient (numpy does not raise, and both
    arms run), a per-type table lookup, a stamp that may be None."""

    def __init__(self, state: str, lanes: str, now: str) -> None:
        self.state = state
        self.lanes = lanes
        self.now = now
        #: The names holding one value per lane (once one, always); every
        #: entry read is indexed by ``lanes``.
        self.vectors = {lanes, now}
        #: Per local, the arm it was first assigned in (0: no arm).
        self.owner: dict[str, int] = {}
        self.arms = 0

    def convert(self, body: list[ast.stmt],
                where: Optional[ast.expr]) -> list[ast.stmt]:
        """``body`` for the lanes ``where`` selects (None: all of them)."""
        return self._block(body, where, 0)

    def _show(self, node: ast.AST) -> str:
        return re.sub(rf"\b{self.now}\b", "now", ast.unparse(node).splitlines()[0])

    def _per_lane(self, node: ast.AST) -> bool:
        return any(isinstance(n, ast.Name) and n.id in self.vectors
                   for n in ast.walk(node))

    def _read(self, node: ast.Subscript) -> ast.expr:
        """An entry read ``x[lanes]`` as ``state.x[lanes]``; any other
        subscript is a per-type table's."""
        match node:
            case ast.Subscript(value=ast.Name(id=array), slice=ast.Name(
                    id=self.lanes) as lanes) if array != _TYPE:
                return ast.Subscript(value=ast.Attribute(
                    value=_name(self.state), attr=array, ctx=ast.Load()),
                    slice=lanes, ctx=ast.Load())
        raise Refusal(f"keeps a per-type table: `{self._show(node)}`")

    def _temporary(self, stem: str, value: ast.expr) -> tuple[ast.Name, ast.stmt]:
        self.arms += 1
        name = _name(f"_{stem}{self.arms}")
        return name, ast.Assign(targets=[name], value=value)

    def _block(self, stmts: list[ast.stmt], mask: Optional[ast.expr],
               arm: int) -> list[ast.stmt]:
        out: list[ast.stmt] = []
        for stmt in stmts:
            match stmt:
                case ast.Assign(targets=[ast.Name(id=local)], value=value):
                    out.append(self._local(local, value, mask, arm))
                case ast.Assign(targets=[ast.Subscript(
                        value=ast.Name(id=array)) as stamp], value=value) if (
                        array == _STAMP):
                    if any(isinstance(n, ast.Constant) and n.value is None
                           for n in ast.walk(value)):
                        raise Refusal(f"stamps entry.{_STAMP} with "
                                      f"`{self._show(value)}`, which may be None")
                    target, value = self._read(stamp), self._expr(value)
                    out.append(ast.Assign(targets=[target], value=value)
                               if mask is None else ast.Expr(value=_np(
                                   "copyto", target, value, where=mask)))
                case ast.If(test=ast.Name(id="collect")):
                    pass  # a lockstep run never collects
                case ast.If(test=test, body=body, orelse=orelse):
                    test = self._expr(test)
                    if not self._per_lane(test):
                        out.append(ast.If(
                            test=test, body=self._block(body, mask, arm)
                            or [ast.Pass()], orelse=self._block(orelse, mask, arm)))
                        continue
                    taken, assign = self._temporary("c", _np(
                        "asarray", test, dtype=_name("bool")))
                    out.append(assign)
                    for arm_stmts, where in ((body, taken), (orelse, ast.UnaryOp(
                            op=ast.Invert(), operand=taken))):
                        arm_mask, assign = self._temporary(
                            "w", where if mask is None else ast.BinOp(
                                left=mask, op=ast.BitAnd(), right=where))
                        lowered = self._block(arm_stmts, arm_mask, self.arms)
                        # An arm that only defines its own locals needs
                        # no mask.
                        if any(isinstance(n, ast.Name) and n.id == arm_mask.id
                               for s in lowered for n in ast.walk(s)):
                            out.append(assign)
                        out += lowered
                case ast.Expr(value=ast.Call(func=ast.Attribute(
                        value=ast.Name(id="rw_values")))) | ast.Pass():
                    pass  # a lockstep run never collects
                case _:
                    raise Refusal(f"uses `{self._show(stmt)}` "
                                  "on every lane")
        return out

    def _local(self, local: str, value: ast.expr, mask: Optional[ast.expr],
               arm: int) -> ast.stmt:
        """``local = value``, where ``mask`` holds if ``local`` was first
        assigned outside this arm."""
        value = self._expr(value)
        if mask is not None and self.owner.setdefault(local, arm) != arm:
            value = _np("where", mask, value, _name(local))
        if self._per_lane(value):
            self.vectors.add(local)
        return ast.Assign(targets=[_name(local)], value=value)

    def _expr(self, node: ast.expr) -> ast.expr:
        """``node`` for every lane; one that reads no lane is left to
        Python, evaluated once."""
        for inner in ast.walk(node):
            match inner:
                case ast.BinOp(op=ast.Div() | ast.FloorDiv() | ast.Mod()):
                    raise Refusal(f"divides: `{self._show(inner)}`")
                case ast.Subscript():
                    self._read(inner)
                case ast.Call(func=ast.Attribute(attr="get" | "setdefault")):
                    raise Refusal(f"keeps a per-type table: `{self._show(inner)}`")
        if not self._per_lane(node):
            return node
        match node:
            case ast.Name():
                return node
            case ast.Subscript():
                return self._read(node)
            case ast.BinOp(left=left, op=ast.Add() | ast.Sub() | ast.Mult() as op,
                           right=right):
                return ast.BinOp(left=self._expr(left), op=op,
                                 right=self._expr(right))
            case ast.Compare(left=left, ops=[ast.Lt() | ast.LtE() | ast.Gt()
                                             | ast.GtE() | ast.Eq() | ast.NotEq()],
                             comparators=[right]):
                return ast.Compare(left=self._expr(left), ops=node.ops,
                                   comparators=[self._expr(right)])
            case ast.Call(func=ast.Name(id="min" | "max" as builtin),
                          args=[_, _, *_] as args, keywords=[]):
                # The builtin keeps the first of equals: the next argument
                # replaces it only where strictly smaller (larger).
                best, *rest = map(self._expr, args)
                for arg in rest:
                    best = _np("where", ast.Compare(
                        left=arg, ops=[ast.Lt() if builtin == "min" else ast.Gt()],
                        comparators=[best]), arg, best)
                return best
            case ast.BoolOp(op=op, values=values) if all(
                    isinstance(value, (ast.Compare, ast.BoolOp))
                    or ast.unparse(value) == f"valid[{self.lanes}]"
                    for value in values):
                # Over truth values ``and`` / ``or`` are ``&`` / ``|``: the
                # subset's operands have no side effect and never raise.
                bit = ast.BitAnd() if isinstance(op, ast.And) else ast.BitOr()
                return functools.reduce(lambda left, right: ast.BinOp(
                    left=left, op=bit, right=right), map(self._expr, values))
        raise Refusal(f"uses `{self._show(node)}` on every lane")


@functools.cache
def _constant_sites(text: str) -> tuple[tuple[int, int, str], ...]:
    """Where ``text`` names a constant hole in code (not in a comment,
    string or attribute): ``(start, end, name)`` offsets.  Tokenising a
    template takes ~10 ms, so once per template, not once per class."""
    offsets = [0]
    for line in text.splitlines(keepends=True):
        offsets.append(offsets[-1] + len(line))
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    return tuple(
        (offsets[token.start[0] - 1] + token.start[1],
         offsets[token.end[0] - 1] + token.end[1], token.string)
        for before, token in zip(tokens, tokens[1:])
        if token.type == tokenize.NAME and token.string in _CONSTANTS
        and before.string != "."
    )


def _prune(text: str) -> str:
    """``text`` without the blocks an ``if False`` or ``if not True``
    guards: a kernel's source is the code it runs, and a constant hole
    that is off costs nothing — not even the ``NOP`` the compiler leaves
    for a dead ``if``."""
    kept: list[str] = []
    dead: Optional[int] = None  # the indent of the ``if`` being deleted
    for line in text.splitlines(keepends=True):
        indent = len(line) - len(line.lstrip())
        if dead is not None and (not line.strip() or indent > dead):
            continue
        dead = None
        if re.match(r" *(el)?if (False|not True)( and .*)?:\n", line):
            dead = indent
        else:
            kept.append(line)
    return "".join(kept)


@functools.cache
def _shipped_template() -> str:
    # Tokenises kernels.py (~10 ms): once per process, not once per class.
    return inspect.getsource(kernels.run_kernel)


def build(cls: type[ConsistencyProtocol], template: Optional[str] = None,
          replacement: Optional[str] = None) -> Specialised:
    """Specialise ``template`` — the source of ``run_kernel``, by default
    the shipped one — for ``cls``, keeping a caller's cache when
    ``replacement`` names its order (``"fifo"``: insertion, ``"lru"``:
    recency; None: no caller's cache).

    Raises:
        Refusal: when ``cls`` steps outside the lowered subset.
    """
    lowering = _Lowering(cls, caches=replacement is not None)
    # Minus the decorator line: a kernel runs, it does not dispatch.
    text = (template or _shipped_template()).split("\n", 1)[1]
    # Each edit replaces ``text[start:end]``; the holes first, is_fresh
    # first among them: whether on_stored must run depends on what it
    # reads, and the constants on what all of them do.
    edits: list[tuple[int, int, str]] = []
    for method in _HOLES:
        for hole in re.finditer(
                rf"^( *)(?:(\w+) = )?{method}\((\w+), (\w+)(?:, (\w+))?\)\n",
                text, flags=re.MULTILINE):
            indent, target, *args = hole.groups()
            body = lowering.hole(method, [_name(arg) for arg in args if arg],
                                 _name(target) if target else None)
            edits.append((hole.start(), hole.end(), textwrap.indent(ast.unparse(
                ast.fix_missing_locations(ast.Module(
                    body=body or [ast.Pass()], type_ignores=[]))) + "\n", indent)))
    # Attributes past the named slots, then the tables, from ``params``.
    bound = [f"p{k}" for k in range(_NAMED_SLOTS, len(lowering.attrs))] + [
        f"t{k}" for k in range(len(lowering.tables))]
    # The candidate boundary is is_fresh lowered once more, then proved.
    unskippable: Optional[str] = None
    for hole in re.finditer(r"^( *)(\w+) = fresh_until\((\w+), (\w+)\)\n",
                            text, flags=re.MULTILINE):
        indent, target, index, now = hole.groups()
        try:
            body = _fresh_until(lowering.hole(
                "is_fresh", [_name(index), _name(now)], _name(target)), now, target)
        except Refusal as refusal:
            unskippable, body = f"is_fresh is not monotone in now: {refusal}", []
        edits.append((hole.start(), hole.end(), textwrap.indent(ast.unparse(
            ast.fix_missing_locations(ast.Module(
                body=body or [ast.Pass()], type_ignores=[]))) + "\n", indent)))
    if lowering.shares:
        unskippable = "a method writes a per-type table, which objects share"
    # The lockstep holes are the same methods lowered once more, for a
    # slice of lanes, then if-converted; so is the candidate boundary,
    # which only the skipping preload pass reads.
    unsteppable: Optional[str] = None
    vectorises = True
    for hole in re.finditer(
            rf"^( *)(?:(\w+) = )?({'|'.join(_EACH)})_each\((\w+), (\w+), "
            r"(\w+)(?:, (\w+))?\)\n", text, flags=re.MULTILINE):
        indent, target, method, state, lanes, now, where = hole.groups()
        try:
            body = lowering.hole(method.replace("fresh_until", "is_fresh"),
                                 [_name(lanes), _name(now)],
                                 _name(target) if target else None)
            if method == "fresh_until":
                body = _fresh_until(body, now, target)
            body = _Lockstep(state, lanes, now).convert(
                body, _name(where) if where else None)
        except Refusal as refusal:
            vectorises = vectorises and method == "on_stored"
            if method != "fresh_until":
                unsteppable = unsteppable or (
                    f"its methods do not vectorise: {refusal}")
            body = []
        edits.append((hole.start(), hole.end(), textwrap.indent(ast.unparse(
            ast.fix_missing_locations(ast.Module(
                body=body or [ast.Pass()], type_ignores=[]))) + "\n", indent)))
    if lowering.rereads and cls.wants_invalidations:
        unsteppable = unsteppable or (f"on_stored reads entry.{_STAMP}: the "
                                      "eager push by lane stamps once a gap")
    if replacement == "lru" and not lowering.stamped:
        unsteppable = unsteppable or (f"on_stored leaves entry.{_STAMP} None "
                                      "on a path, as a kept cache's store")
    for hole in re.finditer(r"^( *)bind\((\w+)\)\n", text, flags=re.MULTILINE):
        edits.append((hole.start(), hole.end(), f"{hole[1]}[{', '.join(bound)}] "
                      f"= {hole[2]}\n" if bound else ""))
    constants = {"wants_invalidations": bool(cls.wants_invalidations),
                 "stamps": lowering.stamps, "observes": lowering.observes,
                 "tunes": lowering.tunes, "vectorises": vectorises,
                 "caches": replacement is not None,
                 "touches": replacement == "lru"}
    # A run fact stays its name, between NUL bytes (which no source
    # holds), until a call decides it.
    edits += [(start, end, f"\0{name}\0" if name in _RUN_FACTS
               else repr(constants[name]))
              for start, end, name in _constant_sites(text)]
    for start, end, replaced in sorted(edits, reverse=True):
        text = text[:start] + replaced + text[end:]
    keeping = "" if replacement is None else f", keeping a {replacement} cache"
    kernel = _Kernel(f"{cls.__module__}.{cls.__qualname__}{keeping}",
                     constants, text.split("\0"), unskippable, unsteppable)
    return kernel, tuple(lowering.attrs), tuple(lowering.tables)


class _Kernel:
    """One class's kernel for one cache variant (a :data:`kernels.Kernel`):
    the template filled in but for the run facts, compiled once per set
    of them that a call asks for.  A variant lives as long as its kernel,
    so a kernel replaced in the memo takes its variants with it."""

    def __init__(self, name: str, constants: dict[str, bool],
                 pieces: list[str], unskippable: Optional[str],
                 unsteppable: Optional[str]) -> None:
        self.name = name
        self.constants = constants
        #: The filled-in text, split around its run facts: every odd
        #: piece names one.
        self.pieces = pieces
        #: Why no run of this kernel skips its hit runs (None: lean runs
        #: do).
        self.unskippable = unskippable
        #: Why no run of this kernel steps its objects in lockstep (None:
        #: lean runs do).
        self.unsteppable = unsteppable
        self.variants: dict[tuple[bool, bool, bool, bool], kernels.Variant] = {}

    def __call__(self, observed: bool, scheduled: bool, skippable: bool,
                 steppable: bool = False) -> kernels.Variant:
        delivers = scheduled or self.constants["wants_invalidations"]
        # The server's feed and a fault schedule are per object, as a
        # lockstep run is, but for their crashes, which wipe each object
        # alike.  So is a kept LRU cache's residency where nothing is
        # delivered (arrays.lru_residency); a delivery could evict in the
        # middle of a lane's gap, and a FIFO order is the protocol's.
        lean = not (observed or self.constants["tunes"])
        kept, touches = self.constants["caches"], self.constants["touches"]
        skips = skippable and lean and not (kept or delivers) and (
            self.unskippable is None)
        facts = (observed, delivers, skips, steppable and lean and not skips
                 and self.unsteppable is None
                 and (not kept or touches and not delivers))
        variant = self.variants.get(facts)
        if variant is None:
            variant = self.variants[facts] = self._compile(*facts)
        return variant

    def _compile(self, observed: bool, delivers: bool, skips: bool,
                  steps: bool) -> kernels.Variant:
        facts = {"observed": observed, "delivers": delivers, "skips": skips,
                 "steps": steps}
        text = "".join(repr(facts[piece]) if k % 2 else piece
                       for k, piece in enumerate(self.pieces))
        text = (f"# run_kernel with its holes filled from {self.name}: "
                f"{self.constants | facts}\n{_prune(text)}")
        filename = (f"<repro.fastpath kernel {self.name}"
                    f"{', observed' if observed else ''}"
                    f"{', delivering' if delivers else ''}"
                    f"{', skipping' if skips else ''}"
                    f"{', stepping' if steps else ''}>")
        # No mtime: linecache.checkcache leaves such entries alone.
        linecache.cache[filename] = (
            len(text), None, text.splitlines(keepends=True), filename)
        scope: dict[str, Any] = dict(vars(kernels))
        exec(compile(text, filename, "exec"), scope)
        return scope["run_kernel"]


#: Per class, its kernel (or why it has none); per class and cache
#: variant, the same for the kernels that keep a caller's cache.
_KERNELS: "weakref.WeakKeyDictionary[type, Union[Specialised, str]]" = (
    weakref.WeakKeyDictionary()
)
_CACHE_KERNELS: (
    "weakref.WeakKeyDictionary[type, dict[Any, Union[Specialised, str]]]"
) = weakref.WeakKeyDictionary()


def specialise(cls: type[ConsistencyProtocol],
               replacement: Optional[str] = None) -> Union[Specialised, str]:
    """The kernel for ``cls`` and a cache variant (see :func:`build`) —
    built once per pair — or, as a string, why it has none."""
    memo: Any = _KERNELS if replacement is None else _CACHE_KERNELS.setdefault(cls, {})
    key = cls if replacement is None else replacement
    found = memo.get(key)
    if found is None:
        try:
            found = build(cls, None, replacement)
        except Refusal as refusal:
            found = str(refusal)
        memo[key] = found
    return found
