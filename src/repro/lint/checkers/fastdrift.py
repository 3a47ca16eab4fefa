"""RPR008 — fastpath transcription drift.

docs/FASTPATH.md's equivalence contract says the batched kernel's
freshness predicates and CERN expiry stamping are "transcribed
expression-for-expression" from the protocol classes.  PR 6 enforced
that promise with a differential *test*; this checker enforces it
*statically*: it parses both sides, normalizes each into canonical
decision leaves, and diffs them.  A one-token divergence — ``<=``
flipped to ``<``, a dropped ``min(ttl, p2)`` clamp, a renamed field —
is reported at the kernel line that drifted, with a because-chain
pointing at the protocol method it was transcribed from.

**Normalization** is alpha-renaming only — *no* constant folding, no
algebraic rewriting (the contract is transcription, not semantic
equivalence).  Both sides are rewritten over one vocabulary:

* ``NOW`` — the protocol's ``now`` parameter; the kernel's ``t`` (and
  ``start_time`` inside the preload stamp);
* ``FIELD:x`` — ``entry.x`` on the protocol side; the state array
  ``x[i]`` on the kernel side (``sx[i]`` is ``FIELD:server_expires``,
  the kernel local ``lm`` is the just-stored ``FIELD:last_modified``);
* ``PARAM0/1/2`` — the protocol's compiled constructor attributes in
  :mod:`repro.fastpath.dispatch` order; the kernel's ``p0/p1/p2``;
* ``ISSET(x)`` — ``x is not None`` on the protocol side; the kernel's
  presence flags ``has_sx[i]`` / ``has_p2``.

**Flattening** is path-sensitive: each function body becomes a set of
``(branch conditions, result expression)`` leaves with locals
(``age``, ``ttl``) substituted by their canonical definitions, so an
early-return protocol body and the kernel's if/else chain produce
identical leaves when — and only when — they compute the same thing.
``super().is_fresh(...)`` and ``self._derive_expiry(...)`` tail calls
are inlined through the symbol table.  CERN's ``is_fresh`` lazy-init
branch (``entry.expires_at is None``) is pruned under the documented
kernel precondition that every resident entry was stamped at store
time.

**Anchors**: the kernel marks the diffed regions with
``# repro-fastpath-begin/end: freshness`` around the dispatch chain and
``# repro-fastpath: cern-stamp`` above the ``if is_cern:`` guard of the
two expiry-stamp sites: the preload prologue and the one store tail
every not-fresh request runs through.  Missing anchors are themselves
reported — the contract must stay machine-checkable.

The checker is silent when ``repro.fastpath.kernels`` is not among the
linted modules (linting a subtree), and reports a finding when the
kernel is present but a counterpart protocol module is not.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.lint.diagnostics import Because, Diagnostic
from repro.lint.project import ModuleInfo, Project
from repro.lint.registry import Checker, register
from repro.lint.symbols import FunctionNode, SymbolTable

KERNEL_MODULE = "repro.fastpath.kernels"

#: kernel kind constant -> (protocol module, class, attr -> PARAMi map),
#: mirroring repro.fastpath.dispatch.compile_protocol.
_SPECS: dict[str, tuple[str, str, dict[str, str]]] = {
    "KIND_TTL": (
        "repro.core.protocols.ttl", "TTLProtocol", {"ttl": "PARAM0"}
    ),
    "KIND_EXPIRES": (
        "repro.core.protocols.ttl", "ExpiresTTLProtocol", {"ttl": "PARAM0"}
    ),
    "KIND_ALEX": (
        "repro.core.protocols.alex", "AlexProtocol", {"threshold": "PARAM0"}
    ),
    "KIND_POLL": (
        "repro.core.protocols.polling", "PollEveryRequestProtocol", {}
    ),
    "KIND_INVALIDATION": (
        "repro.core.protocols.invalidation", "InvalidationProtocol", {}
    ),
    "KIND_LEASED": (
        "repro.core.protocols.invalidation", "LeasedInvalidationProtocol",
        {"lease": "PARAM0"},
    ),
    "KIND_CERN": (
        "repro.core.protocols.cern", "CERNPolicyProtocol",
        {"lm_fraction": "PARAM0", "default_ttl": "PARAM1",
         "max_ttl": "PARAM2"},
    ),
}

#: Kernel scalar names -> canonical vocabulary.
_KERNEL_NAMES = {
    "t": "NOW",
    "start_time": "NOW",
    "p0": "PARAM0",
    "p1": "PARAM1",
    "p2": "PARAM2",
    "has_p2": "ISSET(PARAM2)",
    "lm": "FIELD:last_modified",
}

#: Kernel state arrays (indexed by ``i``) -> canonical vocabulary.
_KERNEL_ARRAYS = {
    "validated_at": "FIELD:validated_at",
    "last_modified": "FIELD:last_modified",
    "valid": "FIELD:valid",
    "expires_at": "FIELD:expires_at",
    "sx": "FIELD:server_expires",
    "has_sx": "ISSET(FIELD:server_expires)",
}

_BINOPS = {
    ast.Add: "ADD", ast.Sub: "SUB", ast.Mult: "MUL", ast.Div: "DIV",
    ast.FloorDiv: "FDIV", ast.Mod: "MOD", ast.Pow: "POW",
}
_CMPOPS = {
    ast.Lt: "LT", ast.LtE: "LE", ast.Gt: "GT", ast.GtE: "GE",
    ast.Eq: "EQ", ast.NotEq: "NE",
}

#: One branch condition: canonical string + the polarity taken.
Cond = tuple[str, bool]
#: One decision leaf: the conditions on the path + the result.
Leaf = tuple[frozenset[Cond], str]


class _CanonError(Exception):
    """A construct the normalizer does not model (reported, not raised
    through)."""


def _render(node: ast.expr, env: dict[str, str], attr_map: dict[str, str]) -> str:
    """Canonical string for an expression under ``env`` renamings."""
    if isinstance(node, ast.Constant):
        value = node.value
        if value is True:
            return "TRUE"
        if value is False:
            return "FALSE"
        if value is None:
            return "NONE"
        if isinstance(value, (int, float)):
            return repr(float(value))
        return repr(value)
    if isinstance(node, ast.Name):
        return env.get(node.id, f"VAR:{node.id}")
    if isinstance(node, ast.Attribute):
        base = _render(node.value, env, attr_map)
        if base == "ENTRY":
            return f"FIELD:{node.attr}"
        if base == "SELF":
            return attr_map.get(node.attr, f"SELFATTR:{node.attr}")
        return f"(ATTR {base} {node.attr})"
    if isinstance(node, ast.Subscript):
        if (
            isinstance(node.value, ast.Name)
            and node.value.id in _KERNEL_ARRAYS
        ):
            return _KERNEL_ARRAYS[node.value.id]
        base = _render(node.value, env, attr_map)
        index = _render(node.slice, env, attr_map)
        return f"(INDEX {base} {index})"
    if isinstance(node, ast.BinOp):
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise _CanonError(f"unsupported operator {node.op!r}")
        left = _render(node.left, env, attr_map)
        right = _render(node.right, env, attr_map)
        return f"({op} {left} {right})"
    if isinstance(node, ast.BoolOp):
        op = "AND" if isinstance(node.op, ast.And) else "OR"
        parts = " ".join(_render(v, env, attr_map) for v in node.values)
        return f"({op} {parts})"
    if isinstance(node, ast.UnaryOp):
        operand = _render(node.operand, env, attr_map)
        if isinstance(node.op, ast.Not):
            return f"(NOT {operand})"
        if isinstance(node.op, ast.USub):
            return f"(NEG {operand})"
        raise _CanonError(f"unsupported unary {node.op!r}")
    if isinstance(node, ast.Compare):
        if len(node.ops) != 1:
            raise _CanonError("chained comparison")
        op, right = node.ops[0], node.comparators[0]
        left = node.left
        if isinstance(op, (ast.Is, ast.IsNot)):
            if not (isinstance(right, ast.Constant) and right.value is None):
                raise _CanonError("is-comparison against non-None")
            inner = _render(left, env, attr_map)
            isset = f"ISSET({inner})"
            return isset if isinstance(op, ast.IsNot) else f"(NOT {isset})"
        sym = _CMPOPS.get(type(op))
        if sym is None:
            raise _CanonError(f"unsupported comparison {op!r}")
        return (
            f"({sym} {_render(left, env, attr_map)} "
            f"{_render(right, env, attr_map)})"
        )
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("min", "max"):
            parts = " ".join(_render(a, env, attr_map) for a in node.args)
            return f"({node.func.id.upper()} {parts})"
        raise _CanonError(f"call {ast.unparse(node)!r} not inlined")
    if isinstance(node, ast.IfExp):
        # Handled by the flattener via statement transformation; a
        # nested conditional inside a larger expression stays inline.
        test = _render(node.test, env, attr_map)
        body = _render(node.body, env, attr_map)
        orelse = _render(node.orelse, env, attr_map)
        return f"(IFEXP {test} {body} {orelse})"
    raise _CanonError(f"unsupported expression {ast.unparse(node)!r}")


def _render_cond(
    test: ast.expr, env: dict[str, str], attr_map: dict[str, str]
) -> Cond:
    """Canonical (condition, polarity), folding a leading NOT."""
    rendered = _render(test, env, attr_map)
    if rendered.startswith("(NOT ") and rendered.endswith(")"):
        return rendered[len("(NOT "):-1], False
    return rendered, True


@dataclass
class _FlattenContext:
    """Everything one body flattening needs."""

    attr_map: dict[str, str]
    result_target: Optional[str] = None  # "fresh" or an array name
    assumptions: Optional[dict[str, bool]] = None
    inliner: Optional["_Inliner"] = None


def _flatten(
    stmts: list[ast.stmt],
    conds: tuple[Cond, ...],
    env: dict[str, str],
    ctx: _FlattenContext,
) -> list[Leaf]:
    """Decision leaves of a statement sequence (see module docs)."""
    for idx, stmt in enumerate(stmts):
        rest = stmts[idx + 1:]
        if isinstance(stmt, ast.If):
            cond = _render_cond(stmt.test, env, ctx.attr_map)
            assumed = (ctx.assumptions or {}).get(cond[0])
            if assumed is not None:
                branch = stmt.body if assumed == cond[1] else stmt.orelse
                return _flatten(list(branch) + rest, conds, dict(env), ctx)
            return _flatten(
                list(stmt.body) + rest, conds + (cond,), dict(env), ctx
            ) + _flatten(
                list(stmt.orelse) + rest,
                conds + ((cond[0], not cond[1]),),
                dict(env),
                ctx,
            )
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                return [(frozenset(conds), "NONE")]
            if ctx.inliner is not None and isinstance(stmt.value, ast.Call):
                inlined = ctx.inliner.try_inline(stmt.value, conds, env, ctx)
                if inlined is not None:
                    return inlined
            return [(frozenset(conds), _render(stmt.value, env, ctx.attr_map))]
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1:
                raise _CanonError("multi-target assignment")
            target = stmt.targets[0]
            if isinstance(stmt.value, ast.IfExp):
                # x = a if c else b  ->  if c: x = a  else: x = b
                forked = ast.If(
                    test=stmt.value.test,
                    body=[ast.Assign(targets=[target], value=stmt.value.body)],
                    orelse=[
                        ast.Assign(targets=[target], value=stmt.value.orelse)
                    ],
                )
                ast.copy_location(forked, stmt)
                ast.fix_missing_locations(forked)
                return _flatten([forked] + rest, conds, dict(env), ctx)
            name = _assign_name(target, ctx)
            if name is None:
                raise _CanonError(
                    f"unsupported assignment target {ast.unparse(target)!r}"
                )
            env = dict(env)
            env[name] = _render(stmt.value, env, ctx.attr_map)
            continue
        if isinstance(stmt, ast.Expr):
            continue  # docstrings, metric observations
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            return []  # path aborts / invariant, not a result
        raise _CanonError(
            f"unsupported statement {type(stmt).__name__} at line "
            f"{stmt.lineno}"
        )
    if "__result__" in env:
        return [(frozenset(conds), env["__result__"])]
    return []


def _assign_name(target: ast.expr, ctx: _FlattenContext) -> Optional[str]:
    """Env key for an assignment target; ``__result__`` for the block's
    declared result variable/array."""
    if isinstance(target, ast.Name):
        if target.id == ctx.result_target:
            return "__result__"
        return target.id
    if (
        isinstance(target, ast.Subscript)
        and isinstance(target.value, ast.Name)
        and target.value.id == ctx.result_target
    ):
        return "__result__"
    return None


class _Inliner:
    """Inlines ``self.m(...)`` / ``super().m(...)`` tail calls through
    the symbol table."""

    def __init__(
        self, symbols: SymbolTable, module: ModuleInfo, class_qualname: str
    ) -> None:
        self.symbols = symbols
        self.module = module
        self.class_qualname = class_qualname

    def try_inline(
        self,
        call: ast.Call,
        conds: tuple[Cond, ...],
        env: dict[str, str],
        ctx: _FlattenContext,
    ) -> Optional[list[Leaf]]:
        func = call.func
        target: Optional[FunctionNode] = None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        ):
            symbol = self.symbols.resolve_super_method(
                self.module, self.class_qualname, func.attr
            )
            target = symbol.node if symbol is not None else None  # type: ignore[assignment]
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            symbol = self.symbols.resolve_method(
                self.module, self.class_qualname, func.attr
            )
            target = symbol.node if symbol is not None else None  # type: ignore[assignment]
        if target is None:
            return None
        params = [a.arg for a in target.args.args]
        if params and params[0] == "self":
            params = params[1:]
        if len(params) != len(call.args):
            raise _CanonError(
                f"cannot inline {ast.unparse(call)!r}: argument mismatch"
            )
        callee_env = {"self": "SELF"}
        for param, arg in zip(params, call.args):
            callee_env[param] = _render(arg, env, ctx.attr_map)
        return _flatten(list(target.body), conds, callee_env, ctx)


def _function_leaves(
    symbols: SymbolTable,
    module: ModuleInfo,
    class_name: str,
    method: str,
    attr_map: dict[str, str],
    assumptions: Optional[dict[str, bool]] = None,
) -> list[Leaf]:
    """Leaves of a protocol method, resolved through the class chain."""
    symbol = symbols.resolve_method(module, class_name, method)
    if symbol is None:
        raise _CanonError(f"{class_name}.{method} not found")
    owner = symbol.qualname.rsplit(".", 1)[0]
    ctx = _FlattenContext(
        attr_map=attr_map,
        assumptions=assumptions,
        inliner=_Inliner(symbols, symbol.module, owner),
    )
    env = {"self": "SELF", "entry": "ENTRY", "now": "NOW"}
    return _flatten(list(symbol.node.body), (), env, ctx)


def _method_symbol(
    symbols: SymbolTable, module: ModuleInfo, class_name: str, method: str
):
    return symbols.resolve_method(module, class_name, method)


def _describe_diff(expected: list[Leaf], actual: list[Leaf]) -> str:
    """First divergence between two leaf sets, for the message."""
    expected_set, actual_set = set(expected), set(actual)
    missing = sorted(
        expected_set - actual_set, key=lambda leaf: (sorted(leaf[0]), leaf[1])
    )
    extra = sorted(
        actual_set - expected_set, key=lambda leaf: (sorted(leaf[0]), leaf[1])
    )

    def _show(leaf: Leaf) -> str:
        conds = " & ".join(
            canon if pol else f"!{canon}" for canon, pol in sorted(leaf[0])
        )
        return f"[{conds or 'always'}] -> {leaf[1]}"

    parts = []
    if missing:
        parts.append(f"protocol computes {_show(missing[0])}")
    if extra:
        parts.append(f"kernel computes {_show(extra[0])}")
    return "; ".join(parts) if parts else "leaf multiplicity differs"


@register
class FastpathDriftChecker(Checker):
    """RPR008: the fastpath kernel must stay an expression-for-expression
    transcription of the protocol predicates."""

    code = "RPR008"
    summary = (
        "fastpath transcription drift: the kernel freshness chain and "
        "CERN expiry stamps are normalized (alpha-renaming only) and "
        "structurally diffed against the protocol is_fresh/_derive_expiry "
        "bodies they transcribe"
    )

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        kernels = project.module(KERNEL_MODULE)
        if kernels is None:
            return
        run_kernel = project.symbols.functions_in(kernels).get("run_kernel")
        if run_kernel is None:
            yield self.diagnostic(
                kernels.path, 1, 1,
                "repro.fastpath.kernels defines no run_kernel; the "
                "transcription contract has nothing to check against",
            )
            return
        yield from self._check_freshness(project, kernels, run_kernel)
        yield from self._check_cern_stamps(project, kernels, run_kernel)

    # -- freshness dispatch chain --------------------------------------------

    def _check_freshness(
        self,
        project: Project,
        kernels: ModuleInfo,
        run_kernel: FunctionNode,
    ) -> Iterator[Diagnostic]:
        region = self._marker_region(kernels)
        if region is None:
            yield self.diagnostic(
                kernels.path, run_kernel.lineno, 1,
                "missing '# repro-fastpath-begin/end: freshness' anchors "
                "around the kernel freshness chain; RPR008 cannot locate "
                "the transcribed region",
            )
            return
        begin, end = region
        chain = self._freshness_chain(run_kernel, begin, end)
        if chain is None:
            yield self.diagnostic(
                kernels.path, begin, 1,
                "no 'if kind == KIND_*' dispatch chain found between the "
                "freshness anchors",
            )
            return
        branches, else_body, else_line = chain
        seen = set(branches)
        remaining = sorted(set(_SPECS) - seen)
        if else_body is not None:
            if len(remaining) != 1:
                yield self.diagnostic(
                    kernels.path, else_line, 1,
                    "the freshness chain's else branch is ambiguous: "
                    f"unmatched kinds {', '.join(remaining) or '(none)'}",
                )
            else:
                branches[remaining[0]] = (else_body, else_line)
        for kind in sorted(_SPECS):
            if kind not in branches:
                yield self.diagnostic(
                    kernels.path, begin, 1,
                    f"the freshness chain has no branch for {kind}; every "
                    "compiled protocol kind must be dispatched",
                )
                continue
            yield from self._diff_branch(project, kernels, kind, *branches[kind])

    def _diff_branch(
        self,
        project: Project,
        kernels: ModuleInfo,
        kind: str,
        body: list[ast.stmt],
        line: int,
    ) -> Iterator[Diagnostic]:
        module_name, class_name, attr_map = _SPECS[kind]
        protocol_module = project.module(module_name)
        if protocol_module is None:
            yield self.diagnostic(
                kernels.path, line, 1,
                f"{kind} transcribes {module_name}.{class_name}.is_fresh, "
                "but that module is not among the linted files — lint the "
                "whole src tree so the contract can be checked",
            )
            return
        assumptions = (
            {"ISSET(FIELD:expires_at)": True} if kind == "KIND_CERN" else None
        )
        try:
            expected = _function_leaves(
                project.symbols, protocol_module, class_name, "is_fresh",
                attr_map, assumptions,
            )
            ctx = _FlattenContext(attr_map=attr_map, result_target="fresh")
            actual = _flatten(
                list(body), (), dict(_KERNEL_NAMES), ctx
            )
        except _CanonError as exc:
            yield self.diagnostic(
                kernels.path, line, 1,
                f"cannot normalize the {kind} freshness transcription: "
                f"{exc}",
            )
            return
        if set(expected) != set(actual):
            symbol = _method_symbol(
                project.symbols, protocol_module, class_name, "is_fresh"
            )
            because = ()
            if symbol is not None:
                because = (
                    Because(
                        path=symbol.module.path,
                        line=symbol.node.lineno,
                        note=(
                            f"{class_name}.is_fresh is the reference "
                            "this branch transcribes"
                        ),
                    ),
                )
            yield self.diagnostic(
                kernels.path, line, 1,
                f"fastpath freshness for {kind} has drifted from "
                f"{class_name}.is_fresh: {_describe_diff(expected, actual)}",
                because=because,
            )

    # -- CERN expiry stamps --------------------------------------------------

    def _check_cern_stamps(
        self,
        project: Project,
        kernels: ModuleInfo,
        run_kernel: FunctionNode,
    ) -> Iterator[Diagnostic]:
        marker_lines = [
            lineno
            for lineno, text in enumerate(kernels.source.splitlines(), 1)
            if text.strip() == "# repro-fastpath: cern-stamp"
        ]
        if not marker_lines:
            yield self.diagnostic(
                kernels.path, run_kernel.lineno, 1,
                "no '# repro-fastpath: cern-stamp' anchors in the kernel; "
                "the CERN expiry stamping cannot be diffed against "
                "CERNPolicyProtocol._derive_expiry",
            )
            return
        module_name, class_name, attr_map = _SPECS["KIND_CERN"]
        protocol_module = project.module(module_name)
        if protocol_module is None:
            yield self.diagnostic(
                kernels.path, marker_lines[0], 1,
                f"CERN stamp blocks transcribe {module_name}."
                f"{class_name}._derive_expiry, but that module is not "
                "among the linted files",
            )
            return
        try:
            expected = _function_leaves(
                project.symbols, protocol_module, class_name,
                "_derive_expiry", attr_map,
            )
        except _CanonError as exc:
            yield self.diagnostic(
                protocol_module.path, 1, 1,
                f"cannot normalize {class_name}._derive_expiry: {exc}",
            )
            return
        statements = [
            node
            for node in ast.walk(run_kernel)
            if isinstance(node, ast.stmt)
        ]
        for marker in marker_lines:
            following = [s for s in statements if s.lineno > marker]
            if not following:
                yield self.diagnostic(
                    kernels.path, marker, 1,
                    "cern-stamp anchor is not followed by a statement",
                )
                continue
            stmt = min(following, key=lambda s: s.lineno)
            body = self._stamp_body(stmt)
            if body is None:
                yield self.diagnostic(
                    kernels.path, stmt.lineno, 1,
                    "cern-stamp anchor must sit directly above the "
                    "'if is_cern:' guard of a stamp block",
                )
                continue
            ctx = _FlattenContext(
                attr_map=attr_map, result_target="expires_at"
            )
            try:
                actual = _flatten(body, (), dict(_KERNEL_NAMES), ctx)
            except _CanonError as exc:
                yield self.diagnostic(
                    kernels.path, stmt.lineno, 1,
                    f"cannot normalize the CERN stamp block: {exc}",
                )
                continue
            if set(expected) != set(actual):
                symbol = _method_symbol(
                    project.symbols, protocol_module, class_name,
                    "_derive_expiry",
                )
                because = ()
                if symbol is not None:
                    because = (
                        Because(
                            path=symbol.module.path,
                            line=symbol.node.lineno,
                            note=(
                                f"{class_name}._derive_expiry is the "
                                "reference this stamp transcribes"
                            ),
                        ),
                    )
                yield self.diagnostic(
                    kernels.path, stmt.lineno, 1,
                    "CERN expiry stamp has drifted from "
                    f"{class_name}._derive_expiry: "
                    f"{_describe_diff(expected, actual)}",
                    because=because,
                )

    @staticmethod
    def _stamp_body(stmt: ast.stmt) -> Optional[list[ast.stmt]]:
        """The statements of one stamp block, given the anchored stmt."""
        if not isinstance(stmt, ast.If):
            return None
        test = stmt.test
        if isinstance(test, ast.Name) and test.id == "is_cern":
            return list(stmt.body)
        return None

    # -- kernel region location ----------------------------------------------

    @staticmethod
    def _marker_region(kernels: ModuleInfo) -> Optional[tuple[int, int]]:
        begin = end = None
        for lineno, text in enumerate(kernels.source.splitlines(), 1):
            stripped = text.strip()
            if stripped.startswith("# repro-fastpath-begin: freshness"):
                begin = lineno
            elif stripped.startswith("# repro-fastpath-end: freshness"):
                end = lineno
        if begin is None or end is None or end <= begin:
            return None
        return begin, end

    @staticmethod
    def _freshness_chain(
        run_kernel: FunctionNode, begin: int, end: int
    ) -> Optional[
        tuple[
            dict[str, tuple[list[ast.stmt], int]],
            Optional[list[ast.stmt]],
            int,
        ]
    ]:
        """The dispatch chain between the anchors.

        Returns ``(branches, else_body, else_line)`` where branches maps
        KIND names to their body + line.
        """

        def _kind_test(test: ast.expr) -> Optional[str]:
            if (
                isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Name)
                and test.left.id == "kind"
                and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)
                and isinstance(test.comparators[0], ast.Name)
                and test.comparators[0].id in _SPECS
            ):
                return test.comparators[0].id
            return None

        heads = [
            node
            for node in ast.walk(run_kernel)
            if isinstance(node, ast.If)
            and begin < node.lineno < end
            and _kind_test(node.test) is not None
        ]
        if not heads:
            return None
        current = min(heads, key=lambda n: n.lineno)
        branches: dict[str, tuple[list[ast.stmt], int]] = {}
        else_body: Optional[list[ast.stmt]] = None
        else_line = current.lineno
        while True:
            kind = _kind_test(current.test)
            assert kind is not None
            branches[kind] = (list(current.body), current.lineno)
            orelse = current.orelse
            if (
                len(orelse) == 1
                and isinstance(orelse[0], ast.If)
                and _kind_test(orelse[0].test) is not None
            ):
                current = orelse[0]
                continue
            if orelse:
                else_body = list(orelse)
                else_line = orelse[0].lineno
            break
        return branches, else_body, else_line
