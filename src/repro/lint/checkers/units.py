"""RPR002 — bytes / seconds / count unit discipline.

Table 1 and Figures 4-8 are derived from the bandwidth ledger, which
adds byte quantities; the staleness metrics add seconds; the counters
add events.  Mixing those in additive arithmetic is the accounting bug
class PR 2's oracle catches *at run time* — this checker catches the
provable spellings of it at analysis time.

A unit enters through a **name**:

* identifiers ending ``_bytes`` carry **bytes**;
* identifiers ending ``_seconds`` / ``_secs`` / ``_s`` carry
  **seconds** (``delay_s`` is this repo's common duration spelling);
* identifiers ending ``_count`` / ``_counts`` carry **count**;

plus a table of well-known quantities from ``repro/core/costs.py`` and
the metrics/clock modules whose names don't self-describe
(``control_message`` and ``body_size`` are bytes, ``duration`` /
``wall_seconds`` / ``stale_age_sum`` / ``ttl`` are seconds, ...).

Inside the functions of ``repro.core``, ``repro.fastpath`` and
``repro.live`` — the layers whose quantities feed the tables and
figures — a unit also **propagates** to where no name spells it::

    def backlog(delay_s):
        window = delay_s          # 'window' carries seconds now
        return window             # ...and so does backlog(...)

    total_bytes += backlog(d)     # flagged, with the chain above

* **locals** with a neutral name take the unit of their assigned
  expression (forward, flow-insensitive: branches are not joined, the
  last textual assignment before use wins); a name that spells a unit
  keeps it;
* **returns** take the function's inferred return unit, resolved
  through the project call graph to a global fixpoint, so units flow
  through arbitrarily long chains of helpers (in any package);
* **call arguments** are checked against the callee's parameter units —
  passing a seconds value to a ``body_size`` parameter is flagged even
  though no arithmetic happens at the call site.

Module-level and class-level code, and every other package, run the
same rules with an empty environment and no call resolution: names
only, so a file linted in isolation gets the same verdicts there.

Flagged forms, whenever *both* operands have known-but-different units:

* additive binary ops ``a + b``, ``a - b`` and their augmented forms;
* ordered comparisons ``<``, ``<=``, ``>``, ``>=``;
* ``min(...)`` / ``max(...)`` calls whose arguments disagree — picking
  the smaller of a byte count and a duration is as meaningless as
  adding them (and a ``min``/``max`` of agreeing units *carries* that
  unit into the surrounding expression);
* a call argument whose unit differs from its parameter's.

Multiplication and division are conversions, not mixing, and are never
flagged; operands of unknown unit are skipped.  Each site is reported
once; when a unit was propagated the finding carries a because-chain
giving its provenance (the parameter, assignment, or return that
introduced it).  The propagation is deliberately under-approximate:
unresolved calls and tuple-unpacking assignments contribute no unit, so
every report rests on a provable chain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional

from repro.lint.callgraph import FunctionInfo
from repro.lint.diagnostics import Because, Diagnostic
from repro.lint.project import ModuleInfo, Project
from repro.lint.registry import Checker, register
from repro.lint.stmts import child_blocks, own_exprs

#: Packages whose functions get propagated (not just spelled) units.
SCOPED_PACKAGES = ("repro.core", "repro.fastpath", "repro.live")

#: suffix -> unit.  ``_s`` covers the ``delay_s`` duration convention;
#: string-ish ``*_s`` parser locals (``month_s``) never meet another
#: known unit in additive/ordered positions, so the wider net is safe.
_SUFFIX_UNITS: tuple[tuple[str, str], ...] = (
    ("_bytes", "bytes"),
    ("_seconds", "seconds"),
    ("_secs", "seconds"),
    ("_s", "seconds"),
    ("_count", "count"),
    ("_counts", "count"),
)

#: Exact identifier names with a known unit — the §4.1 cost-model
#: quantities from repro/core/costs.py plus ledger/clock companions.
_KNOWN_NAMES: dict[str, str] = {
    "control_message": "bytes",    # MessageCosts.control_message
    "body_size": "bytes",          # costs.py helper argument
    "capacity_bytes": "bytes",
    "used_bytes": "bytes",
    "stale_age_sum": "seconds",    # ConsistencyCounters
    "wall_seconds": "seconds",     # RunStats
    "duration": "seconds",         # SimulationResult
    "ttl": "seconds",              # TTL-family protocols
    "default_ttl": "seconds",
    "max_ttl": "seconds",
}

#: Fixpoint bound; unit chains deeper than this stay unknown (a cycle
#: of mutually recursive helpers cannot settle anyway).
_MAX_ROUNDS = 8

_ORDERED_CMPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_COMBINE = "convert explicitly before combining"
_ORDER = "an ordering between different units is meaningless"


def in_scope(module_name: str) -> bool:
    """True when ``module_name`` falls under a scoped package."""
    return any(
        module_name == pkg or module_name.startswith(pkg + ".")
        for pkg in SCOPED_PACKAGES
    )


def unit_of_identifier(identifier: str) -> Optional[str]:
    """The unit an identifier's *name* implies, or None."""
    lowered = identifier.lower()
    if lowered in _KNOWN_NAMES:
        return _KNOWN_NAMES[lowered]
    for suffix, unit in _SUFFIX_UNITS:
        if lowered.endswith(suffix) and lowered != suffix.lstrip("_"):
            return unit
    return None


def _is_min_max(node: ast.AST) -> bool:
    """True for a direct ``min(...)``/``max(...)`` builtin call."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("min", "max")
        and not node.keywords
        and len(node.args) >= 2
    )


@dataclass(frozen=True)
class Unit:
    """An expression's unit plus the evidence that propagated it
    (empty when the expression's own names spell the unit)."""

    unit: str
    provenance: tuple[Because, ...] = ()


Env = dict[str, Unit]


def _cap(provenance: tuple[Because, ...]) -> tuple[Because, ...]:
    """Bound a because-chain to its three most recent steps."""
    return provenance[-3:]


def _short(ref: str) -> str:
    return ref.split("::", 1)[-1]


def _ordered_stmts(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Every statement, nested blocks included, in source order."""
    for stmt in body:
        yield stmt
        for block in child_blocks(stmt):
            yield from _ordered_stmts(block)


class UnitFlow:
    """The one inference: what a name spells, what the environment
    (parameters, neutral-named locals) carries, what a callee returns."""

    def __init__(self, project: Project) -> None:
        self.graph = project.call_graph
        #: def node -> call-graph entry, for the functions whose bodies
        #: run with a parameter/local environment.
        self.scoped: dict[ast.AST, FunctionInfo] = {
            info.node: info
            for info in self.graph.functions.values()
            if in_scope(info.module.name)
        }
        #: function ref -> inferred return unit, iterated to a fixpoint.
        self.returns: dict[str, Unit] = {}
        for _ in range(_MAX_ROUNDS):
            changed = False
            for info in self.graph.functions.values():
                found = self._return_unit(info)
                known = self.returns.get(info.ref)
                if found is not None and (
                    known is None or known.unit != found.unit
                ):
                    self.returns[info.ref] = found
                    changed = True
            if not changed:
                break

    def _return_unit(self, info: FunctionInfo) -> Optional[Unit]:
        env = self.param_env(info)
        found: Optional[Unit] = None
        for stmt in _ordered_stmts(info.node.body):
            self.bind(env, stmt, info)
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                unit = self.infer(stmt.value, env, info)
                if unit is None or (found and found.unit != unit.unit):
                    return None  # unit-less or disagreeing returns
                found = unit
        return found

    def param_env(self, info: FunctionInfo) -> Env:
        """The units ``info``'s parameter names spell, with provenance."""
        env: Env = {}
        args = info.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            unit = unit_of_identifier(arg.arg)
            if unit is not None:
                env[arg.arg] = Unit(unit, (Because(
                    path=info.module.path,
                    line=info.node.lineno,
                    note=(
                        f"parameter {arg.arg} of {_short(info.ref)}() "
                        f"carries {unit}"
                    ),
                ),))
        return env

    def bind(
        self, env: Env, stmt: ast.stmt, info: Optional[FunctionInfo]
    ) -> None:
        """Record the unit a single-target assignment gives a local
        with a neutral name (a name that spells a unit keeps it)."""
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target = stmt.target
        else:
            return
        if info is None or not isinstance(target, ast.Name) or (
            unit_of_identifier(target.id) is not None
        ):
            return
        assert stmt.value is not None
        unit = self.infer(stmt.value, env, info)
        if unit is None:
            env.pop(target.id, None)
            return
        note = Because(
            path=info.module.path,
            line=target.lineno,
            note=f"{target.id} is assigned a {unit.unit} value here",
        )
        env[target.id] = Unit(unit.unit, _cap(unit.provenance + (note,)))

    def infer(
        self, node: ast.expr, env: Env, info: Optional[FunctionInfo]
    ) -> Optional[Unit]:
        """The unit ``node`` carries, or None when unknown.

        Names and attributes are classified by the environment, then by
        their identifier; additive expressions and ``min``/``max``
        propagate their (agreeing) operands' unit, unary +/- passes the
        operand's through, and a resolved call carries its callee's
        return unit.  ``info`` is the enclosing scoped function, or None
        where nothing is propagated.
        """
        if isinstance(node, (ast.Name, ast.Attribute)):
            if isinstance(node, ast.Name) and node.id in env:
                return env[node.id]
            spelled = unit_of_identifier(
                node.id if isinstance(node, ast.Name) else node.attr
            )
            return Unit(spelled) if spelled is not None else None
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.UAdd, ast.USub)
        ):
            return self.infer(node.operand, env, info)
        parts: list[ast.expr] = []
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub)
        ):
            parts = [node.left, node.right]
        elif _is_min_max(node):
            assert isinstance(node, ast.Call)
            parts = node.args
        if parts:
            known = [
                unit for part in parts
                if (unit := self.infer(part, env, info)) is not None
            ]
            if len(known) != len(parts) or len({u.unit for u in known}) != 1:
                return None
            provenance: tuple[Because, ...] = ()
            for unit in known:
                provenance += unit.provenance
            return Unit(known[0].unit, _cap(provenance))
        if isinstance(node, ast.Call) and info is not None:
            ref = self.graph._resolve_callee(info, node)
            returned = self.returns.get(ref) if ref is not None else None
            if ref is None or returned is None:
                return None
            callee = self.graph.functions[ref]
            note = Because(
                path=callee.module.path,
                line=callee.node.lineno,
                note=f"{_short(ref)}() returns {returned.unit}",
            )
            return Unit(returned.unit, _cap(returned.provenance + (note,)))
        return None


@dataclass(frozen=True)
class _Scope:
    """Where an expression is evaluated: its module, the enclosing
    scoped function (None outside one) and that function's environment."""

    flow: UnitFlow
    module: ModuleInfo
    env: Env
    info: Optional[FunctionInfo]

    def infer(self, node: ast.expr) -> Optional[Unit]:
        return self.flow.infer(node, self.env, self.info)


@register
class UnitsChecker(Checker):
    """RPR002: bytes, seconds, and counts must not meet in additive
    arithmetic, ordered comparisons, or call arguments."""

    code = "RPR002"
    summary = (
        "no mixing of *_bytes / *_seconds / *_count quantities in "
        "additive arithmetic, ordered comparisons, min()/max() or call "
        "arguments (units from naming plus the repro/core/costs.py "
        "table; propagated through locals, parameters and return "
        "values inside repro.core, repro.fastpath, repro.live)"
    )

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        flow = UnitFlow(project)
        for module in project.modules:
            yield from self._check_block(
                _Scope(flow, module, {}, None), module.tree.body
            )

    def _check_block(
        self, scope: _Scope, body: list[ast.stmt]
    ) -> Iterator[Diagnostic]:
        for stmt in body:
            for root in own_exprs(stmt):
                for node in ast.walk(root):
                    if isinstance(node, (ast.BinOp, ast.Compare, ast.Call)):
                        yield from self._check_expr(scope, node)
            if isinstance(stmt, ast.AugAssign) and isinstance(
                stmt.op, (ast.Add, ast.Sub)
            ):
                yield from self._check_pair(
                    scope, stmt, stmt.target, stmt.value,
                    "augmented assignment", _COMBINE,
                )
            # A scoped function's body starts a fresh environment from
            # its parameters; any other block shares its parent's.
            function = scope.flow.scoped.get(stmt)
            inner = scope if function is None else replace(
                scope, env=scope.flow.param_env(function), info=function
            )
            for block in child_blocks(stmt):
                yield from self._check_block(inner, block)
            scope.flow.bind(scope.env, stmt, scope.info)

    def _check_expr(
        self, scope: _Scope, node: ast.AST
    ) -> Iterator[Diagnostic]:
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub)
        ):
            yield from self._check_pair(
                scope, node, node.left, node.right,
                "additive arithmetic", _COMBINE,
            )
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, _ORDERED_CMPS):
                    yield from self._check_pair(
                        scope, left, left, right, "ordered comparison", _ORDER
                    )
        elif _is_min_max(node):
            assert isinstance(node, ast.Call)
            assert isinstance(node.func, ast.Name)
            known = [arg for arg in node.args if scope.infer(arg) is not None]
            for left, right in zip(known, known[1:]):
                found = next(self._check_pair(
                    scope, node, left, right, f"{node.func.id}()", _ORDER
                ), None)
                if found is not None:
                    yield found  # the first disagreeing pair only
                    break
        elif isinstance(node, ast.Call) and scope.info is not None:
            yield from self._check_call_args(scope, scope.info, node)

    def _check_pair(
        self,
        scope: _Scope,
        at: ast.stmt | ast.expr,
        left: ast.expr,
        right: ast.expr,
        context: str,
        advice: str,
    ) -> Iterator[Diagnostic]:
        lhs, rhs = scope.infer(left), scope.infer(right)
        if lhs is None or rhs is None or lhs.unit == rhs.unit:
            return
        yield self.diagnostic(
            scope.module.path, at.lineno, at.col_offset + 1,
            f"{context} mixes {lhs.unit} with {rhs.unit} "
            f"({ast.unparse(left)} vs {ast.unparse(right)}); {advice}",
            because=_cap(lhs.provenance + rhs.provenance),
        )

    def _check_call_args(
        self, scope: _Scope, info: FunctionInfo, call: ast.Call
    ) -> Iterator[Diagnostic]:
        graph = scope.flow.graph
        ref = graph._resolve_callee(info, call)
        if ref is None:
            return
        callee = graph.functions[ref]
        args = callee.node.args
        params = [a.arg for a in [*args.posonlyargs, *args.args]]
        if params and params[0] in ("self", "cls"):
            params = params[1:]
        pairs = list(zip(params, call.args))
        pairs += [
            (kw.arg, kw.value)
            for kw in call.keywords
            if kw.arg is not None and kw.arg in params
        ]
        for param, arg in pairs:
            expected = unit_of_identifier(param)
            unit = scope.infer(arg)
            if expected is None or unit is None or unit.unit == expected:
                continue
            expects = Because(
                path=callee.module.path,
                line=callee.node.lineno,
                note=(
                    f"parameter {param} of {_short(ref)}() expects "
                    f"{expected}"
                ),
            )
            yield self.diagnostic(
                scope.module.path, arg.lineno, arg.col_offset + 1,
                f"argument {ast.unparse(arg)} carries {unit.unit} but "
                f"parameter {param} of {_short(ref)}() expects "
                f"{expected}; convert before the call",
                because=_cap(unit.provenance) + (expects,),
            )
