"""RPR004 / RPR006 — declared string alphabets and the calls that use them.

Two parts of the system key everything downstream on a string passed
to a call, and in both a typo does not fail — it silently forks the
vocabulary:

* the **observer-event kinds** the request step emits and the PR-2
  differential oracle replays (RPR004);
* the **metric / span / trace-mark names** the :mod:`repro.obs` layer
  publishes (RPR006).

Both are checked the same way, by one core: a module-level tuple of
strings *declares* the alphabet (:func:`declared`), the string literals
reaching a named call's first argument are its *uses*
(:func:`literal_uses`), a use outside the alphabet is flagged at the
call site and a declared entry nobody uses is flagged at the
declaration (a dead alphabet entry).  What differs per code is only
where the alphabet lives, which calls use it, and what "used" means.

**RPR004 — oracle exhaustiveness.**  The oracle diffs the simulator's
observer stream against the spec model *event-for-event*, which only
proves anything if the two sides speak the same alphabet.  Kinds are
emitted in exactly one place, the shared request step
(``repro/core/step.py``) that the simulator, the hierarchy and the live
proxy all account through, so checking that module covers all three:

* every string literal passed as the kind of ``self.on_event(...)`` in
  the step module (either arm of ``"stale_hit" if stale else "hit"``
  included) must be declared in its ``EVENT_KINDS`` tuple;
* every declared kind must actually be emitted somewhere in the step;
* every declared kind must have a matching emission
  (``self.events.append(("<kind>", ...))``) in ``repro/verify/spec.py``'s
  :class:`SpecModel` — a missing one means the spec cannot replay that
  event — and the spec must not emit kinds outside the alphabet.

**RPR006 — observability names.**  Counters and histograms go through
``emit``/``observe``/``set_gauge``, timings through ``span``, the live
mode's cross-process causal points through ``mark``; the names are the
join key for the trace/metrics schemas, the Prometheus renderer and the
serial-vs-parallel equivalence tests:

* a literal first argument of those calls must be declared in
  ``repro/obs/names.py``'s ``METRIC_NAMES`` / ``SPAN_NAMES`` /
  ``TRACE_MARK_NAMES`` respectively;
* every declared name must occur as a string literal in at least one
  *other* linted module.  Names emitted through a variable — e.g. the
  ``EVENT_METRICS`` tee table in ``repro/obs/trace.py`` or the totals
  dict in ``repro/faults/plan.py`` — stay live through the dict
  literals that hold them.

Calls whose first argument is not a string literal (or a conditional
between literals) are out of scope: they are fed from tables validated
at their literal source.  Everything is resolved from the linted ASTs;
when the module declaring an alphabet is not part of the run its
checker stays silent, so linting an isolated subtree still works.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from repro.lint.diagnostics import Diagnostic
from repro.lint.project import ModuleInfo, Project
from repro.lint.registry import Checker, register

STEP_MODULE = "repro.core.step"
SPEC_MODULE = "repro.verify.spec"
NAMES_MODULE = "repro.obs.names"

#: RPR006: declaring tuple -> the calls whose literal first argument
#: must be one of its entries, and what the entries are called.
OBS_ALPHABETS: tuple[tuple[str, tuple[str, ...], str], ...] = (
    ("METRIC_NAMES", ("emit", "observe", "set_gauge"), "metric"),
    ("SPAN_NAMES", ("span",), "span"),
    ("TRACE_MARK_NAMES", ("mark",), "trace-mark"),
)


@dataclass(frozen=True)
class Alphabet:
    """A module-level ``VARIABLE = ("a", "b", ...)`` declaration."""

    module: ModuleInfo
    variable: str
    declaration: ast.stmt
    names: tuple[str, ...]


def declared(module: ModuleInfo, variable: str) -> Optional[Alphabet]:
    """The module-level tuple/list assigned to ``variable``, if any."""
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)) and any(
            isinstance(t, ast.Name) and t.id == variable for t in targets
        ):
            return Alphabet(module, variable, node, tuple(
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            ))
    return None


def _literals(expr: ast.expr) -> Iterator[str]:
    """The string literals ``expr`` can evaluate to: itself, or either
    arm of a conditional between literals."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        yield expr.value
    elif isinstance(expr, ast.IfExp):
        yield from _literals(expr.body)
        yield from _literals(expr.orelse)


def _call_name(call: ast.Call) -> Optional[str]:
    """The trailing name of the called function, if syntactically plain."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _first_arg(call: ast.Call) -> Optional[ast.expr]:
    return call.args[0] if call.args else None


def _tuple_head(call: ast.Call) -> Optional[ast.expr]:
    """``<kind>`` of ``events.append((<kind>, ...))``."""
    if len(call.args) == 1 and isinstance(call.args[0], ast.Tuple):
        return next(iter(call.args[0].elts), None)
    return None


Use = tuple[str, ast.Call, Alphabet]


def literal_uses(
    nodes: Iterable[ast.AST],
    alphabets: dict[str, Alphabet],
    pick: Callable[[ast.Call], Optional[ast.expr]] = _first_arg,
) -> Iterator[Use]:
    """``(literal, call, alphabet)`` for every string literal reaching
    the picked argument of a call, among ``nodes``, whose trailing name
    keys an alphabet (``alphabets``: call name -> alphabet)."""
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        alphabet = alphabets.get(_call_name(node) or "")
        expr = pick(node) if alphabet is not None else None
        if alphabet is not None and expr is not None:
            for literal in _literals(expr):
                yield literal, node, alphabet


def _first_line(module: ModuleInfo) -> int:
    return module.tree.body[0].lineno if module.tree.body else 1


class _AlphabetChecker(Checker):
    """The three findings every alphabet rule is made of."""

    def missing(self, module: ModuleInfo, variable: str, what: str) -> Diagnostic:
        return self.diagnostic(
            module.path, _first_line(module), 1,
            f"{module.path} declares no {variable} tuple — the {what} "
            "alphabet is undefined",
        )

    def undeclared(
        self, module: ModuleInfo, uses: Iterable[Use], consequence: str
    ) -> Iterator[Diagnostic]:
        """Flag each of ``module``'s literal uses outside its alphabet."""
        for literal, call, alphabet in uses:
            if literal not in alphabet.names:
                yield self.diagnostic(
                    module.path, call.lineno, call.col_offset + 1,
                    f"{_call_name(call)}() uses {literal!r}, which is not "
                    f"declared in {alphabet.variable} "
                    f"({alphabet.module.path}) — {consequence}",
                )

    def dead(
        self, alphabet: Alphabet, live: set[str], unused: str
    ) -> Iterator[Diagnostic]:
        for name in alphabet.names:
            if name not in live:
                yield self.diagnostic(
                    alphabet.module.path,
                    alphabet.declaration.lineno,
                    alphabet.declaration.col_offset + 1,
                    f"{alphabet.variable} declares {name!r} but {unused} "
                    "(dead alphabet entry)",
                )


@register
class EventExhaustivenessChecker(_AlphabetChecker):
    """RPR004: EVENT_KINDS, the request step's observer emissions, and
    the SpecModel's replayed events must be the same alphabet."""

    code = "RPR004"
    summary = (
        "every observer event emitted by core/step.py is declared "
        "in EVENT_KINDS and replayed by a SpecModel handler in "
        "verify/spec.py (and vice versa)"
    )

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        step = project.module(STEP_MODULE)
        if step is None:
            return
        kinds = declared(step, "EVENT_KINDS")
        if kinds is None:
            yield self.missing(step, "EVENT_KINDS", "oracle")
            return
        emissions = list(
            literal_uses(ast.walk(step.tree), {"on_event": kinds})
        )
        emitted = {kind for kind, _, _ in emissions}
        yield from self.undeclared(
            step, emissions, "the oracle will never compare it"
        )
        yield from self.dead(kinds, emitted, "the step never emits it")
        spec = project.module(SPEC_MODULE)
        if spec is None:
            return
        replays = list(
            literal_uses(ast.walk(spec.tree), {"append": kinds}, _tuple_head)
        )
        replayed = {kind for kind, _, _ in replays}
        yield from self.undeclared(
            spec, replays,
            "the SpecModel replays an event the simulator cannot emit",
        )
        for kind in kinds.names:
            if kind in emitted and kind not in replayed:
                yield self.diagnostic(
                    spec.path, _first_line(spec), 1,
                    f"SpecModel has no handler replaying observer event "
                    f"{kind!r} — the differential oracle cannot match the "
                    "simulator's stream",
                )


@register
class ObsNameChecker(_AlphabetChecker):
    """RPR006: metric/span/mark names used by emit/observe/set_gauge/
    span/mark calls and the alphabets in obs/names.py must agree."""

    code = "RPR006"
    summary = (
        "every literal metric/span/mark name passed to obs emit/observe/"
        "set_gauge/span/mark is declared in repro/obs/names.py, and "
        "every declared name is used somewhere (no silent new series, "
        "no dead alphabet entries)"
    )

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        names = project.module(NAMES_MODULE)
        if names is None:
            return
        alphabets: list[Alphabet] = []
        by_call: dict[str, Alphabet] = {}
        for variable, calls, what in OBS_ALPHABETS:
            alphabet = declared(names, variable)
            if alphabet is None:
                yield self.missing(names, variable, what)
                return
            alphabets.append(alphabet)
            by_call.update(dict.fromkeys(calls, alphabet))
        live: set[str] = set()
        for module in project.modules:
            if module is names:
                continue
            nodes = list(ast.walk(module.tree))
            # Every string constant counts as a reference (docstrings
            # included): table-driven names stay live through the dict
            # literals that hold them.
            live |= {
                node.value
                for node in nodes
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
            }
            yield from self.undeclared(
                module, literal_uses(nodes, by_call),
                "fix the typo or declare it; an unknown name silently "
                "becomes a new series",
            )
        for alphabet in alphabets:
            yield from self.dead(
                alphabet, live, "no linted module references it"
            )
