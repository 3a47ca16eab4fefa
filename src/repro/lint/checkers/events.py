"""RPR004 — observer-event / oracle exhaustiveness.

The PR-2 differential oracle diffs the simulator's observer stream
against the spec model *event-for-event*.  That only proves anything if
the two sides speak the same alphabet: an event kind the simulator emits
but the spec never produces is exactly the "missed handler" bug class
the oracle exists to catch — and it would surface as a confusing stream
diff (or, worse, not at all if the event never fires in the test
workloads).  Kinds are emitted in exactly one place, the shared request
step (``repro/core/step.py``) that the simulator, the hierarchy and the
live proxy all account through, so checking that module covers all
three.  This checker makes the alphabet agreement a static fact:

* every string literal passed as the kind of ``self.on_event(...)`` in
  the step module (either arm of ``"stale_hit" if stale else "hit"``
  included) must be declared in its ``EVENT_KINDS`` tuple;
* every declared kind must actually be emitted somewhere in the step
  (no dead alphabet entries);
* every declared kind must have a matching emission
  (``self.events.append(("<kind>", ...))``) in ``repro/verify/spec.py``'s
  :class:`SpecModel` — a missing one means the spec cannot replay that
  event;
* and the spec must not emit kinds outside the alphabet.

Everything is resolved from the linted ASTs; if either module is not
part of the run the checker stays silent.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.lint.diagnostics import Diagnostic
from repro.lint.project import ModuleInfo, Project
from repro.lint.registry import Checker, register

STEP_MODULE = "repro.core.step"
SPEC_MODULE = "repro.verify.spec"


def _declared_kinds(
    step: ModuleInfo,
) -> Optional[tuple[ast.stmt, list[str]]]:
    """The EVENT_KINDS assignment and its string members."""
    for node in step.tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "EVENT_KINDS":
                if isinstance(value, (ast.Tuple, ast.List)):
                    kinds = [
                        elt.value
                        for elt in value.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                    ]
                    return node, kinds
    return None


def _observer_emissions(step: ModuleInfo) -> dict[str, ast.Call]:
    """kind -> first ``self.on_event(<kind expr>, ...)`` call site, for
    every string literal inside the kind expression."""
    emissions: dict[str, ast.Call] = {}
    for node in ast.walk(step.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "on_event"):
            continue
        if not node.args:
            continue
        for kind in ast.walk(node.args[0]):
            if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
                emissions.setdefault(kind.value, node)
    return emissions


def _spec_emissions(spec: ModuleInfo) -> dict[str, ast.Call]:
    """kind -> first ``<events>.append(("<kind>", ...))`` call site."""
    emissions: dict[str, ast.Call] = {}
    for node in ast.walk(spec.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "append"):
            continue
        if len(node.args) != 1 or not isinstance(node.args[0], ast.Tuple):
            continue
        elts = node.args[0].elts
        if elts and isinstance(elts[0], ast.Constant) and isinstance(
            elts[0].value, str
        ):
            emissions.setdefault(elts[0].value, node)
    return emissions


@register
class EventExhaustivenessChecker(Checker):
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
        declared = _declared_kinds(step)
        emitted = _observer_emissions(step)
        if declared is None:
            first = step.tree.body[0] if step.tree.body else None
            yield self.diagnostic(
                step.path,
                first.lineno if first is not None else 1,
                1,
                "step module declares no EVENT_KINDS tuple — the "
                "oracle alphabet is undefined",
            )
            return
        declaration, kinds = declared
        yield from self._check_step(step, declaration, kinds, emitted)
        spec = project.module(SPEC_MODULE)
        if spec is not None:
            yield from self._check_spec(spec, kinds, set(emitted))

    def _check_step(
        self,
        step: ModuleInfo,
        declaration: ast.stmt,
        kinds: list[str],
        emitted: dict[str, ast.Call],
    ) -> Iterator[Diagnostic]:
        for kind, call in sorted(emitted.items()):
            if kind not in kinds:
                yield self.diagnostic(
                    step.path, call.lineno, call.col_offset + 1,
                    f"observer event {kind!r} is emitted but not declared "
                    "in EVENT_KINDS — the oracle will never compare it",
                )
        for kind in kinds:
            if kind not in emitted:
                yield self.diagnostic(
                    step.path,
                    declaration.lineno,
                    declaration.col_offset + 1,
                    f"EVENT_KINDS declares {kind!r} but the step "
                    "never emits it (dead alphabet entry)",
                )

    def _check_spec(
        self,
        spec: ModuleInfo,
        kinds: list[str],
        step_emits: set[str],
    ) -> Iterator[Diagnostic]:
        replayed = _spec_emissions(spec)
        for kind in kinds:
            if kind in step_emits and kind not in replayed:
                first = spec.tree.body[0] if spec.tree.body else None
                yield self.diagnostic(
                    spec.path,
                    first.lineno if first is not None else 1,
                    1,
                    f"SpecModel has no handler replaying observer event "
                    f"{kind!r} — the differential oracle cannot match the "
                    "simulator's stream",
                )
        for kind, call in sorted(replayed.items()):
            if kind not in kinds:
                yield self.diagnostic(
                    spec.path, call.lineno, call.col_offset + 1,
                    f"SpecModel replays event {kind!r} which is not in the "
                    "simulator's EVENT_KINDS alphabet",
                )
