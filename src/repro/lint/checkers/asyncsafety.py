"""RPR007 — async-safety and lock discipline in the live/runtime layers.

The live mode (PR 7) runs a real asyncio proxy and origin; the runtime
layer mixes a fork-based worker pool with thread locks.  Three bug
classes there are invisible to per-file syntax checks but provable from
the project call graph (:mod:`repro.lint.callgraph`):

1. **Blocking calls on the event loop.**  ``time.sleep``, synchronous
   ``socket``/``subprocess``/``os.system`` calls, and plain ``open()``
   reachable — through any chain of sync helpers — from an ``async
   def`` defined in the scoped packages.  The diagnostic lands on the
   blocking call site and carries a *because chain*: the call path that
   proves reachability from the event loop.

2. **Unlocked shared-state transactions.**  For every class whose
   method is handed to the event loop (``asyncio.start_server``,
   ``create_task``, ``ensure_future``, ``gather``), one path-sensitive
   walker starts at each entry point and tracks mutations of ``self.*``
   state, *following* every ``self.m(...)`` call into the callee with
   the caller's state and merging the callee's return points back.
   Two mutations separated by an ``await`` — or a single
   read-modify-write (``self.x += await f()``) straddling one — is a
   race: another invocation of the same callback can interleave at the
   suspension point.  The body of ``async with self._lock:`` (or a sync
   ``with lock:``) is skipped, and with it every method only ever
   called from inside such a region (the shipped proxy's design).

3. **Lock-ordering hazards.**  Acquiring a second lock while one is
   held (``async with a: ... async with b:``), and ``await`` while
   holding a *synchronous* ``with lock:`` — the event loop suspends
   with a thread lock held, stalling every other thread that wants it.
   Locks are recognized by name (``*lock*``) or, inside a class, as the
   attributes it assigns a ``Lock()``-family object to; a nested
   ``def`` is its own function — it does not run under the locks held
   where it is defined.

All three rules are deliberately under-approximate: an unresolved call
contributes no edge, an unrecognized lock expression protects nothing,
and only what the graph *proves* gets flagged (no findings on dynamic
dispatch guesses).  Entry points the checker cannot see (callbacks
registered through wrappers it does not model) are simply not analyzed
— documented in docs/DEVELOPING.md under "call-graph imprecision".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional

from repro.lint.diagnostics import Because, Diagnostic
from repro.lint.project import ModuleInfo, Project
from repro.lint.registry import Checker, register
from repro.lint.stmts import child_blocks, iter_no_defs, own_exprs
from repro.lint.symbols import FunctionNode, _dotted_parts

#: Packages whose async code this checker analyzes (roots + classes).
SCOPED_PACKAGES = ("repro.live", "repro.runtime")

#: Functions that hand a callback to the event loop; an async method
#: passed to one of these becomes a concurrency entry point.
_SPAWN_NAMES = frozenset(
    {"start_server", "create_task", "ensure_future", "gather"}
)

#: Constructors whose result stored on ``self`` marks a lock attribute.
_LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: Method names that mutate their receiver — calling one on a ``self``
#: attribute counts as touching shared state.
_MUTATING_METHODS = frozenset(
    {
        "append", "add", "remove", "pop", "popitem", "clear", "update",
        "extend", "insert", "setdefault", "discard",
        "store", "invalidate", "drop", "charge", "push",
    }
)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def in_scope(module_name: str) -> bool:
    """True when ``module_name`` falls under a scoped package."""
    return any(
        module_name == pkg or module_name.startswith(pkg + ".")
        for pkg in SCOPED_PACKAGES
    )


def _blocking_reason(call: ast.Call) -> Optional[str]:
    """Why this call blocks the event loop, or None if it does not."""
    if isinstance(call.func, ast.Name) and call.func.id == "open":
        return "open() performs synchronous file I/O"
    parts = _dotted_parts(call.func)
    if not parts:
        return None
    dotted = ".".join(parts)
    head = parts[0]
    if dotted == "time.sleep":
        return "time.sleep() suspends the whole thread, not just this task"
    if head == "subprocess":
        return f"{dotted}() runs a subprocess synchronously"
    if dotted in ("os.system", "os.popen", "os.wait", "os.waitpid"):
        return f"{dotted}() blocks until the child process finishes"
    if head == "socket" and len(parts) > 1:
        return f"{dotted}() does synchronous socket work"
    if head == "requests" or (head == "urllib" and "request" in parts):
        return f"{dotted}() performs a synchronous HTTP request"
    return None


def _contains_await(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Await) for n in iter_no_defs(node))


def _self_attr_root(expr: ast.expr) -> Optional[str]:
    """The first attribute in a ``self.X...`` chain, unwrapping
    subscripts (``self.X[k]``, ``self.X.Y``, ...), else None."""
    node = expr
    attr: Optional[str] = None
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Attribute):
            attr = node.attr
            node = node.value
        elif isinstance(node, ast.Name):
            return attr if node.id == "self" and attr else None
        else:
            return None


def _is_lockish(expr: ast.expr, lock_attrs: frozenset[str]) -> bool:
    """Heuristic: the expression names a lock (known attr or *lock*)."""
    attr = _self_attr_root(expr)
    if attr is not None and attr in lock_attrs:
        return True
    name: Optional[str] = None
    if isinstance(expr, ast.Name):
        name = expr.id
    elif isinstance(expr, ast.Attribute):
        name = expr.attr
    return name is not None and "lock" in name.lower()


def _target_leaves(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_leaves(element)
    else:
        yield target


@dataclass(frozen=True)
class _TxnState:
    """Per-path transaction tracking for rule 2.

    ``touch`` is the (line, attr) of the transaction's first
    shared-state mutation; ``await_line`` the first suspension point
    after it; ``terminated`` marks a path that returned/raised.
    """

    touch: Optional[tuple[int, str]] = None
    await_line: Optional[int] = None
    terminated: bool = False

    def rank(self) -> int:
        if self.terminated:
            return -1
        if self.touch and self.await_line:
            return 2
        if self.touch:
            return 1
        return 0


def _merge(states: list[_TxnState]) -> _TxnState:
    """Join branch states, preferring the most race-advanced live path."""
    live = [s for s in states if not s.terminated]
    if not live:
        return _TxnState(terminated=True)
    return max(live, key=_TxnState.rank)


class _ClassModel:
    """What rules 2 and 3 need to know about one class."""

    def __init__(
        self,
        module: ModuleInfo,
        methods: dict[str, FunctionNode],
    ) -> None:
        self.module = module
        self.methods = methods
        self.lock_attrs = self._find_lock_attrs()
        self.entry_points = self._find_entry_points()

    def _find_lock_attrs(self) -> frozenset[str]:
        attrs: set[str] = set()
        for node in self.methods.values():
            for sub in iter_no_defs(node):
                if not isinstance(sub, ast.Assign):
                    continue
                value = sub.value
                if not (
                    isinstance(value, ast.Call)
                    and (parts := _dotted_parts(value.func))
                    and parts[-1] in _LOCK_FACTORIES
                ):
                    continue
                for target in sub.targets:
                    attr = _self_attr_root(target)
                    if attr:
                        attrs.add(attr)
        return frozenset(attrs)

    def _find_entry_points(self) -> list[str]:
        entries: list[str] = []
        for node in self.methods.values():
            for sub in iter_no_defs(node):
                if not isinstance(sub, ast.Call):
                    continue
                parts = _dotted_parts(sub.func)
                if not parts or parts[-1] not in _SPAWN_NAMES:
                    continue
                candidates = list(sub.args)
                candidates += [kw.value for kw in sub.keywords]
                for arg in candidates:
                    if isinstance(arg, ast.Call):
                        # create_task(self.m(...)) passes the coroutine.
                        arg = arg.func
                    if (
                        isinstance(arg, ast.Attribute)
                        and isinstance(arg.value, ast.Name)
                        and arg.value.id == "self"
                        and arg.attr in self.methods
                    ):
                        entries.append(arg.attr)
        return sorted(set(entries))

    # -- per-node queries ----------------------------------------------------

    def touches(self, stmt: ast.stmt) -> list[tuple[str, int]]:
        """``(attr, line)`` of the shared-state mutations in ``stmt``:
        stores to ``self.X...`` and mutating-method calls on it."""
        found: list[tuple[str, int]] = []
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            for leaf in _target_leaves(target):
                attr = _self_attr_root(leaf)
                if attr and attr not in self.lock_attrs:
                    found.append((attr, stmt.lineno))
        for node in iter_no_defs(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
            ):
                attr = _self_attr_root(node.func.value)
                if attr and attr not in self.lock_attrs:
                    found.append((attr, node.lineno))
        return found

    def method_calls(self, node: ast.AST) -> list[str]:
        """Same-class methods ``node`` calls as ``self.m(...)``."""
        return [
            sub.func.attr
            for sub in iter_no_defs(node)
            if isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and isinstance(sub.func.value, ast.Name)
            and sub.func.value.id == "self"
            and sub.func.attr in self.methods
        ]


@register
class AsyncSafetyChecker(Checker):
    """RPR007: no blocking calls reachable from the event loop, no
    unlocked shared-state transactions across awaits, no lock-ordering
    hazards (scope: repro.live, repro.runtime)."""

    code = "RPR007"
    summary = (
        "async/lock discipline in repro.live + repro.runtime: blocking "
        "calls reachable from async defs, shared-state mutation across "
        "an await outside the lock, nested lock acquisition, and await "
        "under a sync lock"
    )

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        yield from self._check_blocking(project)
        for module in project.modules:
            if not in_scope(module.name):
                continue
            models = self._class_models(module, project)
            for model in models:
                walker = _TxnWalker(self, model)
                for entry in model.entry_points:
                    walker.call(entry, _TxnState())
                yield from walker.found
            yield from self._check_lock_nesting(module, models)

    @staticmethod
    def _class_models(
        module: ModuleInfo, project: Project
    ) -> list[_ClassModel]:
        """One model per top-level class, in name order."""
        classes: dict[str, dict[str, FunctionNode]] = {}
        for qualname, node in project.symbols.functions_in(module).items():
            cls, _, method = qualname.rpartition(".")
            if cls and "." not in cls:
                classes.setdefault(cls, {})[method] = node
        return [_ClassModel(module, classes[cls]) for cls in sorted(classes)]

    # -- rule 1: blocking calls reachable from async defs --------------------

    def _check_blocking(self, project: Project) -> Iterator[Diagnostic]:
        graph = project.call_graph
        roots = sorted(
            info.ref
            for info in graph.functions.values()
            if info.is_async and in_scope(info.module.name)
        )
        if not roots:
            return
        seen: set[tuple[str, int]] = set()
        for ref, chain in sorted(graph.reachable_from(roots).items()):
            info = graph.functions[ref]
            for node in iter_no_defs(info.node):
                if not isinstance(node, ast.Call):
                    continue
                reason = _blocking_reason(node)
                if reason is None:
                    continue
                key = (info.module.path, node.lineno)
                if key in seen:
                    continue
                seen.add(key)
                root_ref = chain[0].caller if chain else ref
                root = graph.functions[root_ref]
                because = [
                    Because(
                        path=root.module.path,
                        line=root.node.lineno,
                        note=(
                            f"async def {_short(root_ref)}() runs on "
                            "the event loop"
                        ),
                    )
                ]
                because += [
                    Because(
                        path=site.path,
                        line=site.line,
                        note=(
                            f"{_short(site.caller)}() calls "
                            f"{_short(site.callee)}() here"
                        ),
                    )
                    for site in chain
                ]
                yield self.diagnostic(
                    info.module.path, node.lineno, node.col_offset + 1,
                    f"{reason}; it is reachable from async def "
                    f"{_short(root_ref)}() and stalls the event loop — "
                    "use the asyncio equivalent or run_in_executor",
                    because=tuple(because),
                )

    # -- rule 3: lock nesting / await under a sync lock ----------------------

    def _check_lock_nesting(
        self, module: ModuleInfo, models: list[_ClassModel]
    ) -> Iterator[Diagnostic]:
        """Walk every function — nested ones on their own, each exactly
        once — under the lock attributes of its enclosing class."""
        attrs_of = {
            method: model.lock_attrs
            for model in models
            for method in model.methods.values()
        }
        stack: list[tuple[ast.AST, frozenset[str]]] = [
            (module.tree, frozenset())
        ]
        while stack:
            node, lock_attrs = stack.pop()
            lock_attrs = attrs_of.get(node, lock_attrs)
            if isinstance(node, _DEFS):
                yield from self._lock_walk(
                    module, node.body, lock_attrs, held=[], sync_held=0
                )
            stack.extend(
                (child, lock_attrs) for child in ast.iter_child_nodes(node)
            )

    def _lock_walk(
        self,
        module: ModuleInfo,
        body: list[ast.stmt],
        lock_attrs: frozenset[str],
        held: list[str],
        sync_held: int,
    ) -> Iterator[Diagnostic]:
        for stmt in body:
            if isinstance(stmt, (*_DEFS, ast.ClassDef)):
                continue  # defined here, not run here
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                lock_names = [
                    ast.unparse(item.context_expr)
                    for item in stmt.items
                    if _is_lockish(item.context_expr, lock_attrs)
                ]
                if lock_names and held:
                    yield self.diagnostic(
                        module.path, stmt.lineno, stmt.col_offset + 1,
                        f"acquires {lock_names[0]} while already holding "
                        f"{held[-1]}; nested lock acquisition invites "
                        "deadlock — widen the outer critical section "
                        "instead",
                    )
                if (
                    isinstance(stmt, ast.AsyncWith)
                    and sync_held
                    and not lock_names
                ):
                    yield self.diagnostic(
                        module.path, stmt.lineno, stmt.col_offset + 1,
                        "async with (an await) while holding a sync lock; "
                        "the event loop suspends with the lock held",
                    )
                new_sync = sync_held + (
                    1 if lock_names and isinstance(stmt, ast.With) else 0
                )
                yield from self._lock_walk(
                    module, stmt.body, lock_attrs,
                    held + lock_names, new_sync,
                )
                continue
            if sync_held and any(
                _contains_await(root) for root in own_exprs(stmt)
            ):
                yield self.diagnostic(
                    module.path, stmt.lineno, stmt.col_offset + 1,
                    "await while holding a synchronous lock; the event "
                    "loop suspends with the lock held and every thread "
                    "contending for it stalls",
                )
            for block in child_blocks(stmt):
                yield from self._lock_walk(
                    module, block, lock_attrs, held, sync_held
                )


class _TxnWalker:
    """Rule 2: the one path-sensitive statement walker.

    It carries a :class:`_TxnState` along every path from an entry
    point, steps *into* ``self.m(...)`` calls (``active`` is the call
    stack, which also stops recursion), and steps *over* lock-dominated
    ``with`` bodies.
    """

    def __init__(self, checker: AsyncSafetyChecker, model: _ClassModel) -> None:
        self.checker = checker
        self.model = model
        self.found: list[Diagnostic] = []
        self._flagged: set[tuple[int, str]] = set()
        #: (method, states at its ``return`` statements) per active call.
        self.active: list[tuple[str, list[_TxnState]]] = []

    def call(self, method: str, state: _TxnState) -> _TxnState:
        """The caller's state after ``self.method(...)`` ran from
        ``state``: the callee's fall-through joined with each of its
        return points.  A callee that always raises ends the path."""
        if any(method == name for name, _ in self.active):
            return state
        returns: list[_TxnState] = []
        self.active.append((method, returns))
        end = self.walk(self.model.methods[method].body, state)
        self.active.pop()
        return _merge([end, *returns])

    def walk(self, body: list[ast.stmt], state: _TxnState) -> _TxnState:
        for stmt in body:
            if state.terminated:
                break
            state = self._step(stmt, state)
        return state

    # -- one statement -------------------------------------------------------

    def _step(self, stmt: ast.stmt, state: _TxnState) -> _TxnState:
        if isinstance(stmt, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
            state = self._simple(stmt, state)
            if isinstance(stmt, ast.Return):
                self.active[-1][1].append(state)
            return replace(state, terminated=True)

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            if isinstance(stmt, ast.AsyncWith):
                state = self._await_event(state, stmt.lineno)
            if any(
                _is_lockish(item.context_expr, self.model.lock_attrs)
                for item in stmt.items
            ):
                return state  # the lock serializes its body
            for item in stmt.items:
                state = self._enter(item.context_expr, state, stmt.lineno)
            return replace(self.walk(stmt.body, state), terminated=False)

        if isinstance(stmt, ast.If):
            state = self._enter(stmt.test, state, stmt.lineno)
            return _merge([
                self.walk(stmt.body, state), self.walk(stmt.orelse, state),
            ])

        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if isinstance(stmt, ast.AsyncFor):
                state = self._await_event(state, stmt.lineno)
            head = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            state = self._enter(head, state, stmt.lineno)
            # Two passes over the body so a touch at the bottom of one
            # iteration meets an await at the top of the next.
            once = _merge([self.walk(stmt.body, state), state])
            twice = self.walk(stmt.body, once)
            return self.walk(stmt.orelse, _merge([twice, once]))

        if isinstance(stmt, ast.Try):
            after_body = self.walk(stmt.body, state)
            handler_states = [
                # A handler can fire at any point of the body; analyzing
                # it from the try-entry state is the under-approximation.
                self.walk(handler.body, state)
                for handler in stmt.handlers
            ]
            after_else = self.walk(stmt.orelse, after_body)
            merged = _merge([after_else, *handler_states])
            final = self.walk(
                stmt.finalbody, replace(merged, terminated=False)
            )
            if merged.terminated:
                final = replace(final, terminated=True)
            return final

        return self._simple(stmt, state)

    def _simple(self, stmt: ast.stmt, state: _TxnState) -> _TxnState:
        touches = self.model.touches(stmt)
        if (
            touches
            and isinstance(stmt, ast.AugAssign)
            and _contains_await(stmt)
        ):
            # self.x += await f(): the read happens before the await,
            # the write after — a one-statement unlocked transaction
            # (reported once: the store below has the same line).
            self._flag(
                stmt.lineno, touches[0][0],
                first=(stmt.lineno, touches[0][0]),
                await_line=stmt.lineno, single=True,
            )
        # ``self.x = await f()`` stores after the await: a statement's
        # suspension and callees come before its own touches.
        state = self._enter(stmt, state, stmt.lineno)
        if not touches or state.terminated:
            return state
        attr, line = touches[0]
        if state.touch and state.await_line:
            self._flag(
                line, attr, first=state.touch, await_line=state.await_line
            )
            return _TxnState(touch=(line, attr))
        if state.touch is None:
            return _TxnState(touch=(line, attr))
        return state

    # -- events and reporting ------------------------------------------------

    def _enter(self, node: ast.AST, state: _TxnState, line: int) -> _TxnState:
        """Evaluate ``node``: its await (if any) suspends first, then
        each same-class method it calls runs from the resulting state."""
        if _contains_await(node):
            state = self._await_event(state, line)
        for callee in self.model.method_calls(node):
            if not state.terminated:
                state = self.call(callee, state)
        return state

    def _await_event(self, state: _TxnState, line: int) -> _TxnState:
        if state.touch is None or state.await_line is not None:
            return state
        return replace(state, await_line=line)

    def _flag(
        self,
        line: int,
        attr: str,
        first: tuple[int, str],
        await_line: int,
        single: bool = False,
    ) -> None:
        key = (line, attr)
        if key in self._flagged:
            return
        self._flagged.add(key)
        model = self.model
        lock = (
            f"self.{sorted(model.lock_attrs)[0]}"
            if model.lock_attrs
            else "a lock"
        )
        if single:
            message = (
                f"read-modify-write of self.{attr} straddles an await "
                f"without holding {lock}; another task can interleave "
                "between the read and the write"
            )
            because = (
                Because(
                    path=model.module.path,
                    line=line,
                    note="the await suspends between load and store",
                ),
            )
        else:
            message = (
                f"self.{attr} mutated after an await without holding "
                f"{lock}; the transaction that began at line "
                f"{first[0]} is not atomic — another task can "
                "interleave at the suspension point"
            )
            because = (
                Because(
                    path=model.module.path,
                    line=first[0],
                    note=f"transaction begins: self.{first[1]} mutated here",
                ),
                Because(
                    path=model.module.path,
                    line=await_line,
                    note="an await after this point suspends the task",
                ),
            )
        self.found.append(
            self.checker.diagnostic(
                model.module.path, line, 1, message, because=because
            )
        )


def _short(ref: str) -> str:
    """``module::Cls.method`` → ``Cls.method`` for messages."""
    return ref.split("::", 1)[-1]
