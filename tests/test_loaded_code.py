"""Checks over the code that runs: every ``repro`` module and example.

Both rules read loaded modules and their compiled code, not source
text (docs/DEVELOPING.md, "Retired: RPR001, RPR005"):

* hygiene — no default of a function reachable from a module's
  namespace is a ``list``, ``dict``, ``set`` or ``bytearray`` (one
  object shared by every call), and no parameter or stored name rebinds
  a builtin in :data:`SHADOWED_BUILTINS`;
* determinism — no global of a module in
  :data:`~tests.conftest.SCOPED_PACKAGES` holds ``random``, ``time``,
  ``datetime``, ``uuid`` or ``secrets``, or a callable from one of
  them.  The one exception: ``repro.obs.clock`` binds ``time``, the
  single audited wall-clock read.

The calls these cannot see (unseeded numpy generators, the legacy numpy
global API, ``os.urandom``) raise under the tripwire that
``tests/conftest.py`` installs for the whole session; set order is
CI's two-``PYTHONHASHSEED`` report diff (and, for the planted fixture,
``tests/lint/test_checkers.py::TestDeterminism``).
"""

from __future__ import annotations

import dis
import importlib
import importlib.util
import inspect
import pkgutil
import types
from functools import lru_cache
from pathlib import Path

import repro
from tests.conftest import in_scope

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

#: Builtins no parameter or assignment may rebind.
SHADOWED_BUILTINS = frozenset({
    "all", "any", "bool", "bytes", "callable", "dict", "dir", "enumerate",
    "filter", "float", "format", "frozenset", "hash", "id", "input", "int",
    "isinstance", "iter", "len", "list", "map", "max", "min", "next",
    "object", "open", "print", "range", "repr", "reversed", "round", "set",
    "sorted", "str", "sum", "tuple", "type", "vars", "zip",
})

#: Modules whose functions read host clocks or ambient entropy.
ENTROPY_MODULES = frozenset({"random", "time", "datetime", "uuid",
                             "secrets"})

_STORES = frozenset({"STORE_NAME", "STORE_GLOBAL", "STORE_FAST",
                     "STORE_DEREF"})


@lru_cache(maxsize=None)
def loaded_modules() -> tuple[types.ModuleType, ...]:
    """Every ``repro`` module, then each example under a name that is
    not ``__main__`` (so its ``main()`` does not run)."""
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    for path in sorted(EXAMPLES.glob("*.py")):
        spec = importlib.util.spec_from_file_location(
            f"examples.{path.stem}", path)
        assert spec is not None and spec.loader is not None
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        modules.append(module)
    return tuple(modules)


def _functions(namespace: object, owner: str, seen: set[int]):
    """Functions reachable from ``namespace`` that ``owner`` defines:
    module functions, methods, static and class methods, property
    accessors, and the same inside nested classes."""
    for value in list(vars(namespace).values()):
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, property):
            yield from filter(None, (value.fget, value.fset, value.fdel))
            continue
        if isinstance(value, (staticmethod, classmethod)) or callable(value):
            value = inspect.unwrap(getattr(value, "__func__", value))
        if getattr(value, "__module__", None) != owner:
            continue
        if inspect.isfunction(value):
            yield value
        elif inspect.isclass(value):
            yield from _functions(value, owner, seen)


def mutable_defaults(module: types.ModuleType) -> list[str]:
    """One line per mutable default value in ``module``."""
    found = []
    for fn in _functions(module, module.__name__, set()):
        for value in (*(fn.__defaults__ or ()),
                      *(fn.__kwdefaults__ or {}).values()):
            if isinstance(value, (list, dict, set, bytearray)):
                found.append(f"{fn.__module__}.{fn.__qualname__}() "
                             f"defaults to a shared {type(value).__name__}")
    return found


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def shadowed_builtins(module: types.ModuleType) -> list[str]:
    """One line per builtin that a parameter or a store in ``module``'s
    compiled code rebinds.  Assignment in every form, ``for``,
    comprehensions, ``with … as`` and ``except … as`` all compile to
    the same store opcodes; names bound by ``def`` and ``class`` are
    left alone."""
    spec = module.__spec__
    found = []
    for code in _code_objects(spec.loader.get_code(spec.name)):
        params = (code.co_argcount + code.co_kwonlyargcount
                  + bool(code.co_flags & inspect.CO_VARARGS)
                  + bool(code.co_flags & inspect.CO_VARKEYWORDS))
        defined = {const.co_name for const in code.co_consts
                   if isinstance(const, types.CodeType)}
        stored = {instruction.argval
                  for instruction in dis.get_instructions(code)
                  if instruction.opname in _STORES}
        bound = set(code.co_varnames[:params]) | (stored - defined)
        found.extend(
            f"{module.__name__}:{code.co_firstlineno} {code.co_name} "
            f"binds {name!r}, shadowing the builtin"
            for name in sorted(bound & SHADOWED_BUILTINS))
    return found


def entropy_globals(module: types.ModuleType) -> list[str]:
    """One line per global of a scoped ``module`` that holds an entropy
    module or a callable from one."""
    if not in_scope(module.__name__):
        return []
    found = []
    for name, value in vars(module).items():
        if inspect.ismodule(value):
            origin, what = value.__name__, f"the {value.__name__} module"
        elif callable(value):
            origin = getattr(value, "__module__", None)
            what = f"{origin}.{getattr(value, '__qualname__', '?')}"
        else:
            continue
        if origin in ENTROPY_MODULES and (
                (module.__name__, origin) != ("repro.obs.clock", "time")):
            found.append(f"{module.__name__}.{name} is {what}")
    return found


def test_walk_covers_the_tree_and_the_examples():
    names = [module.__name__ for module in loaded_modules()]
    sources = list(Path(repro.__file__).parent.rglob("*.py"))
    assert sum(name.startswith("repro") for name in names) == len(sources)
    assert "repro.live.proxy" in names
    assert sum(name.startswith("examples.") for name in names) == 7


def test_no_mutable_defaults():
    assert [line for module in loaded_modules()
            for line in mutable_defaults(module)] == []


def test_no_shadowed_builtins():
    assert [line for module in loaded_modules()
            for line in shadowed_builtins(module)] == []


def test_scoped_modules_bind_no_entropy():
    scoped = [module for module in loaded_modules()
              if in_scope(module.__name__)]
    assert len(scoped) > 60
    assert [line for module in scoped
            for line in entropy_globals(module)] == []
