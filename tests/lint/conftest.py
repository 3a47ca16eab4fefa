"""Fixtures that plant a former lint fixture in real code, and the small
oracle cell that must catch it."""

from __future__ import annotations

import importlib
import inspect
import linecache
import sys
import textwrap
import weakref

import pytest

from repro.core.clock import days
from repro.core.simulator import SimulatorMode
from repro.fastpath import specialise
from repro.verify import ConsistencyViolation, verify_simulation
from tests.verify.test_oracle import mixed_origin, mixed_requests


def oracle_cell(protocol, faults=None) -> set[str]:
    """The cells on which one oracle run diverges (empty: every leg
    agrees), each as its leg's label: ``spec.counters.stale_hits``,
    ``fastpath.bandwidth.body_bytes[prefetch]``, ...

    The run is ``tests/verify/test_oracle.py``'s mixed origin (static,
    changing, Expires-stamped and dynamic objects, 35 requests over a
    week).  ``check_invariants``, the third check, raises out of it.
    """
    try:
        verify_simulation(mixed_origin(), protocol, mixed_requests(),
                          SimulatorMode.OPTIMIZED, end_time=days(8),
                          faults=faults)
    except ConsistencyViolation as violation:
        return {line.split(":", 1)[0]
                for line in violation.report.divergences}
    return set()


@pytest.fixture
def seed_module(tmp_path, monkeypatch):
    """``seed(package, name, source)`` adds ``package.name`` to a real
    package for one test and returns it imported."""
    added = []

    def seed(package, name, source):
        (tmp_path / f"{name}.py").write_text(textwrap.dedent(source))
        monkeypatch.setattr(package, "__path__", [*package.__path__,
                                                  str(tmp_path)])
        added.append(f"{package.__name__}.{name}")
        return importlib.import_module(added[-1])

    yield seed
    for module in added:
        sys.modules.pop(module, None)
        package, _, name = module.rpartition(".")
        vars(sys.modules[package]).pop(name, None)


@pytest.fixture
def fresh_kernels(monkeypatch):
    """The fast path specialises every class anew during the test, and
    forgets those kernels after it — their source lines included, which
    share their file names with the shipped kernels'."""
    monkeypatch.setattr(specialise, "_KERNELS", weakref.WeakKeyDictionary())
    monkeypatch.setattr(specialise, "_CACHE_KERNELS",
                        weakref.WeakKeyDictionary())
    monkeypatch.setattr(linecache, "cache", dict(linecache.cache))


def _replaced(source: str, old: str, new: str) -> str:
    """``source`` with its one ``old`` replaced by ``new``, whose later
    lines are indented like the line ``old`` starts on."""
    assert source.count(old) == 1, old
    start = source.index(old)
    line = source[source.rfind("\n", 0, start) + 1:start]
    indent = line[:len(line) - len(line.lstrip())]
    return source.replace(old, new.replace("\n", "\n" + indent))


@pytest.fixture
def plant(monkeypatch, fresh_kernels):
    """``plant(owner, name, old, new)`` replaces the function
    ``owner.name`` (a module's, or a class's method) for one test by its
    own source with ``old`` replaced by ``new``.  The planted source is
    readable, so a planted protocol method is what the fast path
    specialises, as it would a shipped one."""

    def plant(owner, name, old, new):
        function = vars(owner)[name]
        filename = f"<planted {function.__module__}.{function.__qualname__}>"
        text = _replaced(textwrap.dedent(inspect.getsource(function)), old,
                         new)
        # How inspect.getsource reads it: no mtime, so linecache keeps it.
        monkeypatch.setitem(linecache.cache, filename, (
            len(text), None, text.splitlines(keepends=True), filename))
        namespace = {}
        exec(compile(text, filename, "exec"), function.__globals__, namespace)
        monkeypatch.setattr(owner, name, namespace[name])

    return plant


@pytest.fixture
def plant_kernel(monkeypatch, fresh_kernels):
    """``plant_kernel(old, new)``: every kernel the fast path specialises
    during the test is built from ``run_kernel``'s template with ``old``
    replaced by ``new``."""

    def plant_kernel(old, new):
        text = _replaced(specialise._shipped_template(), old, new)
        monkeypatch.setattr(specialise, "_shipped_template", lambda: text)

    return plant_kernel
