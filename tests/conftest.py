"""Shared fixtures: small deterministic populations and request streams,
and the two tripwires every test runs under: ambient entropy in a seeded
package, and a blocking call on a running event loop."""

from __future__ import annotations

import asyncio
import builtins
import functools
import os
import socket
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest

#: Packages whose runs must be pure functions of their seeds.
SCOPED_PACKAGES = ("repro.core", "repro.fastpath", "repro.workload",
                   "repro.verify", "repro.faults", "repro.obs",
                   "repro.live")


#: Packages that run an asyncio event loop, or run beside one.
LOOP_PACKAGES = ("repro.live", "repro.runtime")

_ENTROPY = ("ambient entropy in a seeded package (seed a numpy Generator "
            "through repro.runtime.derive_seed)")
_BLOCKING = ("a blocking call on a running event loop (use the asyncio "
             "equivalent, or run_in_executor)")


def in_scope(module_name: str, packages=SCOPED_PACKAGES) -> bool:
    """True for a module inside one of ``packages``."""
    return any(module_name == package or module_name.startswith(package + ".")
               for package in packages)


def _tripwire(owner, name, refuses=lambda *args, **kwargs: True,
              packages=SCOPED_PACKAGES, why=_ENTROPY):
    """Replace ``owner.name`` by a wrapper that raises when a module of
    ``packages`` calls it with arguments ``refuses`` accepts."""
    real = getattr(owner, name)

    @functools.wraps(real)
    def guarded(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if in_scope(caller, packages) and refuses(*args, **kwargs):
            raise AssertionError(
                f"{caller} called {owner.__name__}.{name}: {why}")
        return real(*args, **kwargs)

    setattr(owner, name, guarded)


def _loop_running(*args, **kwargs) -> bool:
    return asyncio._get_running_loop() is not None


# Installed at import, before any repro module binds these names, so the
# whole session and the sweep workers it forks run under them.
_tripwire(os, "urandom")
_tripwire(np.random, "default_rng",
          lambda seed=None, *args, **kwargs: seed is None)
for _name in dir(np.random):
    if getattr(getattr(np.random, _name), "__self__", None) is (
            np.random.mtrand._rand):
        _tripwire(np.random, _name)
for _owner, _names in ((time, ("sleep",)),
                       (subprocess, ("run", "Popen", "call", "check_call",
                                     "check_output")),
                       (socket, ("create_connection",)),
                       (os, ("system",)),
                       (urllib.request, ("urlopen",)),
                       (builtins, ("open",))):
    for _name in _names:
        _tripwire(_owner, _name, _loop_running, LOOP_PACKAGES, _BLOCKING)

from repro.core.clock import DAY, days
from repro.core.objects import ModificationSchedule, ObjectHistory, WebObject
from repro.core.server import OriginServer
from repro.verify import oracle as verify_oracle


@pytest.fixture(autouse=True)
def pristine_verify_state():
    """Restore the process-wide oracle switch after every test.

    ``repro.verify.set_enabled`` (and so every ``--verify`` CLI run)
    flips a module global and mirrors it into ``REPRO_VERIFY`` for pool
    workers; neither may leak into the next test.  Same treatment as
    ``tests/fastpath/conftest.py::pristine_engine_state``.
    """
    previous_flag = verify_oracle._enabled
    previous_env = os.environ.get("REPRO_VERIFY")
    yield
    verify_oracle._enabled = previous_flag
    if previous_env is None:
        os.environ.pop("REPRO_VERIFY", None)
    else:
        os.environ["REPRO_VERIFY"] = previous_env


def make_history(
    object_id: str = "/f",
    size: int = 1000,
    created: float = -30 * DAY,
    changes: tuple[float, ...] = (),
    file_type: str = "html",
    cacheable: bool = True,
    expires_after=None,
) -> ObjectHistory:
    """One object with an explicit modification schedule."""
    obj = WebObject(
        object_id=object_id,
        size=size,
        file_type=file_type,
        created=created,
        cacheable=cacheable,
        expires_after=expires_after,
    )
    return ObjectHistory(obj, ModificationSchedule(created, changes))


@pytest.fixture
def static_server() -> OriginServer:
    """Three objects that never change during the simulation window."""
    return OriginServer(
        [
            make_history("/a", size=1000),
            make_history("/b", size=2000),
            make_history("/c", size=4000, file_type="gif"),
        ]
    )


@pytest.fixture
def changing_server() -> OriginServer:
    """Objects with known in-window modification times.

    /hot changes on days 1, 2, 3; /warm changes once on day 10;
    /cold never changes.
    """
    return OriginServer(
        [
            make_history("/hot", size=1000,
                         changes=(days(1), days(2), days(3))),
            make_history("/warm", size=2000, changes=(days(10),)),
            make_history("/cold", size=4000),
        ]
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator for deterministic randomized tests."""
    return np.random.default_rng(12345)
