"""Shared fastpath fixtures: pristine engine state, sample workloads.

Engine selection is process-global (an override plus the
``REPRO_ENGINE`` environment variable, so pool workers inherit it);
tests that call :func:`repro.fastpath.set_engine` must not leak the
choice into each other — or into the rest of the suite, which may
itself be running under a pinned engine (the CI reference-engine leg
exports ``REPRO_ENGINE=reference``).
"""

from __future__ import annotations

import os

import pytest

from repro.core.clock import days, hours
from repro.fastpath import ENGINE_ENV_VAR
from repro.fastpath import dispatch as fastpath_dispatch
from repro.workload.base import Workload
from repro.workload.worrell import WorrellWorkload
from tests.conftest import make_history


@pytest.fixture(autouse=True)
def pristine_engine_state():
    previous_override = fastpath_dispatch._engine_override
    previous_env = os.environ.get(ENGINE_ENV_VAR)
    yield
    fastpath_dispatch._engine_override = previous_override
    if previous_env is None:
        os.environ.pop(ENGINE_ENV_VAR, None)
    else:
        os.environ[ENGINE_ENV_VAR] = previous_env


@pytest.fixture(scope="module")
def workload():
    """A small deterministic workload shared by the identity tests."""
    return WorrellWorkload(files=40, requests=3000, seed=11).build()


@pytest.fixture(scope="module")
def quiet_workload():
    """``workload``'s shape with objects that live 20-40 days: under one
    origin change per ten requests, so lean runs skip their hit runs."""
    return WorrellWorkload(files=40, requests=3000, seed=11,
                           min_lifetime=days(20), max_lifetime=days(40)).build()


@pytest.fixture(scope="module")
def flat_workload():
    """The Worrell shape at 15 % of the paper's size: every object
    changes often and none gets more than a 200th of the requests, so
    lean runs step their objects in lockstep."""
    return WorrellWorkload(files=312, requests=15_000, seed=11).build()


@pytest.fixture(scope="module")
def mixed_workload():
    """Four hand-placed objects that reach what ``workload`` never does.

    The Worrell population has no ``Expires`` header and no dynamic
    content, so on its own it leaves the kernel's ``Expires`` re-stamp,
    the ``server_expires`` arms of CERN / ``ExpiresTTLProtocol`` / the
    refresh window, and ``dynamic_fetch`` to the hypothesis suites.
    Every object is requested every ~15-20 h and again 30 min later, so
    each protocol sees both a short and a long gap:

    * ``/expires`` carries a 6 h ``Expires`` and changes once;
    * ``/dynamic`` is not cacheable;
    * ``/changing`` changes between a request and its repeat (5.25 h: a
      stale hit), between two rounds, and exactly at a request time
      (75 h: Last-Modified == now, CERN's default-TTL arm);
    * ``/static`` never changes.
    """
    histories = [
        make_history("/expires", size=1500, changes=(hours(36),),
                     expires_after=hours(6)),
        make_history("/dynamic", size=700, cacheable=False),
        make_history("/changing", size=3000,
                     changes=(hours(5.25), hours(24), hours(75), hours(100))),
        make_history("/static", size=900, file_type="gif"),
    ]
    cycle = ["/expires", "/changing", "/static", "/dynamic",
             "/changing", "/expires", "/static"]
    requests = []
    for k in range(30):
        object_id = cycle[k % len(cycle)]
        requests.append((hours(5 * k), object_id))
        requests.append((hours(5 * k + 0.5), object_id))
    return Workload(histories, requests, duration=days(7), name="mixed")
