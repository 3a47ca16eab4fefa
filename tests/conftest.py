"""Shared fixtures: small deterministic populations and request streams."""

from __future__ import annotations

import os

import numpy as np
import pytest

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
