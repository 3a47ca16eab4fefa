"""Every ``repro`` package imports, and every name it exports resolves.

A deleted function leaves its package's ``__all__`` behind unless
something reads that list; ``from repro.x import *`` is the one reader,
and no module in the tree uses it.  This test is that reader for every
package, read off the package tree itself, so a new package is covered
without an edit here.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def packages() -> list[str]:
    """The dotted name of ``repro`` and of every package under it."""
    return ["repro"] + sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    )


@pytest.mark.parametrize("name", packages())
def test_package_exports_resolve(name):
    package = importlib.import_module(name)
    missing = [
        attr for attr in getattr(package, "__all__", [])
        if not hasattr(package, attr)
    ]
    assert missing == []
