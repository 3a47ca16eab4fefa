"""Shared fixtures for the linter's tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.project import Project, load_project

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def shipped_project() -> Project:
    """The committed ``src`` tree, parsed once for every self-run test."""
    return load_project([REPO_ROOT / "src"], root=REPO_ROOT)
