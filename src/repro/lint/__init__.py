"""Static invariant analysis for the reproduction (``repro lint``).

The paper's results rest on properties no test can see from the
objects a run builds: bytes-vs-seconds discipline in the bandwidth
ledger behind Table 1 and Figures 4-8, and the live leg's lock
discipline.  This package enforces those properties at analysis time
with a stdlib-``ast`` pass over the source tree:

========  ==============================================================
RPR002    units: ``*_bytes`` / ``*_seconds`` / ``*_count`` quantities
          never meet in additive arithmetic, ordered comparisons or call
          arguments — by name everywhere, and propagated through locals,
          parameters and return values in repro.core / fastpath / live
RPR007    async and lock discipline in repro.live / repro.runtime:
          blocking calls on the event loop, shared state mutated across
          an await outside the lock, lock-ordering hazards
========  ==============================================================

Determinism (the retired RPR001) and hygiene (RPR005) are checks over
the loaded code and the running suite: ``tests/test_loaded_code.py``,
the entropy tripwire in ``tests/conftest.py`` and CI's two-hash-seed
report diff.

Run it as ``python -m repro.lint src``, ``repro-lint src``, or ``make
lint``; suppress a single finding with ``# repro: noqa[RPR002]`` on its
line.  Every finding fails the run.  See docs/DEVELOPING.md for the
workflow and the per-checker ledger, and :mod:`repro.lint.registry` for
adding checkers.
"""

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import LintResult, check_project, run_lint
from repro.lint.project import ModuleInfo, Project, load_project
from repro.lint.registry import Checker, all_checkers, register

__all__ = [
    "Checker",
    "Diagnostic",
    "LintResult",
    "ModuleInfo",
    "Project",
    "all_checkers",
    "check_project",
    "load_project",
    "register",
    "run_lint",
]
