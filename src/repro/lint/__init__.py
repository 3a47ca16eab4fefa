"""Static invariant analysis for the reproduction (``repro lint``).

The paper's results rest on properties no unit test fully pins down:
bit-identical determinism across worker counts (docs/PERFORMANCE.md),
bytes-vs-seconds discipline in the bandwidth ledger behind Table 1 and
Figures 4-8, and the PR-2 oracle replaying *every* observer event the
simulator can emit.  This package enforces those properties at analysis
time with a stdlib-``ast`` pass over the source tree:

========  ==============================================================
RPR001    determinism: no global/unseeded RNG, wall clocks, ambient
          entropy, or set-order iteration in the simulation-facing
          packages (seeds flow through repro.runtime.derive_seed)
RPR002    units: ``*_bytes`` / ``*_seconds`` / ``*_count`` quantities
          never meet in additive arithmetic, ordered comparisons or call
          arguments — by name everywhere, and propagated through locals,
          parameters and return values in repro.core / fastpath / live
RPR003    conformance: protocol subclasses implement the hook set, are
          exported, and have spec rules; experiment modules are
          registered in experiments/registry.py
RPR004    oracle exhaustiveness: EVENT_KINDS == the request step's
          emissions == SpecModel replay alphabet
RPR005    hygiene: no mutable default arguments or shadowed builtins
RPR006    observability names: literal metric / span / mark names are
          declared in repro/obs/names.py, and every declared name is used
RPR007    async and lock discipline in repro.live / repro.runtime:
          blocking calls on the event loop, shared state mutated across
          an await outside the lock, lock-ordering hazards
========  ==============================================================

Run it as ``python -m repro.lint src``, ``repro-lint src``, or ``make
lint``; suppress a single finding with ``# repro: noqa[RPR001]`` on its
line.  Every finding fails the run.  See docs/DEVELOPING.md for the
workflow and the per-checker ledger, and :mod:`repro.lint.registry` for
adding checkers.
"""

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import LintResult, check_project, run_lint
from repro.lint.project import ModuleInfo, Project, load_project
from repro.lint.registry import (
    Checker,
    all_checkers,
    checker_codes,
    get_checker,
    register,
)

__all__ = [
    "Checker",
    "Diagnostic",
    "LintResult",
    "ModuleInfo",
    "Project",
    "all_checkers",
    "check_project",
    "checker_codes",
    "get_checker",
    "load_project",
    "register",
    "run_lint",
]
