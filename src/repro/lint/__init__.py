"""Static invariant analysis for the reproduction (``repro lint``).

The paper's results rest on properties no unit test fully pins down:
bit-identical determinism across worker counts (docs/PERFORMANCE.md),
bytes-vs-seconds discipline in the bandwidth ledger behind Table 1 and
Figures 4-8, and the PR-2 oracle replaying *every* observer event the
simulator can emit.  This package enforces those properties at analysis
time with a stdlib-``ast`` pass over the source tree:

========  ==============================================================
RPR001    determinism: no global/unseeded RNG, wall clocks, ambient
          entropy, or set-order iteration in repro.core / repro.workload
          / repro.verify (seeds flow through repro.runtime.derive_seed)
RPR002    units: ``*_bytes`` / ``*_seconds`` / ``*_count`` quantities
          never meet in additive arithmetic or ordered comparisons
RPR003    conformance: protocol subclasses implement the hook set, are
          exported, and have spec rules; experiment modules are
          registered in experiments/registry.py
RPR004    oracle exhaustiveness: EVENT_KINDS == the request step's
          emissions == SpecModel replay alphabet
RPR005    hygiene: no mutable default arguments or shadowed builtins
========  ==============================================================

Run it as ``python -m repro.lint src``, ``repro-lint src``, or ``make
lint``; suppress single findings with ``# repro: noqa[RPR001]`` and
grandfather pre-existing debt with ``--update-baseline``.  See
docs/DEVELOPING.md for the full workflow and
:mod:`repro.lint.registry` for adding checkers.
"""

from repro.lint.baseline import load_baseline, write_baseline
from repro.lint.diagnostics import Diagnostic, Severity
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
    "Severity",
    "all_checkers",
    "check_project",
    "checker_codes",
    "get_checker",
    "load_baseline",
    "load_project",
    "register",
    "run_lint",
    "write_baseline",
]
