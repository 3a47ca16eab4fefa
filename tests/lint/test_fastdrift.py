"""RPR008 — fastpath transcription-drift checker.

Includes the mutation smoke test required by the PR 8 issue: a
one-token edit seeded into a copy of kernels.py must be reported.
"""

import shutil
from pathlib import Path

from repro.lint.checkers.fastdrift import FastpathDriftChecker
from repro.lint.project import ModuleInfo, Project, load_project

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = REPO_ROOT / "src"

#: The files the contract spans: the kernel plus every protocol module
#: it transcribes.
CONTRACT_FILES = [
    "repro/fastpath/kernels.py",
    "repro/core/protocols/ttl.py",
    "repro/core/protocols/alex.py",
    "repro/core/protocols/cern.py",
    "repro/core/protocols/polling.py",
    "repro/core/protocols/invalidation.py",
]


def _contract_project(kernel_mutation=None) -> Project:
    """The contract files as a Project, optionally with a kernel edit."""
    modules = []
    for rel in CONTRACT_FILES:
        source = (REPO_SRC / rel).read_text(encoding="utf-8")
        name = "repro." + rel[len("repro/"):-len(".py")].replace("/", ".")
        if kernel_mutation is not None and rel.endswith("kernels.py"):
            old, new = kernel_mutation
            assert old in source, f"mutation target {old!r} not in kernel"
            source = source.replace(old, new)
        modules.append(
            ModuleInfo.from_source(source, path="src/" + rel, name=name)
        )
    return Project(modules)


def _run(project: Project):
    return list(FastpathDriftChecker().check_project(project))


class TestCleanTree:
    def test_shipped_kernel_matches_protocols(self):
        assert _run(_contract_project()) == []

    def test_full_src_tree_is_clean(self):
        project = load_project([REPO_SRC], root=REPO_ROOT)
        assert _run(project) == []

    def test_silent_when_kernel_not_linted(self):
        # Linting a subtree without the kernel checks nothing.
        project = load_project(
            [REPO_SRC / "repro" / "core"], root=REPO_ROOT
        )
        assert _run(project) == []


class TestMutationSmoke:
    """A seeded one-token divergence must fail the drift check."""

    def test_boundary_flip_in_alex_branch_is_reported(self, tmp_path):
        # Copy the contract files into a scratch src tree, flip one
        # token in the kernel's alex branch, and lint the copy.
        for rel in CONTRACT_FILES:
            target = tmp_path / "src" / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(REPO_SRC / rel, target)
        kernel = tmp_path / "src" / "repro" / "fastpath" / "kernels.py"
        source = kernel.read_text(encoding="utf-8")
        assert "if age <= 0.0:" in source
        kernel.write_text(
            source.replace("if age <= 0.0:", "if age < 0.0:"),
            encoding="utf-8",
        )
        project = load_project([tmp_path / "src"], root=tmp_path)
        diags = _run(project)
        assert len(diags) == 1
        d = diags[0]
        assert d.code == "RPR008"
        assert "KIND_ALEX" in d.message
        assert "AlexProtocol.is_fresh" in d.message
        # The because chain cites the protocol reference.
        assert any("alex.py" in b.path for b in d.because)

    def test_comparison_flip_in_ttl_branch(self):
        diags = _run(_contract_project((
            "fresh = (t - validated_at[i]) < p0\n            elif kind == KIND_ALEX",
            "fresh = (t - validated_at[i]) <= p0\n            elif kind == KIND_ALEX",
        )))
        assert len(diags) == 1
        assert "KIND_TTL" in diags[0].message

    def test_dropped_max_ttl_clamp_in_stamp(self):
        diags = _run(_contract_project(("ttl = min(ttl, p2)", "ttl = p2")))
        # The clamp appears in both stamp sites (preload prologue, store
        # tail); each drifted site is reported at its own line.
        assert len(diags) == 2
        assert all("_derive_expiry" in d.message for d in diags)
        assert len({d.line for d in diags}) == 2

    def test_and_to_or_in_leased_branch(self):
        diags = _run(_contract_project((
            "fresh = valid[i] and t - validated_at[i] < p0",
            "fresh = valid[i] or t - validated_at[i] < p0",
        )))
        assert len(diags) == 1
        assert "KIND_LEASED" in diags[0].message


class TestAnchors:
    def test_missing_freshness_anchor_is_reported(self):
        diags = _run(_contract_project((
            "# repro-fastpath-begin: freshness", "# (anchor removed)",
        )))
        assert any("repro-fastpath-begin" in d.message for d in diags)

    def test_missing_stamp_anchors_are_reported(self):
        diags = _run(_contract_project((
            "# repro-fastpath: cern-stamp", "# (anchor removed)",
        )))
        assert any("cern-stamp" in d.message for d in diags)

    def test_missing_protocol_module_is_reported(self):
        project = _contract_project()
        pruned = Project(
            [m for m in project.modules if "alex" not in m.name]
        )
        diags = list(FastpathDriftChecker().check_project(pruned))
        assert any(
            "KIND_ALEX" in d.message and "not among the linted files"
            in d.message
            for d in diags
        )
