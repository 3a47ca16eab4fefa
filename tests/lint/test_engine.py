"""Engine-level behaviour: noqa, baselines, selection, and the self-run.

The last test is the acceptance gate: the committed tree must lint
clean, so the linter can never rot into something the repository itself
violates.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.baseline import (
    BaselineError,
    load_baseline,
    split_baselined,
    write_baseline,
)
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.engine import check_project, run_lint
from repro.lint.project import (
    LintError,
    ModuleInfo,
    Project,
    module_name_for,
    parse_noqa,
)
from repro.lint.registry import all_checkers, checker_codes

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_CORE = (
    "import random\n"
    "\n"
    "def jitter():\n"
    "    return random.random()\n"
)


def write_fixture_tree(tmp_path: Path, source: str) -> Path:
    """A minimal src/repro/core layout so scoped checkers engage."""
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(source)
    return tmp_path / "src"


class TestRegistry:
    def test_all_checkers_registered(self):
        # RPR008 is retired; ids are never renumbered or reused.
        assert checker_codes() == [
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
            "RPR007", "RPR009",
        ]
        assert len(all_checkers()) == 8

    def test_unknown_select_code_raises(self):
        project = Project([])
        with pytest.raises(KeyError, match="RPR999"):
            check_project(project, select=["RPR999"])


class TestNaming:
    def test_module_name_from_src_layout(self):
        assert module_name_for(
            Path("src/repro/core/simulator.py")
        ) == "repro.core.simulator"
        assert module_name_for(
            Path("/abs/src/repro/verify/__init__.py")
        ) == "repro.verify"

    def test_module_name_without_src(self):
        assert module_name_for(
            Path("repro/workload/campus.py")
        ) == "repro.workload.campus"
        assert module_name_for(Path("scratch.py")) == "scratch"


class TestNoqa:
    def test_parse_noqa_forms(self):
        table = parse_noqa(
            "x = 1  # repro: noqa[RPR001]\n"
            "y = 2  # repro: noqa[RPR001, RPR005]\n"
            "z = 3  # repro: noqa\n"
            "w = 4  # unrelated comment\n"
        )
        assert table[1] == {"RPR001"}
        assert table[2] == {"RPR001", "RPR005"}
        assert table[3] == {"*"}
        assert 4 not in table

    def test_noqa_suppresses_matching_code_only(self):
        suppressed_src = BAD_CORE.replace(
            "return random.random()",
            "return random.random()  # repro: noqa[RPR001]",
        )
        module = ModuleInfo.from_source(
            suppressed_src, path="bad.py", name="repro.core.bad"
        )
        reportable, suppressed = check_project(Project([module]))
        assert reportable == []
        assert [d.code for d in suppressed] == ["RPR001"]

    def test_wrong_code_noqa_does_not_suppress(self):
        src = BAD_CORE.replace(
            "return random.random()",
            "return random.random()  # repro: noqa[RPR005]",
        )
        module = ModuleInfo.from_source(
            src, path="bad.py", name="repro.core.bad"
        )
        reportable, suppressed = check_project(Project([module]))
        assert [d.code for d in reportable] == ["RPR001"]
        assert suppressed == []


class TestBaseline:
    def _diag(self, message: str) -> Diagnostic:
        return Diagnostic(
            path="a.py", line=3, col=1, code="RPR001", message=message,
            severity=Severity.ERROR,
        )

    def test_roundtrip_and_split(self, tmp_path):
        baseline = tmp_path / "base.json"
        old = self._diag("grandfathered")
        new = self._diag("fresh finding")
        assert write_baseline(baseline, [old]) == 1
        entries = load_baseline(baseline)
        fresh, grandfathered = split_baselined([old, new], entries)
        assert fresh == [new]
        assert grandfathered == [old]

    def test_fingerprint_ignores_line_numbers(self):
        moved = Diagnostic(
            path="a.py", line=99, col=5, code="RPR001",
            message="grandfathered", severity=Severity.ERROR,
        )
        assert moved.fingerprint == self._diag("grandfathered").fingerprint

    def test_fingerprint_survives_file_rename(self, tmp_path):
        # Baseline against bad.py, then rename the file: the identity
        # hashes code::message::context (no path), so the grandfathered
        # finding must still match.
        src = write_fixture_tree(tmp_path, BAD_CORE)
        baseline = tmp_path / "base.json"
        first = run_lint([src], root=tmp_path)
        write_baseline(baseline, first.diagnostics)

        pkg = src / "repro" / "core"
        (pkg / "bad.py").rename(pkg / "renamed.py")
        second = run_lint([src], baseline_path=baseline, root=tmp_path)
        assert second.diagnostics == []
        assert [d.path for d in second.baselined] == [
            "src/repro/core/renamed.py"
        ]

    def test_fingerprint_survives_unrelated_insertions(self, tmp_path):
        # Pushing the offending line down the file must not break the
        # baseline match: line numbers are excluded from the identity.
        src = write_fixture_tree(tmp_path, BAD_CORE)
        baseline = tmp_path / "base.json"
        first = run_lint([src], root=tmp_path)
        write_baseline(baseline, first.diagnostics)

        pkg = src / "repro" / "core"
        shifted = "import random\n\nPAD_A = 1\nPAD_B = 2\nPAD_C = 3\n" + (
            "\ndef jitter():\n    return random.random()\n"
        )
        (pkg / "bad.py").write_text(shifted)
        second = run_lint([src], baseline_path=baseline, root=tmp_path)
        assert second.diagnostics == []
        assert [d.line for d in second.baselined] == [8]

    def test_fingerprint_changes_when_offending_code_changes(self, tmp_path):
        # The flip side of stability: edit the offending line itself and
        # the old baseline entry must stop matching (debt cannot hide).
        src = write_fixture_tree(tmp_path, BAD_CORE)
        baseline = tmp_path / "base.json"
        first = run_lint([src], root=tmp_path)
        write_baseline(baseline, first.diagnostics)

        pkg = src / "repro" / "core"
        (pkg / "bad.py").write_text(
            BAD_CORE.replace(
                "return random.random()", "return random.random() * 2"
            )
        )
        second = run_lint([src], baseline_path=baseline, root=tmp_path)
        assert [d.code for d in second.diagnostics] == ["RPR001"]
        assert second.baselined == []

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(BaselineError):
            load_baseline(bad)
        bad.write_text('{"version": 99, "entries": {}}')
        with pytest.raises(BaselineError, match="version"):
            load_baseline(bad)


class TestRunLint:
    def test_finds_seeded_violation(self, tmp_path):
        src = write_fixture_tree(tmp_path, BAD_CORE)
        result = run_lint([src], root=tmp_path)
        assert [d.code for d in result.diagnostics] == ["RPR001"]
        assert result.errors and not result.warnings
        assert result.files_checked == 1

    def test_baseline_grandfathers_finding(self, tmp_path):
        src = write_fixture_tree(tmp_path, BAD_CORE)
        baseline = tmp_path / "base.json"
        first = run_lint([src], root=tmp_path)
        write_baseline(baseline, first.diagnostics)
        second = run_lint([src], baseline_path=baseline, root=tmp_path)
        assert second.diagnostics == []
        assert [d.code for d in second.baselined] == ["RPR001"]

    def test_select_restricts_checkers(self, tmp_path):
        src = write_fixture_tree(
            tmp_path, BAD_CORE + "\nlist = [1]\n"
        )
        only_hygiene = run_lint([src], select=["RPR005"], root=tmp_path)
        assert [d.code for d in only_hygiene.diagnostics] == ["RPR005"]
        ignored = run_lint([src], ignore=["RPR001"], root=tmp_path)
        assert [d.code for d in ignored.diagnostics] == ["RPR005"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(LintError, match="no such file"):
            run_lint([tmp_path / "ghost"], root=tmp_path)

    def test_unparseable_source_raises(self, tmp_path):
        src = write_fixture_tree(tmp_path, "def broken(:\n")
        with pytest.raises(LintError, match="cannot lint"):
            run_lint([src], root=tmp_path)


class TestSelfRun:
    """The committed tree must pass its own linter (acceptance gate)."""

    def test_src_tree_is_clean(self):
        result = run_lint([REPO_ROOT / "src"], root=REPO_ROOT)
        assert result.diagnostics == [], "\n".join(
            d.render() for d in result.diagnostics
        )
        assert result.files_checked > 80

    def test_committed_baseline_is_empty(self):
        entries = load_baseline(REPO_ROOT / ".repro-lint-baseline.json")
        assert entries == {}
