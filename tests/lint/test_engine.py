"""Engine-level behaviour: noqa, selection, and the self-run.

The last test is the acceptance gate: the committed tree must lint
clean, so the linter can never rot into something the repository itself
violates.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.engine import check_project, run_lint
from repro.lint.project import (
    LintError,
    ModuleInfo,
    Project,
    module_name_for,
    parse_noqa,
)
from repro.lint.registry import all_checkers

BAD_CORE = (
    "def account(total_bytes, delay_s):\n"
    "    return total_bytes + delay_s\n"
)


def write_fixture_tree(tmp_path: Path, source: str) -> Path:
    """A minimal src/repro/core layout so scoped checkers engage."""
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(source)
    return tmp_path / "src"


class TestRegistry:
    def test_all_checkers_registered(self):
        # RPR001, RPR003, RPR004, RPR005, RPR006, RPR008 and RPR009 are
        # retired; ids are never reused.
        assert [checker.code for checker in all_checkers()] == [
            "RPR002", "RPR007"]

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
            "return total_bytes + delay_s",
            "return total_bytes + delay_s  # repro: noqa[RPR002]",
        )
        module = ModuleInfo.from_source(
            suppressed_src, path="bad.py", name="repro.core.bad"
        )
        reportable, suppressed = check_project(Project([module]))
        assert reportable == []
        assert [d.code for d in suppressed] == ["RPR002"]

    def test_wrong_code_noqa_does_not_suppress(self):
        src = BAD_CORE.replace(
            "return total_bytes + delay_s",
            "return total_bytes + delay_s  # repro: noqa[RPR007]",
        )
        module = ModuleInfo.from_source(
            src, path="bad.py", name="repro.core.bad"
        )
        reportable, suppressed = check_project(Project([module]))
        assert [d.code for d in reportable] == ["RPR002"]
        assert suppressed == []


class TestRunLint:
    def test_finds_seeded_violation(self, tmp_path):
        src = write_fixture_tree(tmp_path, BAD_CORE)
        result = run_lint([src], root=tmp_path)
        assert [d.code for d in result.diagnostics] == ["RPR002"]
        assert result.files_checked == 1

    def test_select_restricts_checkers(self, tmp_path):
        src = write_fixture_tree(tmp_path, BAD_CORE)
        only_async = run_lint([src], select=["RPR007"], root=tmp_path)
        assert only_async.diagnostics == []

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(LintError, match="no such file"):
            run_lint([tmp_path / "ghost"], root=tmp_path)

    def test_unparseable_source_raises(self, tmp_path):
        src = write_fixture_tree(tmp_path, "def broken(:\n")
        with pytest.raises(LintError, match="cannot lint"):
            run_lint([src], root=tmp_path)


class TestSelfRun:
    """The committed tree must pass its own linter (acceptance gate)."""

    def test_src_tree_is_clean(self, shipped_project):
        reportable, _ = check_project(shipped_project)
        assert reportable == [], "\n".join(d.render() for d in reportable)
        assert len(shipped_project.modules) > 80
