"""The lint CLI contract: rendering, exit statuses, the four options."""

from __future__ import annotations

from pathlib import Path

from repro.lint.cli import main as lint_main

BAD_CORE = (
    "import random\n"
    "\n"
    "def jitter():\n"
    "    return random.random()\n"
)


def fixture_tree(tmp_path: Path, source: str = BAD_CORE) -> Path:
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(source)
    return tmp_path / "src"


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        src = fixture_tree(tmp_path, "x = 1\n")
        assert lint_main([str(src)]) == 0
        out = capsys.readouterr().out
        assert "1 file(s), 0 error(s)" in out

    def test_error_finding_exits_one(self, tmp_path, capsys):
        src = fixture_tree(tmp_path)
        assert lint_main([str(src)]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert "bad.py:4:" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "ghost")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_select_code_exits_two(self, tmp_path, capsys):
        src = fixture_tree(tmp_path, "x = 1\n")
        assert lint_main([str(src), "--select", "RPR999"]) == 2
        assert "RPR999" in capsys.readouterr().err


class TestFlags:
    def test_list_codes(self, capsys):
        assert lint_main(["--list-codes"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
            "RPR007",
        ]

    def test_format_github_annotations(self, tmp_path, capsys):
        src = fixture_tree(tmp_path)
        assert lint_main([str(src), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert ",line=4," in out and "title=RPR001::" in out

    def test_format_github_clean_tree(self, tmp_path, capsys):
        src = fixture_tree(tmp_path, "x = 1\n")
        assert lint_main([str(src), "--format", "github"]) == 0
        out = capsys.readouterr().out
        assert "::error" not in out

    def test_noqa_shows_in_summary(self, tmp_path, capsys):
        src = fixture_tree(
            tmp_path,
            BAD_CORE.replace(
                "return random.random()",
                "return random.random()  # repro: noqa[RPR001]",
            ),
        )
        assert lint_main([str(src)]) == 0
        assert "1 noqa-suppressed" in capsys.readouterr().out
