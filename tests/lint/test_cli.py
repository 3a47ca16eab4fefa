"""The lint CLI contract: rendering, exit statuses, the four options."""

from __future__ import annotations

from pathlib import Path

from repro.lint.cli import main as lint_main

BAD_CORE = (
    "def account(total_bytes, delay_s):\n"
    "    return total_bytes + delay_s\n"
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
        assert "RPR002" in out
        assert "bad.py:2:" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "ghost")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_select_code_exits_two(self, tmp_path, capsys):
        # A retired id is as unknown as one never issued.
        src = fixture_tree(tmp_path, "x = 1\n")
        for code in ("RPR999", "RPR001", "RPR003", "RPR005"):
            assert lint_main([str(src), "--select", code]) == 2
            assert code in capsys.readouterr().err


class TestFlags:
    def test_list_codes(self, capsys):
        assert lint_main(["--list-codes"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            "RPR002", "RPR007",
        ]

    def test_format_github_annotations(self, tmp_path, capsys):
        src = fixture_tree(tmp_path)
        assert lint_main([str(src), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert ",line=2," in out and "title=RPR002::" in out

    def test_format_github_clean_tree(self, tmp_path, capsys):
        src = fixture_tree(tmp_path, "x = 1\n")
        assert lint_main([str(src), "--format", "github"]) == 0
        out = capsys.readouterr().out
        assert "::error" not in out

    def test_noqa_shows_in_summary(self, tmp_path, capsys):
        src = fixture_tree(
            tmp_path,
            BAD_CORE.replace(
                "return total_bytes + delay_s",
                "return total_bytes + delay_s  # repro: noqa[RPR002]",
            ),
        )
        assert lint_main([str(src)]) == 0
        assert "1 noqa-suppressed" in capsys.readouterr().out
