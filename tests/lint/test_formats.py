"""Machine-readable output: ``--format github`` and the mypy filter."""

from __future__ import annotations

import io

from repro.lint.annotations import annotate_mypy, annotate_stream
from repro.lint.diagnostics import Because, Diagnostic
from repro.lint.engine import LintResult
from repro.lint.formats import (
    escape_message,
    escape_property,
    render_github,
)


def finding(**overrides) -> Diagnostic:
    base = dict(
        path="src/repro/core/bad.py",
        line=4,
        col=12,
        code="RPR001",
        message="random.random() is nondeterministic",
    )
    base.update(overrides)
    return Diagnostic(**base)


class TestGithub:
    def test_error_annotation_line(self):
        (line,) = render_github(LintResult(diagnostics=[finding()]))
        assert line == (
            "::error file=src/repro/core/bad.py,line=4,col=12,"
            "title=RPR001::random.random() is nondeterministic"
        )

    def test_because_chain_folds_into_message(self):
        d = finding(because=(
            Because("src/repro/live/proxy.py", 137, "entry point"),
        ))
        (line,) = render_github(LintResult(diagnostics=[d]))
        # Newlines must be %0A-escaped so the command stays one line.
        assert "\n" not in line
        assert "%0Abecause: src/repro/live/proxy.py:137" in line

    def test_property_escaping(self):
        assert escape_property("a:b,c%d\n") == "a%3Ab%2Cc%25d%0A"

    def test_message_escaping_preserves_punctuation(self):
        assert escape_message("x: y, z\n%") == "x: y, z%0A%25"


class TestMypyAnnotations:
    def test_error_line_parsed(self):
        cmd = annotate_mypy(
            'src/repro/core/cache.py:42: error: Incompatible return '
            'value type  [return-value]'
        )
        assert cmd == (
            "::error file=src/repro/core/cache.py,line=42,col=1,"
            "title=mypy::Incompatible return value type  [return-value]"
        )

    def test_column_numbers_supported(self):
        cmd = annotate_mypy("src/repro/a.py:7:13: error: boom")
        assert cmd is not None and ",line=7,col=13," in cmd

    def test_note_becomes_notice(self):
        cmd = annotate_mypy("src/repro/a.py:7: note: See docs")
        assert cmd is not None and cmd.startswith("::notice ")

    def test_non_finding_lines_ignored(self):
        assert annotate_mypy("Found 3 errors in 2 files") is None
        assert annotate_mypy("Success: no issues found") is None
        assert annotate_mypy("") is None

    def test_stream_echoes_and_interleaves(self):
        out = io.StringIO()
        emitted = annotate_stream(
            "mypy",
            io.StringIO(
                "src/repro/a.py:1: error: bad\n"
                "Found 1 error in 1 file (checked 2 source files)\n"
            ),
            out=out,
        )
        assert emitted == 1
        lines = out.getvalue().splitlines()
        assert lines[0] == "src/repro/a.py:1: error: bad"
        assert lines[1].startswith("::error file=src/repro/a.py,line=1,")
        assert lines[2].startswith("Found 1 error")
