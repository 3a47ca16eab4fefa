"""Every example script runs to completion and prints its story.

The examples are the library's front door; a broken one is a bug.  Each
is executed in-process (imported as a module and its ``main`` called)
with reduced arguments where the script supports them.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, argv: list[str], capsys) -> str:
    """Execute an example script as __main__ with the given argv."""
    script = EXAMPLES_DIR / name
    assert script.exists(), script
    old_argv = sys.argv
    sys.argv = [str(script), *argv]
    try:
        runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


#: ``capacity_planning.py --requests 4000``'s table, every policy on the
#: reference engine: 16 capacity x policy rows and the unbounded one.
CAPACITY_TABLE = [
    "One weekday through the proxy, Alex(20%) consistency:",
    "capacity   policy   hit rate  miss rate  MB from origin",
    "---------  -------  --------  ---------  --------------",
    "5%         fifo     25.32%    74.67%     23.5",
    "5%         lfu      37.45%    62.55%     20.2",
    "5%         lru      29.03%    70.97%     22.5",
    "5%         size     33.15%    66.85%     26.4",
    "15%        fifo     41.85%    58.15%     18.7",
    "15%        lfu      50.95%    49.05%     15.9",
    "15%        lru      46.95%    53.05%     17.3",
    "15%        size     49.93%    50.08%     21.7",
    "40%        fifo     59.10%    40.90%     13.0",
    "40%        lfu      61.88%    38.12%     12.1",
    "40%        lru      61.32%    38.67%     12.3",
    "40%        size     63.10%    36.90%     13.8",
    "100%       fifo     65.12%    34.88%     11.0",
    "100%       lfu      65.12%    34.88%     11.0",
    "100%       lru      65.12%    34.88%     11.0",
    "100%       size     65.12%    34.88%     11.0",
    "unbounded  (paper)  65.12%    34.88%     11.0",
]


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", [], capsys)
        assert "invalidation" in out
        assert "stale rate" in out

    def test_campus_proxy(self, tmp_path, capsys):
        out = run_example(
            "campus_proxy.py", ["--log", str(tmp_path / "hcs.log")], capsys
        )
        assert "wrote" in out
        assert "alex(10%)" in out

    def test_tune_stale_rate(self, capsys):
        out = run_example(
            "tune_stale_rate.py", ["--scale", "0.1", "--budget", "0.05"],
            capsys,
        )
        assert "recommended threshold" in out

    def test_news_site(self, capsys):
        out = run_example("news_site.py", [], capsys)
        assert "expires" in out
        assert "112" in out   # one validation per page per edition

    def test_hierarchy_bias(self, capsys):
        out = run_example("hierarchy_bias.py", [], capsys)
        assert "c-partial" in out
        assert "never flatters" in out or "never" in out

    def test_self_tuning(self, capsys):
        out = run_example("self_tuning.py", [], capsys)
        assert "self-tuning" in out
        assert "learned per-type thresholds" in out

    def test_capacity_planning(self, capsys):
        out = run_example(
            "capacity_planning.py", ["--requests", "4000"], capsys
        )
        lines = [line.rstrip() for line in out.splitlines()]
        start = lines.index(CAPACITY_TABLE[0])
        assert lines[start:start + len(CAPACITY_TABLE)] == CAPACITY_TABLE
