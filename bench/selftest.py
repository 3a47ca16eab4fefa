"""Self-test of the benchmark: ``python3 bench/selftest.py`` (about a minute).

Not collected by the repo's test suite (which only looks in ``tests/``).
One round per workload — the real sizes for the simulator workloads and
the suite, a 300-request trace for the live ones — on a seed other than
the pinned one, checking the benchmark itself:

* BENCHMARK.json obeys the contract's limits;
* every declared metric is printed exactly once with its unit, by every
  workload, and nothing undeclared is printed (names agree in both
  directions), and names match ``[A-Za-z0-9_.-]+``;
* every per-layer metric is measured by at least one workload;
* a deliberately corrupted result drives ``failed_share`` above 0;
* span self times add up to the wall of their root, overlap or not;
* in every span file each span overlaps the span that caused it, and the
  spans cover at least nine tenths of the traced pass.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any

import run as bench
from harness import Clock, self_times

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SEED = 1
LIVE_SCALE = 0.0053  # about 300 requests


def check_contract(declared: dict[str, Any]) -> None:
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["bench"] and declared["command"][1] == "bench/run.py"
    assert 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = []
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert (bench.ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def check_result(result: dict[str, Any], section: list[dict[str, Any]]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in section}
    printed = result["metrics"]
    assert set(printed) == set(declared), set(printed) ^ set(declared)
    for name, entry in printed.items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == declared[name]
        assert isinstance(entry["value"], (int, float)), (name, entry)


def corrupted(expected: Any) -> Any:
    """A copy of a workload's verified results with one value changed."""
    bad = copy.deepcopy(expected)
    first = bad[0] if isinstance(bad, list) else bad
    if hasattr(first, "counters"):          # a SimulationResult
        first.counters.hits += 1
    elif hasattr(first, "points"):          # a SweepResult
        first.points[0].metrics["total_mb"] += 1.0
    else:                                   # the suite's (verdict, text) pair
        bad[0] = (first[0], first[1] + "x")
    return bad


def check_corruption(workload: Any) -> None:
    """Outputs equal to the verified results fail against corrupted ones."""
    from repro.live import LiveReplayReport

    good = workload.expected
    outputs = good if isinstance(good, list) else LiveReplayReport(result=good)
    assert workload.check(outputs)[1] == 0
    workload.expected = corrupted(good)
    try:
        attempted, failed = workload.check(outputs)
        assert 0 < failed <= attempted, (workload.name, attempted, failed)
    finally:
        workload.expected = good


def check_self_times() -> None:
    spans = [
        {"id": 0, "parent": None, "op": None, "name": "root", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "op": "a", "name": "x", "start": 1.0, "end": 6.0},
        {"id": 2, "parent": 0, "op": "b", "name": "x", "start": 4.0, "end": 9.0},
        {"id": 3, "parent": 1, "op": "a", "name": "y", "start": 0.5, "end": 3.0},
    ]
    own = self_times(spans)
    assert abs(sum(own.values()) - 10.0) < 1e-9, own
    # root alone on [0,1] and [9,10]; y clipped to [1,3]; x(a) and x(b)
    # share [4,6] equally.
    assert abs(own[0] - 2.0) < 1e-9 and abs(own[3] - 2.0) < 1e-9, own
    assert abs(own[1] - 2.0) < 1e-9 and abs(own[2] - 4.0) < 1e-9, own


def check_span_file(name: str, coverage: float) -> None:
    """Children lie on their parent's interval; layers cover the pass."""
    path = bench.OUT_DIR / f"{name}.spans.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None:
            assert (span["start"] <= parent["end"]
                    and span["end"] >= parent["start"]), (span, parent)
    assert coverage >= 0.9, (name, coverage)


def main() -> int:
    declared = bench.load_declared()
    check_contract(declared)
    check_self_times()
    bench.OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest.", dir=bench.OUT_DIR))
    measured: set[str] = set()
    try:
        for name, workload in bench.build_workloads(scratch, LIVE_SCALE).items():
            for trace in (False, True):
                result, own = bench.measure(
                    workload, SEED, 0.0, trace, declared, min_rounds=1,
                    setup_repeats=1,
                )
                check_result(
                    result, declared["per_layer" if trace else "end_to_end"]
                )
                if trace:
                    measured |= own
                    check_span_file(
                        name, result["metrics"]["bench.trace_coverage"]["value"]
                    )
            check_corruption(workload)
            if name == "sim-kernel":  # and once through the round loop
                workload.expected = corrupted(workload.expected)
                attempted, failed = bench.run_rounds(workload, Clock(), 0.0, 1)
                assert 0 < failed / attempted <= 1
            print(f"selftest: {name} ok")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    unmeasured = {m["name"] for m in declared["per_layer"]} - measured
    assert not unmeasured, f"no workload measures {sorted(unmeasured)}"
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
