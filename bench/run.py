"""One layered benchmark for the simulator and the live leg.

    python3 bench/run.py                       all seven workloads, both passes
    python3 bench/run.py --workload sim-kernel --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --pin                 rewrite expected.json (seed 0)

With ``--workload`` one workload runs in this interpreter and the last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — every end-to-end metric of BENCHMARK.json
with ``--trace 0``, every per-layer metric with ``--trace 1``.  Without
it each workload runs in a fresh interpreter of its own, one after
another, and a table of every metric is printed.  README.md explains
the workloads, the metrics and the estimator.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Any

import harness
from harness import Clock, now

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
EXPECTED = BENCH_DIR / "expected.json"
#: The seed whose verified results expected.json pins.
PINNED_SEED = 0
#: Ambient settings that would change what is measured; every run (a
#: child of the all-workloads mode too) drops them before importing repro.
AMBIENT = ("REPRO_ENGINE", "REPRO_WORKERS", "REPRO_VERIFY")
#: Hard limit on one workload child in the all-workloads mode.
CHILD_TIMEOUT_S = 170
MIN_ROUNDS = 3
#: Times a run sets its workload up; ``setup_s`` is their mean.
SETUP_REPEATS = 2


def load_declared() -> dict[str, Any]:
    """BENCHMARK.json: the one list of workloads, metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def build_workloads(scratch: Path, live_scale: float | None = None) -> dict[str, Any]:
    """Every workload by name (imports the program under test).

    ``live_scale`` shrinks the live trace (the self-test's 300 requests).
    """
    for name in AMBIENT:
        os.environ.pop(name, None)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"nothing to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(1, str(ROOT / "src"))
    import live
    import sim
    import suite

    scale = live.LiveReplay.REQUEST_SCALE if live_scale is None else live_scale
    workloads = [sim.SimKernel(), sim.SimSweep(), sim.SimFallback(),
                 suite.SuiteCold(scratch), *live.build(scratch, scale)]
    return {workload.name: workload for workload in workloads}


def digest(pinned: Any) -> str:
    blob = json.dumps(pinned, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def run_rounds(workload: Any, clock: Any, seconds: float, min_rounds: int) -> tuple[int, int]:
    """Rounds until ``seconds`` have passed: (attempted, failed) operations.

    A round whose output differs from the verified one fails the
    operations that differ; a round that raises fails all of them and
    its partial samples are dropped.
    """
    attempted = failed = rounds = 0
    deadline = now() + seconds
    while rounds < min_rounds or now() < deadline:
        mark = clock.mark()
        try:
            ops, bad = workload.check(workload.round(clock))
        except Exception:
            traceback.print_exc()
            clock.rollback(mark)
            ops = bad = workload.ops_per_round
        attempted += ops
        failed += bad
        rounds += 1
    return attempted, failed


def measure(
    workload: Any, seed: int, seconds: float, trace: bool,
    declared: dict[str, Any], min_rounds: int = MIN_ROUNDS,
    setup_repeats: int = SETUP_REPEATS,
) -> tuple[dict[str, Any], set[str]]:
    """Set up, run and check one workload.

    Returns the result object to print and the names of the metrics this
    workload measured itself (the rest of the section reads 0).
    """
    calibration = harness.Calibration()
    try:
        setup = Clock(calibration)
        for _ in range(1 if trace else setup_repeats):
            workload.prepare(seed, setup)

        untraced = Clock(calibration)
        attempted, failed = run_rounds(
            workload, untraced, seconds / 2 if trace else seconds, min_rounds
        )
        if trace:
            traced = Clock(calibration, tracing=True)
            with traced.layer("bench.traced_pass"):
                ops, bad = run_rounds(workload, traced, seconds / 2, 1)
            attempted, failed = attempted + ops, failed + bad
            layers = workload.layer_metrics(
                setup, untraced, traced, Clock(calibration)
            )
    finally:
        calibration.close()

    problems = list(workload.problems)
    if seed == PINNED_SEED:
        pinned = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload.name]
        if digest(workload.pinned()) != pinned:
            problems.append(f"verified results differ from {EXPECTED.name}")
    for problem in problems:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    if problems:
        failed = attempted

    walls = untraced.round_walls()
    if walls:
        round_s = untraced.normalised_seconds()
    else:  # every round raised: there is no slice sample to estimate from
        round_s = seconds / max(1, attempted // workload.ops_per_round)
    q1, median, q3 = harness.quartiles(walls)
    calib_ref = untraced.speed() * harness.CALIBRATION_NOMINAL_S
    calib_spread = untraced.calibration_spread()
    values = {
        "requests_per_s": workload.requests_per_round / round_s,
        "round_s": round_s,
        "setup_s": setup.normalised_seconds(),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    print(f"{workload.name}: seed {seed}, round_s {round_s:.4f} s normalised "
          f"(raw q1/median/q3 {q1:.4f}/{median:.4f}/{q3:.4f} s over "
          f"{len(walls)} rounds), calib_ref {1e3 * calib_ref:.3f} ms over "
          f"{len(untraced.calibrations)} samples, calib_spread "
          f"{calib_spread:.3f}, failed_share {failed / attempted:.4f}")
    if hasattr(workload, "shape_failures") and workload.shape_failures():
        print(f"{workload.name}: shape checks fail on this seed's data in "
              f"{', '.join(workload.shape_failures())} (not a failed operation)")

    if trace:
        own = harness.self_times(traced.spans)
        root_wall = traced.spans[0]["end"] - traced.spans[0]["start"]
        values = layers
        values.update({
            "bench.calib_ref_s": calib_ref,
            "bench.calib_spread": calib_spread,
            "bench.rounds": float(len(walls)),
            "bench.raw_wall_s": median,
            "bench.raw_wall_q1_s": q1,
            "bench.raw_wall_q3_s": q3,
            "bench.trace_overhead_ratio":
                traced.normalised_seconds() / untraced.normalised_seconds(),
            "bench.trace_coverage": 1.0 - own[0] / root_wall,
        })
        span_path = OUT_DIR / f"{workload.name}.spans.jsonl"
        harness.write_spans(traced.spans, span_path)
        print(f"{workload.name}: {len(traced.spans)} spans -> "
              f"{span_path.relative_to(ROOT)}")

    section = declared["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    # A layer this workload never enters did no work here: it reads 0.
    metrics = {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in units.items()
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, set(values)


def run_one(args: argparse.Namespace, declared: dict[str, Any]) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}.", dir=OUT_DIR))
    try:
        workload = build_workloads(scratch)[args.workload]
        result, _ = measure(workload, args.seed, args.seconds, bool(args.trace),
                            declared)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def pin() -> int:
    """Rewrite expected.json from results verified at full size."""
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="pin.", dir=OUT_DIR))
    try:
        digests = {}
        for name, workload in build_workloads(scratch).items():
            workload.prepare(PINNED_SEED, Clock(), full_oracle=True)
            if workload.problems:
                print("\n".join(workload.problems), file=sys.stderr)
                return 1
            digests[name] = digest(workload.pinned())
            print(f"{name}: {digests[name]}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    EXPECTED.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    """One workload in a fresh interpreter; a crash or a hang is a result."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode == 0 and lines:
            print("\n".join(lines[:-1]))
            return json.loads(lines[-1])
        reason = f"exit code {done.returncode}"
    except subprocess.TimeoutExpired:
        reason = f"no result within {CHILD_TIMEOUT_S} s"
    print(f"{name}: child failed ({reason}); reported as failed_share = 1")
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_all(args: argparse.Namespace, declared: dict[str, Any]) -> int:
    names = [workload["name"] for workload in declared["workloads"]]
    results = {
        name: [run_child(name, args.seed, args.seconds, trace) for trace in (0, 1)]
        for name in names
    }
    width = max(len(name) for name in names) + 2
    for title, section, index in (("end-to-end", "end_to_end", 0),
                                  ("per-layer", "per_layer", 1)):
        print(f"\n== {title} metrics (seed {args.seed}) ==")
        print(" " * 44 + "".join(name.rjust(width) for name in names))
        rows = [(m["name"], m["unit"]) for m in declared[section]]
        for metric, unit in rows:
            cells = []
            for name in names:
                entry = results[name][index]["metrics"].get(metric)
                cells.append(("-" if entry is None else f"{entry['value']:.6g}")
                             .rjust(width))
            print(f"{metric:<36}{unit:>8}" + "".join(cells))
        if index == 0:
            shares = [
                results[name][0]["failed"] / results[name][0]["attempted"]
                for name in names
            ]
            print(f"{'failed_share':<36}{'share':>8}"
                  + "".join(f"{share:.6g}".rjust(width) for share in shares))
    ok = all(result["correct"] for pair in results.values() for result in pair)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json from seed 0, verified at full size")
    args = parser.parse_args()
    declared = load_declared()
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    if args.pin:
        return pin()
    if args.workload is None:
        return run_all(args, declared)
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args, declared)


if __name__ == "__main__":
    sys.exit(main())
