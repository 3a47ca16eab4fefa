"""The ``repro`` command-line tool.

The subcommands cover the workflows a downstream user has:

* ``repro synthesize`` — generate a synthetic campus/Worrell trace and
  write it to disk as an extended Common-Log-Format file.
* ``repro stats`` — compute Table-1-style mutability statistics from an
  extended CLF file (yours or a synthesized one).
* ``repro simulate`` — drive one consistency protocol over a trace file
  and report bandwidth / miss / stale / server-load numbers.
* ``repro sweep`` — sweep a protocol parameter over a trace file and
  print the trade-off table.
* ``repro profile`` — run a reduced-scale sweep with profiling on and
  print the engine phase breakdown plus per-protocol-hook self-time.
* ``repro metrics`` — render a ``--metrics`` JSON dump (pretty JSON or
  Prometheus 0.0.4 text exposition).
* ``repro lint`` — run the :mod:`repro.lint` static invariant analysis
  over a source tree (see docs/DEVELOPING.md for the checker codes).
* ``repro replay`` — replay a trace through the live asyncio
  origin+proxy pair (:mod:`repro.live`) on loopback sockets;
  ``--verify`` additionally simulates the same trace and fails unless
  every counter and bandwidth-ledger cell matches exactly
  (``docs/LIVE.md``).
* ``repro serve`` — boot the live origin and proxy on fixed ports and
  leave them running for ad-hoc exploration (curl, browsers).
* ``repro trace`` — merge the per-role JSONL trace files a traced live
  replay wrote (``repro replay --trace PATH``) into one validated
  causal timeline (schema ``repro.trace/2``), and analyze it:
  ``merge`` / ``summarize`` / ``grep`` / ``critical-path``
  (``docs/OBSERVABILITY.md``).

``simulate`` and ``sweep`` accept ``--trace PATH`` / ``--metrics PATH``
to capture a structured event trace and the merged metrics registry
(``docs/OBSERVABILITY.md``); both are byte-identical across worker
counts.  ``simulate``, ``sweep``, and ``profile`` also accept
``--engine fast|reference`` to pick the simulator engine
(``docs/FASTPATH.md``); output is byte-identical either way.

Examples::

    repro synthesize hcs /tmp/hcs.log --seed 7
    repro stats /tmp/hcs.log
    repro simulate /tmp/hcs.log --protocol alex --parameter 10
    repro sweep /tmp/hcs.log --protocol ttl --workers 4

``sweep`` runs its points through the :mod:`repro.runtime` process-pool
engine: ``--workers N`` (or the ``REPRO_WORKERS`` environment variable)
fans them out with identical output; see ``docs/PERFORMANCE.md``.

The ``simulate``/``sweep`` commands reconstruct the origin server's
modification schedules from the trace's Last-Modified extension: a
modification is materialized at each observed Last-Modified transition.
Changes invisible to the log (never straddled by requests) cannot be
recovered — the same limitation the paper's own methodology has.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator, Optional, Sequence

from repro.analysis.report import format_table, pct
from repro.analysis.sweep import sweep_protocol
from repro.core.protocols.base import ConsistencyProtocol
from repro.core.protocols.factory import PROTOCOLS, build_protocol
from repro.core.results import SimulationResult
from repro.core.simulator import SimulatorMode
from repro.fastpath import ENGINES, FAST, REFERENCE, resolve_engine, set_engine
from repro.faults import FaultPlan, FaultSpec, parse_faults
from repro import obs
from repro.obs import clock as obs_clock
from repro.obs import profile as obs_profile
from repro.obs import prom as obs_prom
from repro.obs import registry as obs_registry
from repro.verify import (
    ConsistencyViolation,
    checked_simulate,
    counted_runs,
    set_enabled,
)
from repro.trace.reconstruct import server_from_trace, workload_from_trace
from repro.trace.records import Trace
from repro.trace.stats import mutability_from_trace
from repro.trace.synthesis import read_trace, trace_from_workload, write_trace
from repro.workload.base import Workload
from repro.workload.campus import CAMPUS_SERVERS, CampusWorkload
from repro.workload.worrell import WorrellWorkload

_CAMPUS_BY_NAME = {spec.name.lower(): spec for spec in CAMPUS_SERVERS}


# -- observability plumbing ---------------------------------------------------


def apply_run_flags(args: argparse.Namespace) -> None:
    """Apply ``--engine`` / ``--verify`` (where the command has them).

    Must precede anything that forks: both setters mirror the choice
    into the environment (``REPRO_ENGINE`` / ``REPRO_VERIFY``), so pool
    workers resolve the same engine and oracle-check their own tasks.
    """
    if getattr(args, "engine", None):
        set_engine(args.engine)
    if getattr(args, "verify", False):
        set_enabled(True)


@contextmanager
def _checked(
    args: argparse.Namespace, faults_spec: Optional[FaultSpec]
) -> Iterator[SimpleNamespace]:
    """The scope ``simulate`` / ``sweep`` run their simulations in: the
    run flags, the ``--metrics`` / ``--trace`` session, and a count of
    the runs the oracle verifies.

    A divergence is reported with that count and the fault spec in
    effect, and sets ``diverged`` on the yielded namespace (exit 1 is
    the caller's); a clean ``--verify`` run reports the count.  All on
    stderr, like the trace/metrics notices: the result table on stdout
    stays byte-identical with and without ``--verify``.
    """
    apply_run_flags(args)
    outcome = SimpleNamespace(diverged=False)
    with obs.session(args.metrics_out, args.trace_out):
        try:
            with counted_runs() as verified:
                yield outcome
        except ConsistencyViolation as exc:
            outcome.diverged = True
            print(exc, file=sys.stderr)
            print(
                f"oracle: {verified()} run(s) verified before the "
                "divergence",
                file=sys.stderr,
            )
            if faults_spec is not None:
                print(
                    f"oracle: fault spec in effect: {args.faults!r} "
                    f"(retries={faults_spec.retries}, "
                    f"loss_rate={faults_spec.loss_rate:g}, "
                    f"delay={faults_spec.delay:g}s)",
                    file=sys.stderr,
                )
    if args.verify and not outcome.diverged:
        print(f"oracle: {verified()} run(s) verified, zero divergence",
              file=sys.stderr)


def _print_result(result: SimulationResult, title: str) -> None:
    """The one-row result table ``simulate`` and ``replay`` print."""
    print(format_table(
        ("protocol", "mode", "bandwidth MB", "miss rate", "stale rate",
         "server ops", "round trips/request"),
        [(
            result.protocol_name,
            result.mode,
            f"{result.total_megabytes:.3f}",
            pct(result.miss_rate),
            pct(result.stale_hit_rate),
            result.server_operations,
            f"{result.counters.mean_round_trips:.3f}",
        )],
        title=title,
    ))


def _positive_int(text: str) -> int:
    """argparse type of ``--step``: a non-positive step is an empty (or
    never-ending) grid, so it is a usage error, not a run."""
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return int(text)


def _step_grid(
    args: argparse.Namespace, alex_step: int, ttl_step: int
) -> list[float]:
    """The ``--step`` parameter grid of ``sweep`` / ``profile``: Alex
    thresholds 0-100 % or TTLs 0-500 h, at the command's default step
    unless ``--step`` overrides it."""
    if args.protocol == "alex":
        return [float(p) for p in range(0, 101, args.step or alex_step)]
    return [float(p) for p in range(0, 501, args.step or ttl_step)]


def _add_engine_flag(
    parser: argparse.ArgumentParser, default: Optional[str] = None
) -> None:
    """The shared ``--engine`` selection flag.

    ``None`` (the usual default) leaves resolution to
    :func:`repro.fastpath.resolve_engine` — ``REPRO_ENGINE`` if set,
    else the fast engine.  ``repro profile`` defaults to ``reference``
    instead, because the per-hook self-time table only exists when the
    reference loop calls the protocol hooks.
    """
    parser.add_argument(
        "--engine", default=default, choices=list(ENGINES),
        help="simulator engine: 'fast' (batched repro.fastpath kernel, "
             "byte-identical output, automatic reference fallback for "
             "unsupported configurations) or 'reference' "
             "(repro.core.simulator throughout); default: $REPRO_ENGINE, "
             "else fast — see docs/FASTPATH.md"
             + (" (this subcommand defaults to reference)" if default
                else ""),
    )


def _add_obs_flags(
    parser: argparse.ArgumentParser,
    trace_help: str = "write a structured JSONL trace of every simulator "
                      "event and engine span to PATH (schema repro.trace/1; "
                      "see docs/OBSERVABILITY.md)",
) -> None:
    """The shared ``--trace`` / ``--metrics`` output flags.

    ``trace_help`` is for the one command whose ``--trace`` writes
    something else (``replay``: per-role live trace files)."""
    parser.add_argument(
        "--trace", dest="trace_out", type=Path, default=None, metavar="PATH",
        help=trace_help,
    )
    parser.add_argument(
        "--metrics", dest="metrics_out", type=Path, default=None,
        metavar="PATH",
        help="write the merged metrics registry as JSON to PATH "
             "(schema repro.metrics/1; render with 'repro metrics')",
    )


# -- subcommand implementations -----------------------------------------------


def cmd_synthesize(args: argparse.Namespace) -> int:
    """Generate a trace and write it as extended CLF."""
    name = args.workload.lower()
    if name in _CAMPUS_BY_NAME:
        workload = CampusWorkload(
            _CAMPUS_BY_NAME[name], seed=args.seed,
            request_scale=args.scale,
        ).build()
    elif name == "worrell":
        workload = WorrellWorkload(
            files=max(10, int(2085 * args.scale)),
            requests=max(100, int(100_000 * args.scale)),
            seed=args.seed,
        ).build()
    else:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join([*_CAMPUS_BY_NAME, 'worrell'])}",
              file=sys.stderr)
        return 2
    trace = trace_from_workload(workload)
    lines = write_trace(trace, args.output)
    print(f"wrote {lines} records ({workload.file_count} objects, "
          f"{workload.total_changes} modifications) to {args.output}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Print Table-1-style statistics for a trace file."""
    trace = read_trace(args.trace)
    stats = mutability_from_trace(trace)
    print(format_table(
        ("Server", "Files", "Requests", "% Remote", "Total Changes",
         "% Mutable", "% Very Mutable"),
        [stats.as_row()],
        title=f"observable mutability statistics for {args.trace}:",
    ))
    days = trace.duration / 86_400 if trace.duration else 0.0
    if days and stats.files:
        prob = stats.total_changes / (stats.files * days)
        print(f"\nper-file per-day observed change probability: "
              f"{100 * prob:.2f}% over {days:.1f} days")
    return 0


def _simulate_trace(
    trace: Trace,
    protocol: ConsistencyProtocol,
    mode: SimulatorMode,
    faults_spec: Optional[FaultSpec] = None,
):
    workload = workload_from_trace(trace)
    return checked_simulate(
        workload.server(), protocol, workload.requests, mode,
        end_time=workload.duration, faults=_fault_plan(faults_spec, workload),
    )


def _parse_faults_arg(args: argparse.Namespace) -> Optional[FaultSpec]:
    """Parse ``--faults`` off a namespace (absent attribute = no faults).

    Raises:
        ValueError: for a malformed spec (message names the bad field).
    """
    text = getattr(args, "faults", None)
    return parse_faults(text) if text else None


def _fault_plan(
    spec: Optional[FaultSpec], workload: Workload
) -> Optional[FaultPlan]:
    """The spec's plan for ``workload``: unanchored downtime/crash times
    resolve against the reconstructed workload's duration."""
    return spec.build(workload.duration) if spec is not None else None


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one protocol over a trace file and print its metrics."""
    trace = read_trace(args.trace)
    try:
        protocol = build_protocol(args.protocol, args.parameter)
        faults_spec = _parse_faults_arg(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    with _checked(args, faults_spec) as run:
        result = _simulate_trace(
            trace, protocol, SimulatorMode(args.mode), faults_spec
        )
    if run.diverged:
        return 1
    _print_result(result, f"{args.trace}: {len(trace)} requests")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Sweep a protocol parameter over a trace file."""
    trace = read_trace(args.trace)
    try:
        faults_spec = _parse_faults_arg(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    mode = SimulatorMode(args.mode)
    # One reconstruction serves every sweep point.
    workload = workload_from_trace(trace)
    with _checked(args, faults_spec) as run:
        # Sweep points (and the invalidation baseline) are independent;
        # the engine fans them out across its process pool (serial for
        # --workers 1, identical output either way).
        sweep = sweep_protocol(
            [workload],
            lambda parameter: build_protocol(args.protocol, parameter),
            _step_grid(args, 10, 50),
            mode,
            family=args.protocol,
            workers=args.workers,
            faults=_fault_plan(faults_spec, workload),
        )
    if run.diverged:
        return 1
    # One workload per point, so the "averaged" metrics are its own.
    rows = [(point.parameter, point.metrics) for point in sweep.points]
    rows.append(("inval", sweep.invalidation))
    unit = "threshold %" if args.protocol == "alex" else "TTL hours"
    print(format_table(
        (unit, "MB", "miss", "stale", "server ops"),
        [
            (label, f"{m['total_mb']:.3f}", pct(m["miss_rate"]),
             pct(m["stale_hit_rate"]), round(m["server_operations"]))
            for label, m in rows
        ],
        title=f"{args.protocol} sweep over {args.trace} ({mode.value} mode):",
    ))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile a reduced-scale sweep: engine phases + protocol hook time."""
    apply_run_flags(args)
    engine = resolve_engine()
    parameters = _step_grid(args, 20, 100)
    workload = WorrellWorkload(
        files=max(10, int(2085 * args.scale)),
        requests=max(100, int(100_000 * args.scale)),
        seed=args.seed,
    ).build()

    # Under the fast engine the protocol stays bare: the batched kernel
    # never calls the per-request hooks (there is nothing for a
    # ProfiledProtocol wrapper to time — and the wrapper would force a
    # reference fallback anyway).  The phase table shows the fast path's
    # own fastpath.compile / fastpath.simulate phases instead.
    def profiled_protocol(parameter: float) -> ConsistencyProtocol:
        protocol = build_protocol(args.protocol, parameter)
        if engine == FAST:
            return protocol
        return obs_profile.ProfiledProtocol(protocol)

    obs_profile.reset()
    obs_profile.enable()
    try:
        started = obs_clock.monotonic()
        sweep_protocol(
            [workload],
            profiled_protocol,
            parameters,
            SimulatorMode(args.mode),
            family=args.protocol,
            include_invalidation=False,
            workers=args.workers,
        )
        total_wall = obs_clock.monotonic() - started
    finally:
        obs_profile.disable()
    print(
        f"{args.protocol} sweep, {len(parameters)} grid point(s), "
        f"scale {args.scale:g}, seed {args.seed}, engine {engine}:"
    )
    print()
    print(obs_profile.render_report(total_wall))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Render a ``--metrics`` dump (JSON pretty-print or Prometheus)."""
    try:
        dump = json.loads(args.dump.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"{args.dump}: {exc}", file=sys.stderr)
        return 2
    if args.format == "prom":
        try:
            rendered = obs_prom.render(dump)
        except ValueError as exc:
            print(f"{args.dump}: {exc}", file=sys.stderr)
            return 2
        sys.stdout.write(rendered)
    else:
        if dump.get("schema") != obs_registry.SCHEMA:
            print(
                f"{args.dump}: not a {obs_registry.SCHEMA} dump "
                f"(schema={dump.get('schema')!r})",
                file=sys.stderr,
            )
            return 2
        print(json.dumps(dump, indent=2, sort_keys=True))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Merge and analyze the per-role trace files of a traced live replay.

    All verbs start from the driver's trace file (``repro replay
    --trace PATH``) and locate the ``.proxy`` / ``.origin`` companions
    automatically.  ``merge`` prints the ``repro.trace/2`` timeline and
    exits 1 when a happens-before edge is violated; ``summarize``,
    ``grep``, and ``critical-path`` are read-only analyses over the
    merged timeline.
    """
    from repro.obs import timeline

    try:
        merged = timeline.merge(args.trace)
    except (OSError, ValueError) as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2
    violations = timeline.validate(merged)
    verb = args.trace_command
    if verb == "merge":
        if args.format == "json":
            merged["violations"] = violations
            print(json.dumps(merged, sort_keys=True))
        else:
            print(
                f"{len(merged['records'])} record(s) merged from "
                f"{len(merged['roles'])} role file(s):"
            )
            for proc, name in sorted(merged["roles"].items()):
                print(f"  {proc}: {name}")
        for violation in violations:
            print(f"trace: violation: {violation}", file=sys.stderr)
        return 1 if violations else 0
    if verb == "summarize":
        summary = timeline.summarize(merged)
        if args.format == "json":
            print(json.dumps(summary, sort_keys=True))
            return 0
        print(format_table(
            ("span", "count", "total s", "mean s", "max s"),
            [
                (
                    name,
                    entry["count"],
                    f"{entry['wall_total']:.6f}",
                    f"{entry['wall_mean']:.6f}",
                    f"{entry['wall_max']:.6f}",
                )
                for name, entry in sorted(summary["spans"].items())
            ],
            title=f"{args.trace}: {summary['exchanges']} exchange(s)",
        ))
        for kind, count in sorted(summary["marks"].items()):
            print(f"mark {kind}: {count}")
        print(f"retries: {summary['retries']}  "
              f"chaos injected: {summary['chaos_injected']}")
        ages = summary["hit_ages"]
        if ages["count"]:
            print(f"hit age-at-delivery (sim s): n={ages['count']} "
                  f"min={ages['min']:g} mean={ages['mean']:g} "
                  f"max={ages['max']:g}")
        return 0
    if verb == "grep":
        matched = timeline.grep(
            merged,
            trace=args.trace_id,
            object_id=args.object,
            kind=args.kind,
        )
        for record in matched:
            print(json.dumps(record, sort_keys=True))
        return 0
    assert verb == "critical-path"
    try:
        critical = timeline.critical_path(merged, trace=args.trace_id)
    except ValueError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(critical, sort_keys=True))
        return 0
    print(f"slowest exchange: trace {critical['trace']} "
          f"({critical['object']} at t={critical['t']}, "
          f"{critical['verdict']}) — {critical['wall']:.6f}s")
    for name, wall in sorted(critical["phases"].items()):
        print(f"  {name}: {wall:.6f}s")
    print(f"  unattributed: {critical['unattributed']:.6f}s")
    print(f"  (origin service, inside upstream: "
          f"{critical['origin_wall']:.6f}s)")
    print(f"  retries: {critical['retries']}  "
          f"chaos injected: {critical['chaos_injected']}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a trace through the live origin+proxy pair."""
    from repro.live import (
        LiveReplayError,
        live_vs_sim,
        parse_chaos,
        run_replay,
    )

    trace = read_trace(args.trace)
    try:
        protocol = build_protocol(args.protocol, args.parameter)
        chaos = parse_chaos(args.chaos) if args.chaos else None
        faults_spec = _parse_faults_arg(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    mode = SimulatorMode(args.mode)
    workload = workload_from_trace(trace)
    options = dict(
        end_time=workload.duration,
        connections=args.connections,
        keepalive=args.keepalive,
        chaos=chaos,
        faults=_fault_plan(faults_spec, workload),
        journal_path=args.journal,
        trace_path=args.trace_out,
        crash_after=args.crash_after,
    )
    report = None
    # --trace went to the live stack above (per-role files, as the
    # flag's help says): the single-process sink obs.session installs
    # would only ever see the driver.
    with obs.session(args.metrics_out, None):
        try:
            if args.verify:
                result, _sim_result, report = live_vs_sim(
                    workload.server(),
                    lambda: build_protocol(args.protocol, args.parameter),
                    workload.requests,
                    mode,
                    **options,
                )
            else:
                result = asyncio.run(run_replay(
                    workload.server(), protocol, workload.requests, mode,
                    **options,
                )).result
        except LiveReplayError as exc:
            print(f"replay: {exc}", file=sys.stderr)
            return 2
        except ConsistencyViolation as exc:
            print(exc, file=sys.stderr)
            return 1
    if args.trace_out is not None:
        from repro.obs.timeline import role_trace_paths

        names = ", ".join(
            str(p) for p in role_trace_paths(args.trace_out).values()
        )
        print(f"trace: wrote per-role files {names}", file=sys.stderr)
    _print_result(result, f"{args.trace}: {len(trace)} requests replayed live")
    if report is not None:
        print(
            f"live-vs-sim: {report.counters_checked} counters + "
            f"{report.ledger_cells_checked} ledger cells + "
            f"{report.events_checked} events identical",
            file=sys.stderr,
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the live origin and proxy and serve until interrupted."""
    from repro.live import LiveOrigin, LiveProxy

    trace = read_trace(args.trace)
    try:
        protocol = build_protocol(args.protocol, args.parameter)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    mode = SimulatorMode(args.mode)
    server = server_from_trace(trace)

    async def serve() -> None:
        origin = LiveOrigin(server)
        await origin.start(args.host, args.origin_port)
        proxy = LiveProxy(origin.host, origin.port, protocol, mode)
        await proxy.start(args.host, args.proxy_port)
        print(f"origin: http://{origin.host}:{origin.port}/ "
              f"({len(server.object_ids())} objects)")
        print(f"proxy:  http://{proxy.host}:{proxy.port}/ "
              f"({protocol.name}, {mode.value} mode)")
        print("control endpoints under /.well-known/repro/ "
              "(population, feed, stats, finish); Ctrl-C stops.")
        try:
            await asyncio.Event().wait()
        finally:
            await proxy.close()
            await origin.close()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("stopped", file=sys.stderr)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Forward to the :mod:`repro.lint` CLI (``repro lint [...]``)."""
    from repro.lint.cli import main as lint_main

    forwarded = args.lint_args
    if forwarded and forwarded[0] == "--":
        forwarded = forwarded[1:]
    return lint_main(forwarded)


def make_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Web cache-consistency simulation toolkit "
                    "(Gwertzman & Seltzer, USENIX 1996).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize",
                           help="generate a synthetic trace file")
    p_syn.add_argument("workload",
                       help="das, fas, hcs, or worrell")
    p_syn.add_argument("output", type=Path, help="output .log path")
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--scale", type=float, default=1.0)
    p_syn.set_defaults(func=cmd_synthesize)

    p_stats = sub.add_parser("stats",
                             help="mutability statistics from a trace")
    p_stats.add_argument("trace", type=Path)
    p_stats.set_defaults(func=cmd_stats)

    p_sim = sub.add_parser("simulate",
                           help="run one protocol over a trace")
    p_sim.add_argument("trace", type=Path)
    p_sim.add_argument("--protocol", default="alex",
                       choices=list(PROTOCOLS))
    p_sim.add_argument("--parameter", type=float, default=10.0,
                       help="alex/selftuning: threshold %%; ttl/leased: "
                            "hours; cern: LM fraction %%")
    p_sim.add_argument("--mode", default="optimized",
                       choices=[m.value for m in SimulatorMode])
    p_sim.add_argument(
        "--verify", action="store_true",
        help="replay the run through the repro.verify consistency "
             "oracle and fail on any counter/bandwidth divergence",
    )
    p_sim.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject delivery faults, e.g. "
             "'loss=0.05,downtime=2h,retries=3' (see docs/FAULTS.md)",
    )
    _add_engine_flag(p_sim)
    _add_obs_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep",
                             help="sweep alex/ttl parameters over a trace")
    p_sweep.add_argument("trace", type=Path)
    p_sweep.add_argument("--protocol", default="alex",
                         choices=["alex", "ttl"])
    p_sweep.add_argument("--step", type=_positive_int, default=None,
                         help="grid step (default: 10 for alex, 50 for ttl)")
    p_sweep.add_argument("--mode", default="optimized",
                         choices=[m.value for m in SimulatorMode])
    p_sweep.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool size for the sweep points (default: "
             "$REPRO_WORKERS, else 1 = serial; output is identical "
             "either way — see docs/PERFORMANCE.md)",
    )
    p_sweep.add_argument(
        "--verify", action="store_true",
        help="oracle-check every sweep point (workers inherit the flag; "
             "see docs/PROTOCOLS.md 'Invariants & verification')",
    )
    p_sweep.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject the same delivery faults into every sweep point "
             "(see docs/FAULTS.md)",
    )
    _add_engine_flag(p_sweep)
    _add_obs_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_prof = sub.add_parser(
        "profile",
        help="profile a reduced-scale sweep: engine phase breakdown plus "
             "per-protocol-hook self-time",
    )
    p_prof.add_argument("--protocol", default="alex",
                        choices=["alex", "ttl"])
    p_prof.add_argument("--scale", type=float, default=0.05,
                        help="workload scale factor (default 0.05 — "
                             "profiling wants a quick run)")
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--step", type=_positive_int, default=None,
                        help="grid step (default: 20 for alex, 100 for ttl)")
    p_prof.add_argument("--mode", default="optimized",
                        choices=[m.value for m in SimulatorMode])
    p_prof.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool size; >1 exercises the fork/dispatch/harvest/"
             "reassembly phases, 1 the serial phase",
    )
    _add_engine_flag(p_prof, default=REFERENCE)
    p_prof.set_defaults(func=cmd_profile)

    p_met = sub.add_parser(
        "metrics",
        help="render a --metrics JSON dump (pretty JSON or Prometheus "
             "0.0.4 text exposition)",
    )
    p_met.add_argument("dump", type=Path, help="a repro.metrics/1 JSON file")
    p_met.add_argument("--format", default="json",
                       choices=["json", "prom"])
    p_met.set_defaults(func=cmd_metrics)

    p_trace = sub.add_parser(
        "trace",
        help="merge and analyze the per-role trace files a traced live "
             "replay wrote (docs/OBSERVABILITY.md)",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    def _trace_verb(name: str, help_text: str) -> argparse.ArgumentParser:
        verb = trace_sub.add_parser(name, help=help_text)
        verb.add_argument(
            "trace", type=Path,
            help="the driver trace file from 'repro replay --trace' "
                 "(.proxy/.origin companions are located automatically)",
        )
        verb.add_argument("--format", default="json",
                          choices=["json", "text"])
        verb.set_defaults(func=cmd_trace)
        return verb

    _trace_verb(
        "merge",
        "print the merged repro.trace/2 timeline; exit 1 on any "
        "happens-before violation (send≤recv, commit≤reply)",
    )
    _trace_verb(
        "summarize",
        "span counts and wall times, mark counts, retry/chaos totals, "
        "and the HIT age-at-delivery distribution",
    )
    p_tgrep = _trace_verb(
        "grep", "filter merged records by trace id, object, and/or kind"
    )
    p_tcrit = _trace_verb(
        "critical-path",
        "decompose the slowest exchange (or --trace-id) into proxy "
        "phase spans",
    )
    for verb_parser in (p_tgrep, p_tcrit):
        verb_parser.add_argument(
            "--trace-id", default=None, metavar="ID",
            help="an exchange's propagated id, e.g. r17",
        )
    p_tgrep.add_argument(
        "--object", default=None, metavar="PATH",
        help="filter to records about one object, e.g. /a",
    )
    p_tgrep.add_argument(
        "--kind", default=None, metavar="NAME",
        help="filter to one mark kind / span name / event kind, e.g. "
             "live.trace.retry",
    )

    p_replay = sub.add_parser(
        "replay",
        help="replay a trace through the live asyncio origin+proxy pair "
             "on loopback sockets (docs/LIVE.md)",
    )
    p_replay.add_argument("trace", type=Path)
    p_replay.add_argument("--protocol", default="alex",
                          choices=list(PROTOCOLS))
    p_replay.add_argument("--parameter", type=float, default=10.0,
                          help="alex/selftuning: threshold %%; ttl/leased: "
                               "hours; cern: LM fraction %%")
    p_replay.add_argument("--mode", default="optimized",
                          choices=[m.value for m in SimulatorMode])
    p_replay.add_argument(
        "--verify", action="store_true",
        help="also simulate the same trace and fail unless every counter, "
             "bandwidth-ledger cell and per-object event multiset matches "
             "the live run exactly",
    )
    p_replay.add_argument(
        "--connections", type=int, default=1,
        help="size of the driver's connection pool (default 1: serial "
             "replay; requests for distinct objects interleave when >1; "
             "a one-key replay — selftuning, --faults — is one bucket "
             "on one socket whatever N)",
    )
    p_replay.add_argument(
        "--keepalive", action="store_true",
        help="reuse driver connections across requests "
             "(Connection: keep-alive)",
    )
    p_replay.add_argument(
        "--chaos", metavar="SPEC",
        help="socket-level fault plan, e.g. "
             "'loss=0.2,reset=0.1,truncate=0.2,dribble=0.5,delay=0.005,"
             "seed=3,cap=3' (docs/FAULTS.md)",
    )
    p_replay.add_argument(
        "--faults", metavar="SPEC",
        help="invalidation-message fault plan shared with "
             "'repro simulate', e.g. 'downtime=2h@50h,delay=30s,seed=3' "
             "(composes with every other option; docs/FAULTS.md)",
    )
    p_replay.add_argument(
        "--journal", type=Path,
        help="journal committed proxy transactions to this file "
             "(append-only JSONL; a restarted proxy re-warms from it)",
    )
    p_replay.add_argument(
        "--crash-after", type=int, metavar="N",
        help="run the proxy out of process, SIGKILL it after N completed "
             "requests, restart it from --journal, and reconcile",
    )
    _add_obs_flags(
        p_replay,
        trace_help="trace the live exchange across processes: write one "
                   "JSONL file per role (schema repro.trace/1) — the "
                   "driver's to PATH, the proxy's and the origin's to its "
                   ".proxy / .origin companions — to be joined with 'repro "
                   "trace merge PATH' (docs/OBSERVABILITY.md)",
    )
    p_replay.set_defaults(func=cmd_replay)

    p_serve = sub.add_parser(
        "serve",
        help="boot the live origin+proxy on fixed ports for ad-hoc "
             "exploration (docs/LIVE.md)",
    )
    p_serve.add_argument("trace", type=Path,
                         help="trace file defining the served population")
    p_serve.add_argument("--protocol", default="alex",
                         choices=list(PROTOCOLS))
    p_serve.add_argument("--parameter", type=float, default=10.0)
    p_serve.add_argument("--mode", default="optimized",
                         choices=[m.value for m in SimulatorMode])
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--origin-port", type=int, default=8097,
                         help="origin port (default 8097; 0 = ephemeral)")
    p_serve.add_argument("--proxy-port", type=int, default=8098,
                         help="proxy port (default 8098; 0 = ephemeral)")
    p_serve.set_defaults(func=cmd_serve)

    p_lint = sub.add_parser(
        "lint",
        help="run the static invariant linter (RPR001-RPR007)",
    )
    p_lint.add_argument(
        "lint_args", nargs=argparse.REMAINDER, metavar="...",
        help="arguments forwarded to repro-lint (try 'repro lint -- "
             "--list-codes')",
    )
    p_lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
