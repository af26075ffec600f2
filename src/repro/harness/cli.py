"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands map one-to-one onto the experiment registry, plus ``all`` to
run the full reproduction and ``list`` to enumerate experiments.

Examples
--------
::

    repro list
    repro fig2
    repro solver-table
    repro all
    repro trace --scenario fig4 --format chrome -o fig4.trace.json
    repro top --scenario workload --ops 100
    repro live --scenario fig3 --flight-recorder fig3.cex.json
    repro report
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.apps.figures import SCENARIOS
from repro.harness.experiments import EXPERIMENTS, run_experiment

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Implementing and Programming Causal "
            "Distributed Shared Memory' (ICDCS 1991).  Each subcommand "
            "regenerates one figure/table of the paper."
        ),
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    sub.add_parser(
        "explore",
        help="explore protocol schedule spaces (forwards to repro.mc)",
        add_help=False,
    )
    all_parser = sub.add_parser("all", help="run every experiment")
    all_parser.add_argument(
        "--save",
        metavar="PATH",
        default=None,
        help="write a JSON results store (see repro.analysis.results)",
    )
    all_parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="compare against a previously saved results store",
    )
    sub.add_parser(
        "report",
        help="run every experiment and print EXPERIMENTS.md markdown",
    )
    trace = sub.add_parser(
        "trace",
        help="run a traced scenario and export its causal trace",
    )
    trace.add_argument(
        "--scenario",
        default="fig4",
        choices=sorted(SCENARIOS),
        help="which paper scenario to run with tracing on (default: fig4)",
    )
    trace.add_argument(
        "--format",
        default="chrome",
        choices=["chrome", "dot", "json", "timeline"],
        help=(
            "chrome: Chrome trace_event JSON (chrome://tracing, Perfetto); "
            "dot: causal DAG as Graphviz; json: raw event records; "
            "timeline: human-readable per-node timeline (default: chrome)"
        ),
    )
    trace.add_argument(
        "--output", "-o",
        metavar="PATH",
        default=None,
        help="write to this file instead of stdout",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--limit",
        type=int,
        default=None,
        help="timeline format: show at most this many events",
    )
    monitor = sub.add_parser(
        "monitor",
        help="stream a scenario (or a trace file) through the online "
        "causal-consistency monitor",
    )
    monitor.add_argument(
        "--scenario",
        default="fig4",
        choices=sorted(SCENARIOS),
        help="live-attach: run this traced scenario with the monitor "
        "subscribed (default: fig4; ignored with --from-trace)",
    )
    monitor.add_argument(
        "--from-trace",
        metavar="PATH",
        default=None,
        help="replay an exported trace (repro trace --format json) "
        "through the monitor instead of running a scenario",
    )
    monitor.add_argument(
        "--procs",
        type=int,
        default=3,
        help="--from-trace: number of processes in the trace (default: 3)",
    )
    monitor.add_argument("--seed", type=int, default=0)
    monitor.add_argument(
        "--gc-interval",
        type=int,
        default=64,
        help="processed-op period of dominated-prefix GC (default: 64)",
    )
    monitor.add_argument(
        "--expect-violation",
        action="store_true",
        help="exit 0 iff the monitor flags a violation (CI: fig3 must "
        "flag, fig4 must pass)",
    )
    monitor.add_argument(
        "--counterexample",
        metavar="PATH",
        default=None,
        help="on violation, shrink the monitor's window to a replayable "
        "counterexample and write it here (live scenarios only)",
    )
    live = sub.add_parser(
        "live",
        help="run a scenario or workload on the live asyncio/socket "
        "runtime — same engines, real transport — and check it",
    )
    _add_live_run_arguments(live, scenario="fig3", ops=20, timeout=30.0)
    live.add_argument(
        "--differential",
        action="store_true",
        help="scenarios: also run under the simulator and compare "
        "checker + monitor verdicts (exit 1 on disagreement)",
    )
    live.add_argument(
        "--delta-stamps",
        action="store_true",
        help="frame messages through the wire codec (delta writestamps, "
        "full-stamp resync on reconnect)",
    )
    live.add_argument(
        "--plane",
        action="store_true",
        help="attach the telemetry plane: per-node shards streaming "
        "over the sideband, monitor riding the aggregated stream",
    )
    live.add_argument(
        "--flight-recorder",
        metavar="PATH",
        default=None,
        help="arm the flight recorder (implies --plane); on timeout/"
        "crash/monitor violation, dump a replayable counterexample here",
    )
    top = sub.add_parser(
        "top",
        help="live terminal dashboard: run a scenario or workload on the "
        "asyncio runtime with the telemetry plane attached and repaint "
        "ops/s, per-link bytes, queue depths, monitor verdict, latency",
    )
    _add_live_run_arguments(top, scenario="workload", ops=50, timeout=60.0)
    top.add_argument(
        "--interval", type=float, default=0.2,
        help="repaint period in seconds (default: 0.2)",
    )
    top.add_argument(
        "--plain",
        action="store_true",
        help="append panels instead of ANSI repaint (CI logs, pipes)",
    )
    for name, factory in sorted(EXPERIMENTS.items()):
        doc = (factory.__doc__ or "").strip().splitlines()
        help_text = doc[0] if doc else name
        sub.add_parser(name, help=help_text)
    return parser


def _add_live_run_arguments(parser, scenario: str, ops: int, timeout: float):
    """What to run on the asyncio runtime (``live`` and ``top`` alike)."""
    parser.add_argument(
        "--scenario",
        default=scenario,
        choices=sorted(SCENARIOS) + ["workload"],
        help="paper scenario, or 'workload' for the random Zipfian mix "
        f"(default: {scenario})",
    )
    parser.add_argument(
        "--transport",
        default="uds",
        choices=["uds", "tcp"],
        help="Unix-domain sockets or localhost TCP (default: uds)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--protocol",
        default="causal",
        help="workload only: protocol under test (default: causal)",
    )
    parser.add_argument(
        "--nodes", type=int, default=3, help="workload only (default: 3)"
    )
    parser.add_argument(
        "--ops", type=int, default=ops,
        help=f"workload only: ops per process (default: {ops})",
    )
    parser.add_argument(
        "--locations", type=int, default=4,
        help="workload only: distinct locations (default: 4)",
    )
    parser.add_argument(
        "--zipf", type=float, default=0.0,
        help="workload only: Zipf exponent for location choice "
        "(0 = uniform; default: 0)",
    )
    parser.add_argument(
        "--timeout", type=float, default=timeout,
        help=f"wall-clock deadline for the run (default: {timeout:g}s)",
    )


def _run_one(name: str, store=None) -> bool:
    started = time.perf_counter()
    report = run_experiment(name)
    elapsed = time.perf_counter() - started
    status = "PASS" if report.passed else "FAIL"
    print(f"[{report.exp_id}] {report.title}")
    print(f"status: {status}")
    # Wall time goes to stderr, so stdout compares byte for byte.
    print(f"[{report.exp_id}] {elapsed:.2f}s", file=sys.stderr)
    print()
    print(report.text)
    print()
    if store is not None:
        store.record(name, report.passed, report.data)
    return report.passed


def _cmd_trace(args) -> int:
    """Run one traced scenario and export its trace in the chosen format."""
    import json
    from pathlib import Path

    from repro.obs import (
        format_timeline,
        run_traced,
        to_causal_dag,
        to_chrome_trace,
        to_dot,
        validate_chrome_trace,
    )

    run = run_traced(args.scenario, seed=args.seed)
    events = list(run.collector)
    if args.format == "chrome":
        payload = to_chrome_trace(events)
        validate_chrome_trace(payload)
        text = json.dumps(payload, indent=2, sort_keys=True)
    elif args.format == "dot":
        text = to_dot(to_causal_dag(events))
    elif args.format == "json":
        text = json.dumps(run.collector.to_jsonable(), indent=2)
    else:
        text = format_timeline(events, limit=args.limit)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(
            f"{args.scenario}: {len(events)} events "
            f"({args.format}) -> {args.output}"
        )
    else:
        print(text)
    return 0


def _cmd_monitor(args) -> int:
    """Stream a scenario or trace through the online monitor."""
    from repro.monitor import CausalStreamMonitor, feed_trace
    from repro.obs.collector import TraceCollector

    if args.from_trace:
        monitor = CausalStreamMonitor(
            args.procs, gc_interval=args.gc_interval
        )
        result = feed_trace(monitor, args.from_trace)
        source = args.from_trace
        protocol = None
    else:
        from repro.obs.runs import run_traced

        collector = TraceCollector()
        monitor = CausalStreamMonitor(
            SCENARIOS[args.scenario].n_nodes,
            metrics=collector.metrics,
            gc_interval=args.gc_interval,
        )
        collector.subscribe(monitor.observe, category="proto", name="op.commit")
        run = run_traced(args.scenario, seed=args.seed, collector=collector)
        result = monitor.result()
        source = f"scenario {args.scenario}"
        protocol = run.protocol
    status = "CAUSAL" if result.ok else "VIOLATION"
    print(f"{source}: {status}")
    print(
        f"  {result.reads_checked} reads checked over "
        f"{result.ops_processed} ops; window peaked at "
        f"{result.max_window} ops, {result.gc_retired} GC-retired"
    )
    if not result.ok:
        print("  " + result.explain().replace("\n", "\n  "))
    if args.counterexample and not result.ok:
        if protocol is None:
            print("--counterexample needs a live scenario (window replay)")
            return 2
        from pathlib import Path

        from repro.monitor import violation_counterexample

        cex = violation_counterexample(monitor, protocol=protocol, seed=args.seed)
        if cex is None:
            print("counterexample search exhausted its budget")
            return 2
        cex.save(args.counterexample)
        print(
            f"counterexample ({cex.n_ops} ops, format v2) -> "
            f"{args.counterexample}"
        )
    if args.expect_violation:
        return 0 if not result.ok else 1
    return 0 if result.ok else 1


def _print_live_stats(outcome) -> None:
    print(
        f"  {outcome.total_messages} messages in {outcome.elapsed:.3f}s "
        f"({outcome.dropped_messages} dropped, {outcome.resyncs} resyncs, "
        f"{outcome.frames_rejected} frames rejected)"
    )
    print(
        f"  bytes: {outcome.model_bytes} wire-model, "
        f"{outcome.socket_bytes} on the socket "
        f"(x{outcome.socket_bytes / max(outcome.model_bytes, 1):.2f}) in "
        f"{outcome.socket_writes} writes "
        f"({outcome.total_messages / max(outcome.socket_writes, 1):.2f} "
        f"frames/write)"
    )


def _print_plane_stats(plane) -> None:
    agg = plane.aggregator
    print(
        f"  telemetry: {agg.events_merged} events over "
        f"{agg.frames_merged} frames merged "
        f"({agg.events_lost} events / {agg.frames_lost} frames lost)"
    )
    for gap in agg.gaps[-3:]:
        print(f"    gap: {gap}")


def _dump_flight(plane, path) -> None:
    """Dump the first recorded incident (if armed, and if any) as a
    replayable counterexample."""
    flight = plane.flight
    if flight is None or not flight.triggered:
        return
    reason, detail, _ring = flight.incidents[0]
    cex = flight.dump_to(path)
    if cex is None:
        print(
            f"  flight recorder: {reason} incident recorded, but the "
            f"reproduction search exhausted its budget"
        )
    else:
        print(
            f"  flight recorder: {reason} ({detail}) -> {path} "
            f"({cex.n_ops} ops, format v2, replayable)"
        )


def _live_outcome(args, plane, delta_stamps: bool, **observation):
    """``live`` / ``top``: run the chosen scenario or workload, monitored."""
    from repro.runtime import run_scenario_live, run_workload_live

    if args.scenario != "workload":
        return run_scenario_live(
            args.scenario, seed=args.seed, transport=args.transport,
            delta_stamps=delta_stamps, monitor=True, timeout=args.timeout,
            plane=plane, **observation,
        )
    from repro.apps.workload import WorkloadConfig

    config = WorkloadConfig(
        protocol=args.protocol,
        n_nodes=args.nodes,
        n_locations=args.locations,
        ops_per_proc=args.ops,
        seed=args.seed,
        delta_stamps=delta_stamps,
    )
    return run_workload_live(
        config, zipf=args.zipf, transport=args.transport, monitor=True,
        timeout=args.timeout, plane=plane, **observation,
    )


def _cmd_live(args) -> int:
    """Run a scenario/workload on the asyncio runtime; check the result."""
    from repro.checker import check_causal
    from repro.runtime.differential import (
        compare_live_verdicts,
        run_differential,
    )

    workload = args.scenario == "workload"
    if args.differential and not workload:
        result = run_differential(
            args.scenario, seed=args.seed, transport=args.transport,
            delta_stamps=args.delta_stamps, timeout=args.timeout,
        )
        print(result.explain())
        _print_live_stats(result.live_outcome)
        return 0 if result.equivalent else 1

    plane = None
    want_flight = bool(args.flight_recorder)
    if args.plane or want_flight:
        from repro.obs.plane import TelemetryPlane

        plane = TelemetryPlane()
    try:
        outcome = _live_outcome(
            args, plane, delta_stamps=args.delta_stamps, flight=want_flight
        )
    except Exception as error:
        if plane is None:
            raise
        print(f"{args.scenario} live run failed: {error}")
        _print_plane_stats(plane)
        _dump_flight(plane, args.flight_recorder)
        return 1
    offline = check_causal(outcome.history)
    status = "CAUSAL" if offline.ok else "VIOLATION"
    if workload:
        print(
            f"workload ({args.protocol}, {args.nodes} nodes x {args.ops} "
            f"ops, zipf={args.zipf}, {args.transport}): {status}"
        )
    else:
        print(f"{args.scenario} live ({args.transport}): {status}")
    _print_live_stats(outcome)
    if plane is not None:
        _print_plane_stats(plane)
        _dump_flight(plane, args.flight_recorder)
    expected = True
    if workload:
        mismatches: List[str] = []
        compare_live_verdicts(
            outcome.history, outcome.monitor_result,
            outcome.online_verdicts, mismatches,
        )
        if mismatches:
            print("  monitor/checker DISAGREEMENT:")
            for item in mismatches:
                print(f"    - {item}")
            return 1
        print("  online monitor agrees with the offline checker")
        if args.protocol != "causal":
            return 0  # the other protocols promise no causal verdict
    else:
        expected = SCENARIOS[args.scenario].expect_causal
    if not offline.ok:
        print("  " + offline.explain().replace("\n", "\n  "))
    return 0 if offline.ok == expected else 1


def _cmd_top(args) -> int:
    """Live dashboard: run under the telemetry plane, repaint, verdict."""
    from repro.checker import check_causal
    from repro.obs.plane import Dashboard, TelemetryPlane

    plane = TelemetryPlane()
    plane.dashboard = Dashboard(interval=args.interval, plain=args.plain)
    workload = args.scenario == "workload"
    options = {"sample_latencies": True} if workload else {}
    outcome = _live_outcome(args, plane, delta_stamps=workload, **options)
    expected = True if workload else SCENARIOS[args.scenario].expect_causal
    offline = check_causal(outcome.history)
    status = "CAUSAL" if offline.ok else "VIOLATION"
    print(f"\n{args.scenario} ({args.transport}): {status}")
    _print_live_stats(outcome)
    _print_plane_stats(plane)
    return 0 if offline.ok == expected else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "explore":
        # Forwarded verbatim: repro.mc owns the flag set, and argparse's
        # REMAINDER cannot pass through leading `--options` faithfully.
        from repro.mc.__main__ import main as mc_main

        return mc_main(["explore", *argv[1:]])
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        print("available experiments:")
        for name, factory in sorted(EXPERIMENTS.items()):
            doc = (factory.__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"  {name:20s} {summary}")
        print("  all                  run every experiment")
        return 0
    if args.command == "report":
        from repro.harness.experiments import generate_markdown_report

        print(generate_markdown_report())
        return 0
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "monitor":
        return _cmd_monitor(args)
    if args.command == "live":
        return _cmd_live(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "all":
        from repro.analysis.results import ResultsStore

        store = ResultsStore()
        failures = [
            name
            for name in sorted(EXPERIMENTS)
            if not _run_one(name, store=store)
        ]
        if args.save:
            store.save(args.save)
            print(f"results written to {args.save}")
        if args.baseline:
            deltas = store.compare(ResultsStore.load(args.baseline))
            if deltas:
                print(f"{len(deltas)} drift(s) vs baseline:")
                for delta in deltas:
                    print(f"  {delta}")
            else:
                print("no drift vs baseline")
        if failures:
            print(f"FAILED experiments: {', '.join(failures)}")
            return 1
        print("all experiments passed")
        return 0
    return 0 if _run_one(args.command) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
