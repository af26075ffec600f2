"""Command-line front end: ``python -m repro.mc``.

Subcommands
-----------
``explore``
    Explore a program's schedule space and report (optionally saving the
    first shrunk counterexample as JSON).  Programs come from a preset
    (``--program``, any key of ``PRESETS``) or the seeded random generator.
``replay``
    Re-execute a saved counterexample and verify its violation still
    reproduces.

Exit status: 0 when the observed outcome matches expectation (no
violations, or — with ``--expect-violation`` — at least one), 1
otherwise.  CI's explorer smoke job is exactly these invocations.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.mc.counterexample import Counterexample, ReplayMismatch, replay
from repro.mc.explore import ExploreConfig, explore
from repro.mc.program import PRESETS, preset, random_program
from repro.mc.shrink import shrink


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.mc",
        description="Schedule exploration for the DSM protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("explore", help="explore a program's schedule space")
    ex.add_argument(
        "--program",
        default="random",
        choices=sorted(PRESETS) + ["random"],
        help="preset program, or 'random' for the seeded generator",
    )
    ex.add_argument("--protocol", default="causal",
                    help="protocol for random programs (presets pin theirs)")
    ex.add_argument("--seed", type=int, default=0)
    ex.add_argument("--procs", type=int, default=3)
    ex.add_argument("--locations", type=int, default=2)
    ex.add_argument("--ops", type=int, default=3,
                    help="operations per process (random programs)")
    ex.add_argument("--read-fraction", type=float, default=0.5)
    ex.add_argument("--strategy", default="dfs",
                    choices=["dfs", "random", "pct"])
    ex.add_argument("--model", default=None,
                    choices=["sequential", "causal", "pram", "slow"],
                    help="model to check leaves against (default: the "
                         "protocol's promised model)")
    ex.add_argument("--max-schedules", type=int, default=2000)
    ex.add_argument("--max-steps", type=int, default=5000)
    ex.add_argument("--drops", type=int, default=0,
                    help="message-drop budget per schedule")
    ex.add_argument("--no-prune", action="store_true",
                    help="disable dominance pruning (DFS only)")
    ex.add_argument("--stop-on-violation", action="store_true")
    ex.add_argument("--full-zoo", action="store_true",
                    help="check all four models at every leaf")
    ex.add_argument("--expect-violation", action="store_true",
                    help="exit 0 iff a violation IS found (regression mode)")
    ex.add_argument("--shrink", action="store_true",
                    help="shrink the first violation before reporting")
    ex.add_argument("--save", metavar="PATH",
                    help="write the first (shrunk) counterexample as JSON")
    ex.add_argument("--json", action="store_true",
                    help="print a machine-readable summary")

    rp = sub.add_parser("replay", help="re-execute a saved counterexample")
    rp.add_argument("path", help="counterexample JSON file")
    rp.add_argument("--json", action="store_true")
    return parser


def _spec_from_args(args: argparse.Namespace):
    if args.program != "random":
        return preset(args.program)
    return random_program(
        seed=args.seed,
        protocol=args.protocol,
        n_procs=args.procs,
        n_locations=args.locations,
        ops_per_proc=args.ops,
        read_fraction=args.read_fraction,
    )


def _cmd_explore(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    config = ExploreConfig(
        strategy=args.strategy,
        max_schedules=args.max_schedules,
        max_steps=args.max_steps,
        max_drops=args.drops,
        prune=not args.no_prune,
        seed=args.seed,
        full_zoo=args.full_zoo,
        expected_model=args.model,
        stop_on_violation=args.stop_on_violation or args.expect_violation,
    )
    result = explore(spec, config)
    cex: Optional[Counterexample] = (
        result.violations[0] if result.violations else None
    )
    if cex is not None and args.shrink:
        cex = shrink(cex, config)
    if args.save and cex is not None:
        # Saved artifacts are self-explaining: replay once with tracing
        # on and embed the violating run's causal trace.
        cex = cex.with_causal_trace()
        cex.save(args.save)
    if args.json:
        payload = result.to_jsonable()
        payload["program"] = spec.describe().splitlines()
        payload["counterexample"] = (
            cex.to_jsonable() if cex is not None else None
        )
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(spec.describe())
        print()
        print(result.summary())
        if cex is not None:
            print()
            print(cex.summary())
            if args.save:
                print(f"saved counterexample to {args.save}")
    found = cex is not None
    return 0 if found == args.expect_violation else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    cex = Counterexample.load(args.path)
    try:
        outcome = replay(cex)
    except ReplayMismatch as mismatch:
        print(f"REPLAY MISMATCH: {mismatch}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({
            "reproduced": True,
            "kind": cex.kind,
            "model": cex.model,
            "steps": outcome.steps,
            "history": outcome.history_text.splitlines(),
        }, indent=2, sort_keys=True))
    else:
        print(cex.summary())
        print()
        print(f"violation reproduced in {outcome.steps} scheduled actions")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "explore":
        return _cmd_explore(args)
    return _cmd_replay(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
