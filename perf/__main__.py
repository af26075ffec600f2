"""``python -m perf <command>`` — run from the repository root.

    run       all seven workloads, each in a fresh child interpreter
    one       one run of one workload (what BENCHMARK.json names)
    part      what ``one --trace 0`` spawns: set up, then measure a share
    compare   two summary.json files, row by row, with a verdict each
    report    one summary.json as two markdown tables of medians
    selftest  schema, determinism and failure-counting canaries
    spec      print (``--write``: store) BENCHMARK.json as perf/spec.py defines it
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # started as a script rather than with -m
    sys.path.insert(0, str(ROOT))

from perf import spec  # noqa: E402


def _workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes (same metric names and units)")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m perf", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run")
    run.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    run.add_argument("--label", default=None,
                     help="results go to perf/results/<label>/")
    run.add_argument("--smoke", action="store_true")

    one = commands.add_parser("one")
    _workload_args(one)
    one.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--detail", default=None,
                     help="write per-repeat records and quartiles here")
    one.add_argument("--spans", default=None,
                     help="--trace 1: write the first ops' raw spans here")

    part = commands.add_parser("part")
    _workload_args(part)
    part.add_argument("--seconds", type=float, required=True)
    part.add_argument("--index", type=int, required=True)
    part.add_argument("--of", type=int, required=True, dest="parts")
    part.add_argument("--spawned", type=float, required=True,
                      help="time.time() when the parent started this part")
    part.add_argument("--out", required=True)

    compare = commands.add_parser("compare")
    compare.add_argument("base")
    compare.add_argument("change")

    commands.add_parser("report").add_argument("summary")

    commands.add_parser("selftest")

    write = commands.add_parser("spec")
    write.add_argument("--write", action="store_true")
    return parser


def _pin_environment(pinned: dict) -> None:
    """Re-exec under ``child.PINNED_ENV`` unless already there: the
    interpreter and the allocator read these at start-up only."""
    if any(os.environ.get(key) != value for key, value in pinned.items()):
        os.chdir(ROOT)
        os.execve(sys.executable,
                  [sys.executable, "-m", "perf", *sys.argv[1:]],
                  {**os.environ, **pinned})


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command in ("one", "part"):
        from perf import child

        _pin_environment(child.PINNED_ENV)
        child.bootstrap()
        if args.command == "part":
            return child.cmd_part(args.workload, args.seed, args.seconds,
                                  args.smoke, args.index, args.parts,
                                  args.spawned, args.out)
        return child.cmd_one(args.workload, args.seed, args.seconds,
                             args.trace, args.smoke, args.detail, args.spans)
    if args.command == "run":
        from perf import suite

        return suite.cmd_run(args.seed, args.label, args.smoke)
    if args.command == "compare":
        from perf import compare

        return compare.cmd_compare(args.base, args.change)
    if args.command == "report":
        from perf import suite

        return suite.cmd_report(args.summary)
    if args.command == "selftest":
        from perf import selftest

        return selftest.main()
    text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
    if args.write:
        (ROOT / "BENCHMARK.json").write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
