"""``python -m perf selftest`` — checks on the benchmark itself.

Not collected by tier-1 (it takes about a minute).  It checks that

* ``BENCHMARK.json`` is what ``perf/spec.py`` defines and stays inside
  the benchmark contract's limits;
* a smoke run prints exactly the declared metrics, verifies every
  output, reports ``2n+6`` messages on the solver, and that layers
  predicted absent on a workload record zero calls there;
* every count of the simulated workloads is equal across two runs;
* ``failed_op_share`` is live: the Figure 3 history is flagged, a
  hand-corrupted stale read is flagged, and a child killed by the hard
  timeout counts all its ops as failed;
* ``compare`` says ``unresolved`` where it cannot tell (a run too wide
  or reaching past the bound, a workload missing on one side) and
  refuses summaries made with different run lengths.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path

from perf import child, machine, spec, suite

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
_COUNTS = ("msgs_per_op", "model_bytes_per_op", "stamp_entries_per_op",
           "socket_bytes_per_op")
#: Layers whose metrics must all read 0 on a workload (name prefixes).
_ABSENT = {
    "sim-mixed": ("wire.", "live.", "obs.", "monitor.", "checker."),
    "sim-wire": ("live.", "obs.", "monitor.", "checker."),
    "sim-solver": ("wire.", "live.", "obs.", "monitor.", "checker.", "history."),
    "sim-observed": ("wire.", "live.", "checker."),
    "live-cpu": ("kernel.", "network.", "obs.", "monitor.", "checker."),
    "live-delay": ("kernel.", "network.", "obs.", "monitor.", "checker."),
    "check-offline": ("apps.", "engine.", "store.", "clocks.", "wire.",
                      "kernel.", "network.", "history.", "live.", "obs.",
                      "monitor."),
}


def check_schema() -> None:
    declared = spec.benchmark_json()
    committed = json.loads((child.ROOT / "BENCHMARK.json").read_text())
    assert committed == declared, (
        "BENCHMARK.json differs from perf/spec.py; run "
        "`python -m perf spec --write`"
    )
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert 1 <= declared["run_seconds"] <= 60
    names = []
    for workload in declared["workloads"]:
        names.append(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"] + declared["per_layer"]:
        names.append(metric["name"])
        assert _UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in declared["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(_NAME.match(name) for name in names)
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in declared["end_to_end"])


def _smoke(out_dir: Path, workload: str, trace: int) -> dict:
    return suite.run_child(
        workload, spec.DEFAULT_SEED, suite.SMOKE_SECONDS, trace, True, out_dir
    )


def check_smoke_outputs(out_dir: Path) -> dict:
    """One smoke pass over all workloads; returns the timed records."""
    timed = {}
    for workload in spec.WORKLOADS:
        name = workload.name
        record = timed[name] = _smoke(out_dir, name, 0)
        traced = _smoke(out_dir, name, 1)
        for result, metrics in ((record, spec.END_TO_END),
                                (traced, spec.PER_LAYER)):
            assert result["correct"], (name, result["problems"])
            assert result["failed"] == 0 and result["attempted"] >= 1
            for metric in metrics:
                entry = result["summary"][metric.name]
                assert entry["unit"] == metric.unit, (name, metric.name)
        for metric in spec.END_TO_END:
            assert record["summary"][metric.name]["median"] > 0, (name, metric.name)
        assert record["summary"]["failed_op_share"]["median"] == 0.0
        for metric in spec.PER_LAYER:
            value = traced["summary"][metric.name]["median"]
            if metric.name.startswith(_ABSENT[name]):
                assert value == 0.0, (name, metric.name, value)
        share = traced["summary"]["trace.unattributed_share"]["median"]
        assert 0.0 <= share < 1.0, (name, share)
        # Self times and the unattributed rest account for the traced wall.
        spans = sum(s["self_s"] for s in traced["span_names"].values())
        wall = traced["traced_wall_s"]
        assert abs(spans + share * wall - wall) <= 0.05 * wall, name
    solver = spec.WORKLOADS_BY_NAME["sim-solver"]
    for repeat in timed["sim-solver"]["repeats"]:
        steady = repeat["counters"]["steady_msgs_per_proc_iter"]
        assert steady == 2 * solver.n_nodes + 6 == 30, steady
    return timed


def check_sim_counts_repeat(out_dir: Path, first: dict) -> None:
    for workload in spec.WORKLOADS:
        if workload.runner == "live":
            continue
        again = _smoke(out_dir, workload.name, 0)
        for metric in _COUNTS:
            a = first[workload.name]["summary"][metric]["median"]
            b = again["summary"][metric]["median"]
            assert a == b, (workload.name, metric, a, b)
        prints = {
            (r["instance"], r["fingerprint"])
            for r in first[workload.name]["repeats"] + again["repeats"]
        }
        instances = {instance for instance, _ in prints}
        assert len(prints) == len(instances) >= 2, (workload.name, prints)


def _corrupt_stale_read(history):
    """Make one read return a value it had already seen overwritten.

    Find writes ``w0`` then ``w`` to one location by one process, and a
    process that reads ``w`` and later reads the location again; point
    the later read at ``w0``.  ``w0 -> w -> first read -> later read``
    in causal order, so ``w0`` is not live for it.
    """
    from repro.checker.history import History

    previous = {}  # write_id -> the same process's previous write there
    for ops in history.processes:
        last = {}
        for op in ops:
            if op.is_write:
                if op.location in last:
                    previous[op.write_id] = last[op.location]
                last[op.location] = op
    for proc, ops in enumerate(history.processes):
        seen = {}  # location -> overwritten write this process knows of
        for index, op in enumerate(ops):
            if not op.is_read:
                continue
            stale = seen.get(op.location)
            if stale is not None and op.read_from != stale.write_id:
                processes = [list(p) for p in history.processes]
                processes[proc][index] = dataclasses.replace(
                    op, value=stale.value, read_from=stale.write_id
                )
                return History(processes)
            if op.read_from in previous:
                seen[op.location] = previous[op.read_from]
    raise AssertionError("no read to corrupt in this history")


def check_canaries(out_dir: Path) -> None:
    from perf.workloads import figure3_rejected, flagged_reads, make_runner

    assert figure3_rejected(), "Figure 3 history was not rejected"

    mixed = spec.WORKLOADS_BY_NAME["sim-mixed"]
    runner = make_runner(mixed, spec.DEFAULT_SEED)
    history = runner.run(runner.prepare(200), 200).history
    assert flagged_reads(history) == 0
    assert flagged_reads(_corrupt_stale_read(history)) >= 1, (
        "a hand-corrupted stale read was not flagged"
    )

    killed = suite.run_child(
        "sim-mixed", spec.DEFAULT_SEED, suite.SMOKE_SECONDS, 0, True,
        out_dir, timeout=0.05,
    )
    assert not killed["correct"]
    assert killed["failed"] == killed["attempted"] > 0, killed


def check_compare(out_dir: Path) -> None:
    from perf import compare

    def entry(*parts: float) -> dict:
        return {**machine.summarize(parts), "parts": list(parts)}

    rate = next(m for m in spec.END_TO_END if m.name == "ops_per_s")
    steady = entry(99, 100, 100, 101)
    for change, expected in (
        (entry(98, 99, 100, 101), "same"),
        (entry(84, 85, 85, 86), "worse"),
        (entry(119, 120, 120, 121), "better"),
        (entry(93, 94, 94, 95), "same"),           # 6 % down, both tight
        (entry(88, 90, 94, 96), "unresolved"),     # 8 % down, reaches 10 %
        (entry(80, 95, 105, 120), "unresolved"),   # level, but too wide
    ):
        got = compare.verdict(rate, steady, change, exact=False)
        assert got == expected, (change, got, expected)

    def summary(run_seconds: float, *workloads: str) -> dict:
        return {"seed": 1, "smoke": False, "run_seconds": run_seconds,
                "workloads": {w: {"end_to_end": {"ops_per_s": steady}}
                              for w in workloads}}

    rows = compare.compare(summary(16, "sim-mixed", "sim-wire"),
                           summary(16, "sim-mixed"))
    lost = [r["verdict"] for r in rows if r["workload"] == "sim-wire"]
    assert lost == ["unresolved"] * (len(spec.END_TO_END) + 1), lost
    paths = []
    for index, run_seconds in enumerate((16, 8)):
        paths.append(out_dir / f"summary{index}.json")
        paths[-1].write_text(json.dumps(summary(run_seconds, "sim-mixed")))
    with contextlib.redirect_stdout(io.StringIO()):
        assert compare.cmd_compare(str(paths[0]), str(paths[1])) == 2
        assert compare.cmd_compare(str(paths[0]), str(paths[0])) == 1  # other metrics missing


def main() -> int:
    child.bootstrap()
    with tempfile.TemporaryDirectory(prefix="selftest-") as scratch:
        out_dir = Path(scratch)
        check_schema()
        print("selftest: schema: ok")
        first = check_smoke_outputs(out_dir)
        print("selftest: smoke outputs: ok")
        check_sim_counts_repeat(out_dir, first)
        print("selftest: sim counts repeat: ok")
        check_canaries(out_dir)
        print("selftest: canaries: ok")
        check_compare(out_dir)
        print("selftest: compare: ok")
    return 0
