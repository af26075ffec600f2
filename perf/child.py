"""One run of one workload: the ``one`` command and its ``part`` children.

``one --trace 0`` measures the end-to-end metrics with tracing off, in
``PARTS`` fresh interpreters one after another; ``one --trace 1`` is the
separate traced run, in this interpreter, that yields the per-layer
metrics.  Both print one JSON object as the last line of stdout.

Measurement rule.  Each part sets up (imports, input generation, one
untimed warm-up: that is ``setup_s``), then makes fixed-size timed
repeats until its share of ``--seconds`` has passed (at least one per
input instance of its share), a ``gc.collect()`` before each.
Calibration loops separate the repeats, so each repeat is bracketed by
two; CPU-bound timings are scaled to the reference machine speed by
their mean.  Reported values are medians over the repeats of all parts;
the detail file keeps every repeat raw and scaled.

Why parts: between interpreters the same code on the same inputs runs
up to 10 % faster or slower for as long as the process lives (where its
pages landed, what state the machine was in when it started), and no
calibration loop sees that.  Several short-lived interpreters per run
average over it, give ``setup_s`` several samples, let ``compare`` see a
spread that resembles the one between runs, and make every run check
that a simulated instance repeats exactly across processes.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from perf import machine
from perf.spec import (
    END_TO_END, FAILED_OP_SHARE, PER_LAYER, REF_SPIN_MOPS, WORKLOADS_BY_NAME,
    Workload,
)
from perf.workloads import Repeat, Runner, make_runner

ROOT = Path(__file__).resolve().parent.parent
#: Fresh interpreters one ``--trace 0`` run is spread over.
PARTS = 4
SMOKE_PARTS = 2
SMOKE_INSTANCES = 2
#: A part takes seconds; one that hangs must not outlive the 180 s the
#: contract gives the whole run.
PART_TIMEOUT_S = 40.0
#: Scratch inside the checkout (part results, the live runtime's
#: sockets), where ``perf/results/.gitignore`` keeps it out of the tree.
TMP_DIR = ROOT / "perf" / "results" / ".tmp"
#: ``sun_path`` holds 108 bytes; the runtime appends about 35.
_MAX_SOCKET_DIR = 70


def bootstrap() -> None:
    """Make the program importable and keep temp files in the checkout."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"perf: no program to measure: {src}/repro is missing")
    sys.path.insert(0, str(src))
    if hasattr(os, "sched_setaffinity"):
        # One process, one thread: keep it (and the socket wake-ups the
        # kernel does on its behalf) on one core.  Unpinned, whole live
        # runs came out 7.2k or 8.7k ops/s depending on where they landed.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    if len(str(TMP_DIR)) <= _MAX_SOCKET_DIR:
        import tempfile

        tempfile.tempdir = str(TMP_DIR)


def child_command(*args: str) -> List[str]:
    return [sys.executable, "-m", "perf", *args]


#: What every measuring interpreter runs under.  Hashing is pinned so
#: set iteration order cannot perturb a simulated run's counts.  glibc
#: is told to keep freed memory: a benchmark builds and drops a cluster
#: per repeat, and for some inputs the heap top crossed the trim
#: threshold every time, so each repeat gave its pages back and faulted
#: them in again (twice the page faults, `live-cpu` 6.3k instead of
#: 8.1k ops/s, decided by the seed).  One run of the program never
#: sees that, so the benchmark should not either.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
}


def child_env() -> Dict[str, str]:
    return {**os.environ, **PINNED_ENV}


def _sizes(spec: Workload, smoke: bool):
    return (spec.smoke_size if smoke else spec.size), spec.traced_size(smoke)


def _spin(smoke: bool) -> float:
    return machine.spin_mops(
        machine.SMOKE_SPIN_EVENTS if smoke else machine.SPIN_EVENTS
    )


def _prepare(runner: Runner, size: int, smoke: bool) -> list:
    """Input generation: every instance the repeats will cycle through."""
    instances = SMOKE_INSTANCES if smoke else runner.spec.instances
    return [runner.prepare(size, j) for j in range(instances)]


def _warm_up(runner: Runner, size: int) -> None:
    """One untimed, unchecked run: imports, caches and lazy set-up."""
    runner.run(runner.prepare(size), size)


# ----------------------------------------------------------------------
# part: one fresh interpreter's share of a --trace 0 run
# ----------------------------------------------------------------------
def _timed_repeats(runner: Runner, inputs, size: int, seconds: float,
                   smoke: bool, part: int, parts: int) -> List[Repeat]:
    """Starts at this part's share of the instances and runs each of
    them once whatever the time, so a run covers every instance."""
    first = part * len(inputs) // parts
    share = (part + 1) * len(inputs) // parts - first
    repeats: List[Repeat] = []
    spin = _spin(smoke)
    deadline = perf_counter() + seconds
    while len(repeats) < share or perf_counter() < deadline:
        index = len(repeats)
        instance = (first + index) % len(inputs)
        gc.collect()
        repeat = runner.run(inputs[instance], size, index, instance)
        repeat.spin_before, spin = spin, _spin(smoke)
        repeat.spin_after = spin
        # Simulated repeats of an instance are identical (`one` checks
        # that across parts), so one look at its history covers them all.
        runner.finish(repeat, index, check_history=index < share)
        deadline += repeat.inspect_s  # checking is not measuring
        repeats.append(repeat)
    return repeats


def cmd_part(workload: str, seed: int, seconds: float, smoke: bool,
             part: int, parts: int, spawned: float, out_path: str) -> int:
    spec = WORKLOADS_BY_NAME[workload]
    size, warm = _sizes(spec, smoke)
    runner = make_runner(spec, seed)
    inputs = _prepare(runner, size, smoke)
    _warm_up(runner, warm)
    _spin(smoke)  # the interpreter specialises the loop on its first pass
    setup_raw_s = time.time() - spawned
    repeats = _timed_repeats(runner, inputs, size, seconds, smoke, part, parts)
    Path(out_path).write_text(json.dumps({
        "setup_raw_s": setup_raw_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "repeats": [dataclasses.asdict(repeat) for repeat in repeats],
    }))
    return 0


def _run_part(spec: Workload, seed: int, seconds: float, smoke: bool,
              part: int, parts: int) -> dict:
    out = TMP_DIR / f"part.{os.getpid()}.{part}.json"
    command = child_command(
        "part", "--workload", spec.name, "--seed", str(seed),
        "--seconds", repr(seconds), "--index", str(part), "--of", str(parts),
        "--out", str(out),
    )
    if smoke:
        command.append("--smoke")
    spin_before = _spin(smoke)
    # Set-up is timed from here: it includes starting the interpreter.
    command += ["--spawned", repr(time.time())]
    try:
        subprocess.run(command, cwd=ROOT, env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=PART_TIMEOUT_S)
        result = json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)
    result["part"] = part
    result["repeats"] = [Repeat(**fields) for fields in result["repeats"]]
    for repeat in result["repeats"]:
        repeat.part = part
        repeat.problems = [f"part {part}: {p}" for p in repeat.problems]
    # Set-up lies between this calibration and the part's first one.
    # Where the link delay paces the workload it paces the warm-up too.
    result["spin_before"] = spin_before
    result["setup_s"] = machine.scaled_time(
        result["setup_raw_s"],
        (spin_before + result["repeats"][0].spin_before) / 2,
    ) if spec.cpu_bound else result["setup_raw_s"]
    return result


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def _repeat_record(spec: Workload, runner: Runner, repeat: Repeat) -> dict:
    """One line of metrics.jsonl: raw, scaled, and both calibrations."""
    before, after = repeat.spin_before, repeat.spin_after
    record = {
        "workload": spec.name, "part": repeat.part, "instance": repeat.instance,
        "attempted": repeat.attempted, "ops": repeat.ops,
        "error": repeat.error, "fingerprint": repeat.fingerprint,
        "spin_before": before, "spin_after": after,
        "counters": repeat.counters, "raw": {}, "scaled": {},
    }
    if repeat.error or not repeat.ops:
        return record
    spin = (before + after) / 2
    ops = repeat.ops
    raw_rate = ops / repeat.wall_s
    raw_cpu_us = repeat.cpu_s / ops * 1e6
    rate = machine.scaled_rate(raw_rate, spin) if spec.cpu_bound else raw_rate
    socket_bytes = (
        repeat.model_bytes if repeat.socket_bytes is None else repeat.socket_bytes
    )
    record["raw"] = {
        "wall_s": repeat.wall_s, "cpu_s": repeat.cpu_s,
        "ops_per_s": raw_rate, "cpu_us_per_op": raw_cpu_us,
        "msgs": repeat.msgs, "model_bytes": repeat.model_bytes,
        "stamp_entries": repeat.stamp_entries, "socket_bytes": socket_bytes,
    }
    record["scaled"] = {
        "ops_per_s": rate,
        "cpu_us_per_op": machine.scaled_time(raw_cpu_us, spin),
        # What a closed loop of `clients` callers implies (Little's law).
        "closed_loop_latency_ms": runner.clients / rate * 1e3,
    }
    if repeat.latencies_s:
        ordered = sorted(repeat.latencies_s)
        record["raw"]["op_latency_p50_ms"] = machine.percentile(ordered, 0.50) * 1e3
        record["raw"]["op_latency_p99_ms"] = machine.percentile(ordered, 0.99) * 1e3
    return record


def _by_part(records: List[dict], value) -> List[float]:
    """``value`` of each part's records, in part order."""
    grouped: Dict[int, List[dict]] = {}
    for record in records:
        grouped.setdefault(record["part"], []).append(record)
    return [value(grouped[part]) for part in sorted(grouped)]


def _timed_summary(records: List[dict], section: str, name: str) -> dict:
    """Median and quartiles over all repeats, and each part's median:
    the parts differ the way two runs do, the repeats of one do not."""
    entry = machine.summarize([r[section][name] for r in records])
    entry["parts"] = _by_part(
        records, lambda rs: statistics.median(r[section][name] for r in rs))
    return entry


def _latency_summary(spec: Workload, repeats: List[Repeat], records: List[dict],
                     fraction: float, name: str) -> dict:
    """Sampled and pooled where the link delay paces the run; elsewhere
    the closed-loop mean, which says nothing ops_per_s does not."""
    if spec.cpu_bound:
        return _timed_summary(records, "scaled", "closed_loop_latency_ms")

    def pooled(part=None) -> float:
        samples = sorted(s for r in repeats if part in (None, r.part)
                         for s in r.latencies_s)
        return machine.percentile(samples, fraction) * 1e3

    summary = machine.summarize([r["raw"][name] for r in records])
    summary["median"] = pooled()
    summary["pooled_samples"] = sum(len(r.latencies_s) for r in repeats)
    summary["parts"] = [pooled(part) for part in sorted({r["part"] for r in records})]
    return summary


def _count_summary(good: List[dict], name: str) -> dict:
    """Total over the run's instances (each taken once) per op.

    A simulator repeats an instance exactly, so this does not depend on
    how many repeats each got in the window; being a sum it has no
    quartiles of its own.
    """
    first_of = {r["instance"]: r for r in reversed(good)}
    value = (sum(r["raw"][name] for r in first_of.values())
             / sum(r["ops"] for r in first_of.values()))
    return {"median": value, "q1": value, "q3": value, "n": len(first_of)}


def end_to_end(spec: Workload, seed: int, seconds: float, smoke: bool) -> dict:
    count = SMOKE_PARTS if smoke else PARTS
    parts = [
        _run_part(spec, seed, seconds / count, smoke, part, count)
        for part in range(count)
    ]
    repeats = [repeat for part in parts for repeat in part.pop("repeats")]
    runner = make_runner(spec, seed)
    problems = runner.verify(repeats)

    records = [_repeat_record(spec, runner, repeat) for repeat in repeats]
    good = [r for r in records if r["scaled"]]
    if not good:
        raise SystemExit(f"perf: no repeat of {spec.name} completed: {problems}")
    attempted = sum(r.attempted for r in repeats)
    failed = sum(min(r.failed, r.attempted) for r in repeats)
    summary = {
        name: _timed_summary(good, "scaled", name)
        for name in ("ops_per_s", "cpu_us_per_op")
    }
    for name, total in (("msgs_per_op", "msgs"),
                        ("model_bytes_per_op", "model_bytes"),
                        ("stamp_entries_per_op", "stamp_entries"),
                        ("socket_bytes_per_op", "socket_bytes")):
        summary[name] = _count_summary(good, total)
    summary["setup_s"] = machine.summarize([p["setup_s"] for p in parts])
    summary["op_latency_p50_ms"] = _latency_summary(
        spec, repeats, good, 0.50, "op_latency_p50_ms")
    summary["op_latency_p99_ms"] = _latency_summary(
        spec, repeats, good, 0.99, "op_latency_p99_ms")
    summary["completed_op_share"] = machine.summarize([1.0 - failed / attempted])
    summary["failed_op_share"] = machine.summarize([failed / attempted])
    summary["peak_rss_mb"] = machine.summarize([p["rss_mb"] for p in parts])
    return {
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems, "summary": summary,
        "parts": parts, "repeats": records,
    }


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def _layer_values(spec: Workload, tracer, traced: List[Repeat],
                  untraced: List[Repeat], traced_wall_s: float,
                  spin: float) -> Dict[str, float]:
    counters: Counter = Counter()
    for repeat in traced:
        counters.update(repeat.counters)
    ops = sum(r.ops for r in traced)
    msgs = sum(r.msgs for r in traced)
    live = spec.runner == "live"

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def us(seconds: float) -> float:
        return machine.scaled_time(seconds * 1e6, spin)

    def wall_ms(seconds: float) -> float:
        return machine.scaled_time(seconds, spin) * 1e3 if spec.cpu_bound \
            else seconds * 1e3

    sweeps = counters["sweeps_performed"] + counters["sweeps_skipped"]
    events = counters["kernel_events"]
    transit = sorted(tracer.transit_s)
    transit_p50 = wall_ms(machine.percentile(transit, 0.50)) if transit else 0.0
    observe = sorted(tracer.samples["monitor.observe"])
    untraced_wall = sum(r.wall_s for r in untraced)
    untraced_ops = sum(r.ops for r in untraced)
    lookups = counters["monitor_cache_hits"] + counters["monitor_cache_misses"]
    everything = traced + untraced
    values = {
        "apps.gen_self_us_per_op": per(us(tracer.layer_self_s("apps")), ops),
        "engine.self_us_per_op": per(us(tracer.layer_self_s("engine")), ops),
        "engine.handle_calls_per_op":
            per(tracer.calls("engine.handle_message"), ops),
        "engine.read_hit_ratio": per(counters["read_hits"], counters["reads"]),
        "engine.rejected_write_share":
            per(counters["rejected_writes"], counters["writes"]),
        "engine.wb_coalesced_share":
            per(counters["wb_coalesced"], counters["writes"]),
        "store.self_us_per_op": per(us(tracer.layer_self_s("store")), ops),
        "store.calls_per_op": per(tracer.layer_calls("store"), ops),
        "store.sweeps_per_op": per(sweeps, ops),
        "store.sweep_skip_ratio": per(counters["sweeps_skipped"], sweeps),
        "store.invalidations_per_op": per(counters["invalidations"], ops),
        "clocks.self_us_per_op": per(us(tracer.layer_self_s("clocks")), ops),
        "clocks.calls_per_op": per(tracer.layer_calls("clocks"), ops),
        "wire.encode_us_per_msg": per(
            us(tracer.inclusive_s("wire.encode")), tracer.calls("wire.encode")),
        "wire.decode_us_per_msg": per(
            us(tracer.inclusive_s("wire.decode")), tracer.calls("wire.decode")),
        "wire.self_us_per_op": per(us(tracer.layer_self_s("wire")), ops),
        "wire.delta_hit_ratio": per(
            counters["stamp_entries_full"] - sum(r.stamp_entries for r in traced),
            counters["stamp_entries_full"],
        ) if tracer.calls("wire.encode") else 0.0,
        "wire.batch_occupancy": per(
            counters["wb_batched_writes"] + counters["wb_coalesced"],
            counters["wb_batches"]),
        "kernel.self_us_per_event": per(us(tracer.layer_self_s("kernel")), events),
        "kernel.events_per_op": per(events, ops),
        "network.self_us_per_msg": per(
            us(tracer.layer_self_s("network")), msgs if not live else 0),
        "network.fanout_width": per(
            msgs if tracer.layer_calls("network") else 0,
            tracer.layer_calls("network")),
        "history.record_us_per_op": per(
            us(tracer.inclusive_s("history.record_read", "history.record_write")),
            ops),
        "live.send_self_us_per_msg": per(
            us(tracer.layer_self_s("live")), msgs if live else 0),
        "live.handler_us_per_msg": per(
            us(tracer.inclusive_s("engine.handle_message")),
            tracer.calls("engine.handle_message")) if live else 0.0,
        "live.transit_p50_ms": transit_p50,
        "live.transit_p99_ms":
            wall_ms(machine.percentile(transit, 0.99)) if transit else 0.0,
        "live.transit_over_delay_ms": (
            transit_p50 - float(spec.options["link_delay"]) * 1e3
        ) if transit else 0.0,
        "live.framing_overhead": per(
            sum(r.socket_bytes or 0 for r in traced),
            sum(r.model_bytes for r in traced)) if live else 0.0,
        # CPU is taken around the whole call, tear-down included, so a
        # saturated loop can read slightly above its wall: clamp at 0.
        "live.loop_idle_share": max(
            0.0, 1.0 - per(sum(r.cpu_s for r in untraced), untraced_wall)
        ) if live else 0.0,
        "live.resyncs": sum(r.counters.get("resyncs", 0) for r in everything),
        "live.dropped_msgs":
            sum(r.counters.get("dropped_msgs", 0) for r in everything) if live
            else 0,
        "live.leaked_tasks":
            sum(r.counters.get("leaked_tasks", 0) for r in everything),
        "live.teardown_errors":
            sum(r.counters.get("teardown_errors", 0) for r in everything),
        "obs.emit_us_per_event": per(
            us(tracer.layer_self_s("obs")), tracer.calls("obs.emit")),
        "obs.events_per_op": per(tracer.calls("obs.emit"), ops),
        "monitor.self_us_per_op": per(us(tracer.layer_self_s("monitor")), ops),
        "monitor.observe_p50_us":
            us(machine.percentile(observe, 0.50)) if observe else 0.0,
        "monitor.observe_p99_us":
            us(machine.percentile(observe, 0.99)) if observe else 0.0,
        "monitor.max_window": max(
            (r.counters.get("monitor_max_window", 0) for r in traced), default=0),
        "monitor.parked_share": per(
            tracer.parked_feeds, tracer.calls("monitor.feed_op")),
        "monitor.gc_retired_per_op": per(counters["monitor_gc_retired"], ops),
        "monitor.cache_hit_ratio": per(counters["monitor_cache_hits"], lookups),
        "checker.self_us_per_op": per(us(tracer.layer_self_s("checker")), ops),
        "checker.reads_checked_share": per(counters["reads_checked"], ops),
        "machine.spin_mops": spin,
        "trace.overhead_ratio": per(
            per(sum(r.wall_s for r in traced), ops),
            per(untraced_wall, untraced_ops)),
        "trace.unattributed_share": per(
            traced_wall_s - tracer.root_s, traced_wall_s),
    }
    return {name: float(value) for name, value in values.items()}


def per_layer(spec: Workload, seed: int, seconds: float, smoke: bool,
              spans_path: Optional[str]) -> dict:
    from perf.tracer import Tracer

    _, size = _sizes(spec, smoke)
    runner = make_runner(spec, seed)
    inputs = _prepare(runner, size, smoke)
    _warm_up(runner, size)
    tracer = Tracer()
    untraced: List[Repeat] = []
    traced: List[Repeat] = []
    traced_wall_s = 0.0
    spins = [_spin(smoke)]
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        index = 2 * len(traced)
        instance = len(traced) % len(inputs)
        gc.collect()
        untraced.append(runner.run(inputs[instance], size, index, instance))
        runner.finish(untraced[-1], index, check_history=len(traced) < len(inputs))
        gc.collect()
        # Wrappers go onto the classes before the run builds its cluster.
        tracer.install()
        try:
            started = perf_counter()
            traced.append(
                runner.run(inputs[instance], size, index + 1, instance))
            traced_wall_s += perf_counter() - started
        finally:
            tracer.uninstall()
        # Verified equal to the untraced repeat below: no second look.
        runner.finish(traced[-1], index + 1, check_history=False)
        spins.append(_spin(smoke))
        deadline += untraced[-1].inspect_s + traced[-1].inspect_s
    # Verified together: a simulated run must not change under tracing.
    problems = runner.verify(untraced + traced)
    if any(r.error for r in traced):
        raise SystemExit(f"perf: traced run of {spec.name} raised: {problems}")
    covered, self_sum = tracer.root_s, tracer.self_total_s()
    if abs(self_sum - covered) > 1e-6 * max(covered, 1.0) \
            or covered > traced_wall_s * 1.05:
        problems.append(
            f"tracer accounting: self {self_sum:.6f}s, root spans "
            f"{covered:.6f}s, traced wall {traced_wall_s:.6f}s"
        )
    if spans_path:
        with open(spans_path, "w") as out:
            for span in tracer.spans:
                out.write(json.dumps({"workload": spec.name, **span}) + "\n")
    everything = untraced + traced
    attempted = sum(r.attempted for r in everything)
    failed = sum(min(r.failed, r.attempted) for r in everything)
    values = _layer_values(
        spec, tracer, traced, untraced, traced_wall_s, sum(spins) / len(spins)
    )
    return {
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems,
        "summary": {name: {"median": value, "q1": value, "q3": value,
                           "n": len(traced)} for name, value in values.items()},
        "span_names": {name: {"calls": total[0], "inclusive_s": total[1],
                              "self_s": total[2]}
                       for name, total in sorted(tracer.totals.items())},
        "traced_wall_s": traced_wall_s,
    }


# ----------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------
def cmd_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
            detail_path: Optional[str], spans_path: Optional[str]) -> int:
    spec = WORKLOADS_BY_NAME[workload]
    _spin(smoke)  # the interpreter specialises the loop on its first pass
    if trace:
        result = per_layer(spec, seed, seconds, smoke, spans_path)
        metrics = PER_LAYER
    else:
        result = end_to_end(spec, seed, seconds, smoke)
        metrics = END_TO_END
    result.update(workload=workload, seed=seed, seconds=seconds,
                  trace=trace, smoke=smoke, ref_spin_mops=REF_SPIN_MOPS)
    for metric in metrics + [FAILED_OP_SHARE]:
        if metric.name in result["summary"]:
            result["summary"][metric.name]["unit"] = metric.unit
    if detail_path:
        Path(detail_path).write_text(json.dumps(result, indent=1))
    for problem in result["problems"]:
        print(f"perf: {workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m.name: {"value": result["summary"][m.name]["median"], "unit": m.unit}
            for m in metrics
        },
    }))
    return 0
