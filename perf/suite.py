"""``python -m perf run``: every workload, each in a fresh child interpreter.

Children run one at a time (timings must not contend for the two
cores), with ``PYTHONHASHSEED`` pinned, ``--seed`` forwarded and stderr
captured: asyncio's tear-down tracebacks are counted, not fatal.  A
child that outlives its hard timeout is killed and all its ops count as
failed.  A run is packaged under ``perf/results/<label>/``:

    manifest.json   commit, versions, nproc, seeds, sizes, ref_spin_mops
    metrics.jsonl   every timed repeat: scaled, raw, both calibrations
    summary.json    median, quartiles and sample count of every metric
    spans.jsonl     raw spans of each workload's first 200 traced ops
"""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from perf import spec
from perf.child import (
    PARTS, ROOT, SMOKE_INSTANCES, SMOKE_PARTS, child_command, child_env,
)
from perf.workloads import make_runner

RESULTS = ROOT / "perf" / "results"
#: Per-child hard timeout; the contract allows one run 180 s.
CHILD_TIMEOUT_S = 170.0
SMOKE_SECONDS = 0.1


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "absent"
    return numpy.__version__


def manifest(seed: int, seconds: float, smoke: bool, label: str) -> dict:
    return {
        "label": label,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "held_out_seed": spec.HELD_OUT_SEED,
        "run_seconds": seconds,
        "parts": SMOKE_PARTS if smoke else PARTS,
        "smoke": smoke,
        "ref_spin_mops": spec.REF_SPIN_MOPS,
        "workloads": {
            w.name: {
                "n_nodes": w.n_nodes, "n_locations": w.n_locations,
                "size": w.smoke_size if smoke else w.size,
                "instances": SMOKE_INSTANCES if smoke else w.instances,
                "traced_size": w.traced_size(smoke), **w.options,
            }
            for w in spec.WORKLOADS
        },
    }


def run_child(workload: str, seed: int, seconds: float, trace: int,
              smoke: bool, out_dir: Path,
              timeout: float = CHILD_TIMEOUT_S) -> dict:
    """One ``one`` child; returns its detail record (or a failure record)."""
    detail = out_dir / f"detail.{workload}.trace{trace}.json"
    command = child_command(
        "one", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--detail", str(detail),
    )
    if trace:
        command += ["--spans", str(out_dir / f"spans.{workload}.jsonl")]
    if smoke:
        command.append("--smoke")
    # Own process group, so a timeout also stops the part the child may
    # have running.
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, stderr = process.communicate(timeout=timeout)
        problem = (
            f"child exited with {process.returncode}"
            if process.returncode else ""
        )
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        _, stderr = process.communicate()
        problem = f"child killed after the {timeout:g}s hard timeout"
    tracebacks = stderr.count("Traceback (most recent call last)")
    if not problem and detail.exists():
        record = json.loads(detail.read_text())
        detail.unlink()
    else:
        w = spec.WORKLOADS_BY_NAME[workload]
        size = w.traced_size(smoke) if trace else (
            w.smoke_size if smoke else w.size)
        attempted = make_runner(w, seed).nominal_ops(size)
        record = {
            "workload": workload, "trace": trace, "seed": seed,
            "attempted": attempted, "failed": attempted, "correct": False,
            "problems": [problem or "child wrote no result"],
            "summary": {}, "repeats": [],
        }
        sys.stderr.write(stderr[-2000:])
    record["stderr_tracebacks"] = tracebacks
    return record


def _print_metrics(name: str, record: dict, metrics: List[spec.Metric]) -> None:
    for metric in metrics:
        entry = record["summary"].get(metric.name)
        if entry is None:
            print(f"  {name:14s} {metric.name:30s} (no result)")
            continue
        print(
            f"  {name:14s} {metric.name:30s} {entry['median']:14.4f} "
            f"{metric.unit:8s} q1 {entry['q1']:.4f} q3 {entry['q3']:.4f} "
            f"n {entry['n']}"
        )


def cmd_report(summary_path: str) -> int:
    """Two markdown tables (metric rows, workload columns) of medians."""
    summary = json.loads(Path(summary_path).read_text())
    names = list(summary["workloads"])
    print(f"label `{summary['label']}`, seed {summary['seed']}, "
          f"{summary['run_seconds']:g} s per run, medians\n")
    for section, metrics in (("end_to_end", spec.END_TO_END + [spec.FAILED_OP_SHARE]),
                             ("per_layer", spec.PER_LAYER)):
        print("| metric | unit | " + " | ".join(names) + " |")
        print("|---|---|" + "---:|" * len(names))
        for metric in metrics:
            cells = []
            for name in names:
                entry = summary["workloads"][name][section].get(metric.name)
                cells.append("-" if entry is None else f"{entry['median']:.4g}")
            print(f"| `{metric.name}` | {metric.unit} | " + " | ".join(cells) + " |")
        print()
    return 0


def cmd_run(seed: int, label: Optional[str], smoke: bool) -> int:
    seconds = SMOKE_SECONDS if smoke else float(spec.RUN_SECONDS)
    label = label or time.strftime("run-%Y%m%d-%H%M%S")
    out_dir = RESULTS / label
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest(seed, seconds, smoke, label), indent=1)
    )
    summary: Dict[str, dict] = {}
    all_correct = True
    with open(out_dir / "metrics.jsonl", "w") as repeats_out, \
            open(out_dir / "spans.jsonl", "w") as spans_out:
        for w in spec.WORKLOADS:
            timed = run_child(w.name, seed, seconds, 0, smoke, out_dir)
            traced = run_child(w.name, seed, seconds, 1, smoke, out_dir)
            for record in timed["repeats"]:
                repeats_out.write(json.dumps(record) + "\n")
            spans = out_dir / f"spans.{w.name}.jsonl"
            if spans.exists():
                spans_out.write(spans.read_text())
                spans.unlink()
            print(f"{w.name}: {w.why}")
            _print_metrics(w.name, timed, spec.END_TO_END)
            _print_metrics(w.name, traced, spec.PER_LAYER)
            for record in (timed, traced):
                for problem in record["problems"]:
                    print(f"  {w.name:14s} PROBLEM (trace {record['trace']}): "
                          f"{problem}")
            summary[w.name] = {
                "end_to_end": timed["summary"],
                "per_layer": traced["summary"],
                "attempted": timed["attempted"], "failed": timed["failed"],
                "correct": timed["correct"] and traced["correct"],
                "problems": timed["problems"] + traced["problems"],
                "traced_attempted": traced["attempted"],
                "traced_failed": traced["failed"],
                "parts": timed.get("parts", []),
                "span_names": traced.get("span_names", {}),
                "stderr_tracebacks":
                    timed["stderr_tracebacks"] + traced["stderr_tracebacks"],
            }
            all_correct = all_correct and summary[w.name]["correct"]
    (out_dir / "summary.json").write_text(json.dumps(
        {"label": label, "seed": seed, "smoke": smoke,
         "run_seconds": seconds, "workloads": summary}, indent=1))
    print(f"results: {out_dir.relative_to(ROOT)}  "
          f"({'all outputs verified' if all_correct else 'FAILURES above'})")
    return 0 if all_correct else 1
