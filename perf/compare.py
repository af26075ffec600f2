"""``python -m perf compare BASE/summary.json CHANGE/summary.json``.

One row per (workload, end-to-end metric): both medians with their
repeats' quartiles, the ratio change/base, the bound and a verdict:

    worse       the median moved the wrong way by more than the bound
                (counts the simulator reproduces exactly, same seed: by
                anything at all; failed_op_share: any increase)
    better      the median moved the right way by more than the bound
    unresolved  the medians are within the bound of each other, but the
                runs cannot vouch for it: the spread of one of them is
                wider than the bound, or from the better quartile of the
                base to the worse quartile of the change it is further
                than the bound; or one side has no value
    same        otherwise

A run's spread and range are the quartiles of its parts' medians where
it has parts (each part is a short run in a fresh interpreter, so they
differ the way two runs do; the repeats inside one interpreter agree
far better than two runs), else the quartiles of its samples.  A value
without samples (a count summed over the instances) has neither.

Two summaries are one run each: `better` here is not a claimed gain
(that takes ten alternating pairs, see the README), it only says the
difference is larger than what the benchmark tolerates as noise.

Exits 1 when any row is worse or unresolved, 2 when the summaries were
not made the same way (run length, smoke) and cannot be compared.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import List, Tuple

from perf.spec import END_TO_END, FAILED_OP_SHARE, WORKLOADS_BY_NAME, Metric


def _range(entry: dict) -> Tuple[float, float]:
    """Where another run of the same tree would plausibly land."""
    parts = entry.get("parts", ())
    if len(parts) >= 2:
        q1, _, q3 = statistics.quantiles(parts, n=4, method="inclusive")
        return q1, q3
    return entry["q1"], entry["q3"]


def verdict(metric: Metric, base: dict, change: dict, exact: bool) -> str:
    a, b = base["median"], change["median"]
    toward_worse = (b - a) if metric.better == "lower" else (a - b)
    if exact or metric.bound == 0.0:
        if toward_worse == 0:
            return "same"
        return "worse" if toward_worse > 0 else "better"
    if abs(toward_worse) > metric.bound * abs(a):
        return "worse" if toward_worse > 0 else "better"
    (a_lo, a_hi), (b_lo, b_hi) = _range(base), _range(change)
    widest = max((a_hi - a_lo) / abs(a), (b_hi - b_lo) / abs(b))
    # Base's better quartile against change's worse one.
    reach = (b_hi - a_lo) if metric.better == "lower" else (a_hi - b_lo)
    if widest > metric.bound or reach > metric.bound * abs(a):
        return "unresolved"
    return "same"


def _cell(entry: dict) -> str:
    return f"{entry['median']:.4g} [{entry['q1']:.4g}, {entry['q3']:.4g}]"


def compare(base: dict, change: dict) -> List[dict]:
    same_seed = base.get("seed") == change.get("seed")
    rows = []
    for name in {**base["workloads"], **change["workloads"]}:
        sides = [summary["workloads"].get(name, {}).get("end_to_end", {})
                 for summary in (base, change)]
        simulated = WORKLOADS_BY_NAME[name].runner != "live"
        for metric in END_TO_END + [FAILED_OP_SHARE]:
            a, b = (side.get(metric.name) for side in sides)
            exact = metric.exact_on_sim and simulated and same_seed
            row = {"workload": name, "metric": metric.name, "unit": metric.unit,
                   "base": a, "change": b, "ratio": None,
                   "bound": "exact" if exact else metric.bound,
                   "verdict": "unresolved"}
            if a is not None and b is not None:
                row["verdict"] = verdict(metric, a, b, exact)
                if a["median"]:
                    row["ratio"] = b["median"] / a["median"]
            rows.append(row)
    return rows


def render(rows: List[dict]) -> str:
    lines = [
        f"{'workload':14s} {'metric':22s} {'base median [q1, q3]':34s} "
        f"{'change median [q1, q3]':34s} {'change/base':>12s} {'bound':>7s} verdict"
    ]
    for row in rows:
        if row["base"] is None or row["change"] is None:
            lines.append(f"{row['workload']:14s} {row['metric']:22s} "
                         f"(missing on one side) unresolved")
            continue
        ratio = "n/a" if row["ratio"] is None else (
            f"{row['ratio']:.4f}x")
        bound = row["bound"] if isinstance(row["bound"], str) else (
            "any" if row["bound"] == 0.0 else f"{row['bound']:.1%}")
        lines.append(
            f"{row['workload']:14s} {row['metric']:22s} "
            f"{_cell(row['base']):34s} {_cell(row['change']):34s} "
            f"{ratio:>12s} {bound:>7s} {row['verdict']}"
        )
    return "\n".join(lines)


def cmd_compare(base_path: str, change_path: str) -> int:
    base = json.loads(Path(base_path).read_text())
    change = json.loads(Path(change_path).read_text())
    for key in ("run_seconds", "smoke"):
        if base.get(key) != change.get(key):
            print(f"perf compare: {key} differs ({base.get(key)} against "
                  f"{change.get(key)}): these runs were not made the same way")
            return 2
    rows = compare(base, change)
    print(f"base:   {base_path} (label {base.get('label')}, seed {base.get('seed')})")
    print(f"change: {change_path} (label {change.get('label')}, "
          f"seed {change.get('seed')}); ratio = change median / base median")
    print(render(rows))
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("better", "same", "worse", "unresolved")}
    print(", ".join(f"{count} {name}" for name, count in counts.items()))
    return 1 if counts["worse"] or counts["unresolved"] else 0
