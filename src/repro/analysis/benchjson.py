"""The frozen benchmark trajectory (``BENCH_substrate.json``) and its reader.

The file is the dated record PRs 1-15 left of the reproduction's
instruments (kernel, protocol engines, checkers), one appended run per
PR.  Nothing in ``src/`` writes it any more: timing claims are made with
``python -m perf``, whose runs live under ``perf/results/``, and this
module is what ``python -m repro report --bench`` reads the record with.

Schema (``schema`` is bumped on incompatible change; the reader accepts
every version up to the current one)::

    {
      "schema": 8,
      "runs": [
        {
          "label": "<free-form run label>",
          "timestamp": "<ISO-8601 UTC>",
          "smoke": false,
          "metrics": {
            "kernel": {"events_per_sec": ..., "events": ...},
            "protocol": {"n=4": {"ops_per_sec": ..., "messages": ...,
                                  "sweeps_performed": ...,
                                  "sweeps_skipped": ...,
                                  "invalidations": ...}, ...,
                         "profile": {"workload": "n=16",
                                      "total_time": ...,
                                      "top": [{"function": ...,
                                               "cumtime": ...}, ...]}},
            "checker": {"n=4": {"ops_per_sec": ..., "ops": ...}, ...},
            "bandwidth": {"n=8": {"baseline": {...}, "fastpath": {...},
                                   "bytes_per_op_reduction": ...,
                                   "stamp_entries_per_op_reduction": ...},
                          ...},
            "obs": {"guard_overhead": ..., "emit_overhead": ...,
                    "traced_fig4": {"trace_events": ...,
                                     "metrics": {...}, ...},
                    "plane": {"detached_ops_per_sec": ...,
                               "attached_ops_per_sec": ...,
                               "overhead": ...,
                               "frames_merged": ..., "events_merged": ...,
                               "frames_lost": ..., "events_lost": ...,
                               "sideband_bytes": ...,
                               "messages_equal": true,
                               "socket_bytes_delta": ...,
                               "sideband_excluded": true}},
            "monitor": {"events_per_sec": ..., "ops": ...,
                        "attached_overhead": ..., "hook_overhead": ...,
                        "monitor_overhead": ..., "max_window": ...,
                        "gc_retired": ..., "cache_hit_rate": ...},
            "substrate": {"vectorised": {
                "n=64": {"sweep": {"python_rows_per_sec": ...,
                                    "numpy_rows_per_sec": ...,
                                    "speedup": ..., "masks_equal": true},
                         "protocol": {"scalar_ops_per_sec": ...,
                                       "vector_ops_per_sec": ...,
                                       "speedup": ...}}, ...}},
            "runtime": {"live": {"transport": "uds", "ops_per_sec": ...,
                                  "latency_p50_ms": ..., "latency_p95_ms": ...,
                                  "latency_p99_ms": ...,
                                  "model_bytes_per_op": ...,
                                  "socket_bytes_per_op": ...,
                                  "framing_overhead": ...,
                                  "verdicts_equal": true}}
          }
        }, ...
      ]
    }

Schema history:

* **1** — kernel / protocol / checker sections only.
* **2** — adds the optional ``bandwidth`` section (wire-level A/B:
  bytes per op, writestamp entries per op, batch occupancy).  v1 files
  load unchanged — the section is simply absent from their runs.
* **3** — adds the optional ``obs`` section (tracing overhead A/B and
  the traced-run metrics snapshot).  Older files load unchanged.
* **4** — adds the optional ``monitor`` section (streaming-monitor
  sustained throughput, attached-overhead A/B, window/GC statistics),
  and histogram leaves gain ``p50``/``p95``/``p99`` quantiles.  v1–v3
  files load unchanged.
* **5** — added the optional ``substrate`` section; its ``vectorised``
  subtree carried the numpy-vs-Python writestamp-arena A/B per clock
  width (``"n=64": {"sweep": {...}, "protocol": {...}}``).  The arena
  is gone (DESIGN.md §4.9) and nothing writes the section any more;
  committed v5–v8 runs that have it still load, save and render.
  v1–v4 files load unchanged.
* **6** — adds the optional ``protocol.profile`` section: a cProfile
  top-N-by-cumulative-time table
  of the largest-n protocol workload, recorded as
  ``{"workload": "n=16", "total_time": ..., "sort": "cumulative",
  "top": [{"function": ..., "file": ..., "line": ..., "ncalls": ...,
  "tottime": ..., "cumtime": ...}, ...]}`` so the hot-spot ranking of
  each revision rides along with its throughput numbers.  v1–v5 files
  load unchanged.
* **7** — adds the optional ``runtime`` section; its ``live`` subtree
  records the asyncio/socket runtime run against the simulator on one
  seeded workload: live ops/sec and sim wall-clock ops/sec,
  completion-latency quantiles (p50/p95/p99, milliseconds), the
  analytic wire-model bytes/op vs the bytes/op actually written to the
  sockets with their ratio (``framing_overhead``; pickled frames up to
  ``pr9-runtime``'s x4.6, the codec's own frames since), and a ``verdicts_equal`` canary
  (offline causal verdicts of the two drivers must match).  v1–v6
  files load unchanged.
* **8** — adds the optional ``obs.plane`` section (telemetry-plane
  aggregation overhead, interleaved A/B): live ops/sec with the plane
  detached vs attached, their ratio (``overhead``, target <= 1.10),
  frames/events merged and lost on the attached run, sideband bytes,
  and the isolation canaries — ``messages_equal`` (the protocol sent
  the same messages either way) and ``sideband_excluded``
  (``socket_bytes_delta``, the attached-minus-detached protocol-socket
  byte difference, is negligible next to the sideband's own volume:
  telemetry streams over a separate channel and never leaks into the
  protocol sockets' ``NetworkStats`` accounting).  v1–v7 files load
  unchanged.

Metric leaves are plain numbers; grouping keys (``"n=4"``) are strings so
the file diffs cleanly and loads without custom decoding.

The loader is deliberately defensive about the file itself: a bench run
killed mid-write used to leave a truncated file that poisoned every
later run, and two concurrent appenders could leave two concatenated
JSON documents.  :meth:`BenchTrajectory.load` refuses such files by
default (`ReproError`), and ``load(path, repair=True)`` salvages every
complete run object instead; :meth:`BenchTrajectory.save` writes through
a temp file + :func:`os.replace` so a crash can no longer truncate.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError

__all__ = ["SCHEMA_VERSION", "BenchRecord", "BenchTrajectory"]

SCHEMA_VERSION = 8

#: Versions the reader understands.  Older files simply lack the
#: optional ``bandwidth`` / ``obs`` / ``monitor`` / ``substrate`` /
#: ``protocol.profile`` / ``runtime`` / ``obs.plane`` metric sections,
#: so they load as-is.
SUPPORTED_SCHEMAS = (1, 2, 3, 4, 5, 6, 7, 8)


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark run: a label, a timestamp, and a metrics tree."""

    label: str
    timestamp: str
    metrics: Dict[str, Any]
    smoke: bool = False

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form used in the JSON file."""
        return {
            "label": self.label,
            "timestamp": self.timestamp,
            "smoke": self.smoke,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BenchRecord":
        """Inverse of :meth:`as_dict`; validates required keys."""
        try:
            return cls(
                label=str(payload["label"]),
                timestamp=str(payload["timestamp"]),
                smoke=bool(payload.get("smoke", False)),
                metrics=dict(payload["metrics"]),
            )
        except (KeyError, TypeError) as error:
            raise ReproError(f"malformed bench record: {error!r}") from error


@dataclass
class BenchTrajectory:
    """The append-only series of benchmark runs."""

    runs: List[BenchRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path, repair: bool = False) -> "BenchTrajectory":
        """Read a trajectory; a missing file yields an empty trajectory.

        With ``repair=False`` (the default) any damage — truncation,
        trailing garbage, concatenated documents, unknown schema — is a
        :class:`ReproError`, so callers never silently build on a partial
        series.  With ``repair=True`` the loader salvages instead: every
        structurally complete document is merged (concurrent-append case)
        and, failing that, every complete run object inside the damaged
        text is recovered (truncation case).
        """
        file = Path(path)
        if not file.exists():
            return cls()
        text = file.read_text(encoding="utf-8")
        documents, damaged, damage_offset = _scan_documents(text)
        if not repair:
            if damaged or not documents:
                raise ReproError(
                    f"malformed bench JSON {file}: "
                    f"{damaged or 'no JSON document found'} "
                    f"(use load(..., repair=True) to salvage complete runs)"
                )
            if len(documents) > 1:
                raise ReproError(
                    f"{file} holds {len(documents)} concatenated JSON "
                    f"documents — a concurrent append corrupted it "
                    f"(use load(..., repair=True) to merge them)"
                )
            return cls(runs=_runs_of(documents[0], file, strict=True))
        runs: List[BenchRecord] = []
        for document in documents:
            runs.extend(_runs_of(document, file, strict=False))
        if damaged:
            # Only the damaged tail is scavenged — complete documents
            # before it were already taken whole above.
            runs.extend(_salvage_runs(text[damage_offset:]))
        return cls(runs=runs)

    def save(self, path) -> None:
        """Write the trajectory atomically (temp file + rename).

        Stable key order and a trailing newline keep diffs clean; the
        rename guarantees readers see either the old file or the new one,
        never a truncated intermediate.
        """
        file = Path(path)
        payload = {
            "schema": SCHEMA_VERSION,
            "runs": [run.as_dict() for run in self.runs],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        tmp = file.with_name(file.name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, file)

    # ------------------------------------------------------------------
    # Recording and introspection
    # ------------------------------------------------------------------
    def append(self, record: BenchRecord) -> None:
        """Add one run to the series."""
        self.runs.append(record)

    def latest(self) -> Optional[BenchRecord]:
        """The most recent run, or None when empty."""
        return self.runs[-1] if self.runs else None

    def metric_series(self, *path: str) -> List[Any]:
        """The value at a metric path across all runs (missing -> None).

        >>> t = BenchTrajectory()
        >>> t.append(BenchRecord("a", "t0", {"kernel": {"events_per_sec": 2.0}}))
        >>> t.metric_series("kernel", "events_per_sec")
        [2.0]
        """
        series: List[Any] = []
        for run in self.runs:
            node: Any = run.metrics
            for key in path:
                if not isinstance(node, dict) or key not in node:
                    node = None
                    break
                node = node[key]
            series.append(node)
        return series

    def speedup(self, *path: str) -> Optional[float]:
        """latest/first ratio of a throughput metric, or None if undefined."""
        series = [v for v in self.metric_series(*path) if isinstance(v, (int, float))]
        if len(series) < 2 or not series[0]:
            return None
        return series[-1] / series[0]


# ----------------------------------------------------------------------
# File-shape helpers
# ----------------------------------------------------------------------
def _scan_documents(text: str) -> Tuple[List[Dict[str, Any]], str, int]:
    """Split ``text`` into complete JSON documents plus a damage note.

    Returns ``(documents, damage, damage_offset)`` where ``damage`` is an
    empty string for a clean file and a short description otherwise
    (truncated tail, non-JSON garbage, ...), and ``damage_offset`` is
    where the undecodable tail begins.  ``raw_decode`` walks concatenated
    documents, which is exactly the concurrent-append failure shape.
    """
    decoder = json.JSONDecoder()
    documents: List[Dict[str, Any]] = []
    index = 0
    length = len(text)
    while index < length:
        while index < length and text[index].isspace():
            index += 1
        if index >= length:
            break
        try:
            payload, end = decoder.raw_decode(text, index)
        except json.JSONDecodeError as error:
            return documents, f"undecodable from offset {index}: {error.msg}", index
        if isinstance(payload, dict):
            documents.append(payload)
        else:
            return documents, f"non-object document at offset {index}", index
        index = end
    return documents, "", length


def _runs_of(
    document: Dict[str, Any], file: Path, strict: bool
) -> List[BenchRecord]:
    """Extract the run records of one trajectory document."""
    if "runs" not in document:
        if strict:
            raise ReproError(f"{file} is not a bench trajectory (no 'runs')")
        return []
    schema = document.get("schema")
    if schema not in SUPPORTED_SCHEMAS:
        if strict:
            raise ReproError(
                f"{file} has schema {schema!r}, "
                f"expected one of {SUPPORTED_SCHEMAS}"
            )
        return []
    runs = document["runs"]
    if not isinstance(runs, list):
        if strict:
            raise ReproError(f"{file}: 'runs' is not a list")
        return []
    records = []
    for run in runs:
        try:
            records.append(BenchRecord.from_dict(run))
        except ReproError:
            if strict:
                raise
    return records


def _salvage_runs(text: str) -> List[BenchRecord]:
    """Recover complete run objects from a damaged trajectory file.

    Scans for the run-shaped objects inside a (possibly truncated)
    ``"runs": [...]`` array by decoding at every object start after the
    array opener; incomplete trailing objects simply fail to decode and
    are skipped.  Best effort by design — used only under
    ``load(..., repair=True)``.
    """
    marker = text.find('"runs"')
    if marker < 0:
        return []
    start = text.find("[", marker)
    if start < 0:
        return []
    decoder = json.JSONDecoder()
    records: List[BenchRecord] = []
    index = start + 1
    length = len(text)
    while index < length:
        while index < length and text[index] in " \t\r\n,":
            index += 1
        if index >= length or text[index] != "{":
            break
        try:
            payload, index = decoder.raw_decode(text, index)
        except json.JSONDecodeError:
            break
        try:
            records.append(BenchRecord.from_dict(payload))
        except ReproError:
            pass
    return records
