"""The frozen benchmark trajectory, E18's claim and the check gate.

``BENCH_substrate.json`` records PRs 1-15 and nothing writes it any
more: the schema handling of its reader
(:mod:`repro.analysis.benchjson`) is unit-tested here and the committed
file must keep loading and rendering.  From :mod:`repro.bench` this
file runs ``bench_check_gate`` at toy size; E18's delta-stamp claim is
measured here on its own burst workload.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.benchjson import (
    SCHEMA_VERSION,
    BenchRecord,
    BenchTrajectory,
)
from repro.errors import ReproError


def test_committed_trajectory_loads_and_renders(capsys):
    """The frozen record stays readable: ten runs, one table row each."""
    from repro.harness.cli import main

    path = Path(__file__).resolve().parent.parent / "BENCH_substrate.json"
    labels = [run.label for run in BenchTrajectory.load(path).runs]
    assert len(labels) == 10
    assert (labels[0], labels[-1]) == ("baseline-seed", "pr15-checker")

    assert main(["report", "--bench", str(path)]) == 0
    table = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("|")
    ]
    header, rows = table[0], table[2:]  # table[1] is the |---| rule
    assert [row[0] for row in rows] == labels
    plane = header.index("plane overhead")
    # A run older than a section renders it as '-', not as an error.
    assert rows[0][plane] == "-"
    assert rows[-1][plane] == "1.06"


def test_load_missing_file_is_empty(tmp_path):
    trajectory = BenchTrajectory.load(tmp_path / "absent.json")
    assert trajectory.runs == []
    assert trajectory.latest() is None


def test_load_rejects_malformed_and_wrong_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ReproError):
        BenchTrajectory.load(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema": 99, "runs": []}))
    with pytest.raises(ReproError):
        BenchTrajectory.load(wrong)


def test_e18_fast_path_claim_at_n8():
    """E18 (DESIGN.md experiment index): at n = 8 on the mixed workload
    with write bursts, delta stamps cut stamp entries per op by at least
    30 % (measured 54.3 %) and bytes per op by at least 15 % (measured
    22.6 %) while changing no message: equal counts, equal histories."""
    from repro.protocols.base import DSMCluster

    n_nodes, ops_per_proc = 8, 120

    def process(api, me):
        for i in range(ops_per_proc):
            step = i % 6
            if step < 2:
                # Back-to-back writes to the processor's hot location
                # (a solver updating its component).
                yield api.write(f"loc{me}", i)
            elif step == 2:
                yield api.write(f"loc{me}.{i % 4}", i)
            else:
                yield api.read(f"loc{(me + i) % n_nodes}")

    def run(delta_stamps):
        cluster = DSMCluster(
            n_nodes, protocol="causal", seed=5, delta_stamps=delta_stamps
        )
        for node in range(n_nodes):
            cluster.spawn(node, process, node)
        cluster.run()
        return cluster

    full, delta = run(False), run(True)
    assert delta.stats.total == full.stats.total == 1708
    assert delta.history().to_text() == full.history().to_text()
    # Same op count on both sides, so totals compare as per-op figures.
    assert 1 - delta.stats.stamp_entries / full.stats.stamp_entries >= 0.30
    assert 1 - delta.stats.bytes_total / full.stats.bytes_total >= 0.15


def _current_file(path, labels):
    """A trajectory saved at the current schema."""
    trajectory = BenchTrajectory()
    for label in labels:
        trajectory.append(
            BenchRecord(label, "t0", {"kernel": {"events_per_sec": 1.0}})
        )
    trajectory.save(path)
    return path.read_text()


def test_saved_files_carry_schema_v8():
    assert SCHEMA_VERSION == 8


def test_v8_obs_plane_section_round_trips(tmp_path):
    """The v8 ``obs.plane`` subtree survives save/load."""
    file = tmp_path / "v8.json"
    plane = {
        "nodes": 3,
        "ops": 75,
        "detached_ops_per_sec": 520.0,
        "attached_ops_per_sec": 495.0,
        "overhead": 1.05,
        "frames_merged": 22,
        "events_merged": 274,
        "frames_lost": 0,
        "events_lost": 0,
        "sideband_bytes": 47604,
        "messages_equal": True,
        "socket_bytes_delta": 0,
        "sideband_excluded": True,
    }
    trajectory = BenchTrajectory()
    trajectory.append(
        BenchRecord("pr10", "t0", {"obs": {"plane": plane}})
    )
    trajectory.save(file)
    loaded = BenchTrajectory.load(file)
    assert loaded.latest().metrics["obs"]["plane"] == plane
    assert loaded.metric_series("obs", "plane", "overhead") == [1.05]


def test_v7_runtime_live_section_round_trips(tmp_path):
    """The v7 ``runtime.live`` subtree survives save/load."""
    file = tmp_path / "v7.json"
    live = {
        "transport": "uds",
        "nodes": 3,
        "ops": 90,
        "elapsed_s": 0.21,
        "ops_per_sec": 428.5,
        "sim_ops_per_sec": 5100.0,
        "latency_p50_ms": 0.05,
        "latency_p95_ms": 6.1,
        "latency_p99_ms": 19.0,
        "messages": 120,
        "model_bytes_per_op": 41.4,
        "socket_bytes_per_op": 196.3,
        "framing_overhead": 4.7,
        "verdicts_equal": True,
    }
    trajectory = BenchTrajectory()
    trajectory.append(
        BenchRecord("pr9", "t0", {"runtime": {"live": live}})
    )
    trajectory.save(file)
    loaded = BenchTrajectory.load(file)
    assert loaded.latest().metrics["runtime"]["live"] == live
    assert loaded.metric_series("runtime", "live", "ops_per_sec") == [428.5]


def test_v6_profile_section_round_trips(tmp_path):
    """The v6 ``protocol.profile`` subtree survives save/load."""
    file = tmp_path / "v6.json"
    profile = {
        "workload": "n=16",
        "ops": 3200,
        "sort": "cumulative",
        "total_time": 1.25,
        "top": [
            {"function": "run", "file": "kernel.py", "line": 389,
             "ncalls": 1, "tottime": 0.04, "cumtime": 1.2},
            {"function": "update", "file": "vector_clock.py", "line": 117,
             "ncalls": 10192, "tottime": 0.05, "cumtime": 0.17},
        ],
    }
    trajectory = BenchTrajectory()
    trajectory.append(
        BenchRecord("pr8", "t0", {"protocol": {"profile": profile}})
    )
    trajectory.save(file)
    loaded = BenchTrajectory.load(file)
    assert loaded.latest().metrics["protocol"]["profile"] == profile
    assert loaded.metric_series("protocol", "profile", "total_time") == [1.25]


def test_v5_substrate_section_round_trips(tmp_path):
    """The v5 ``substrate.vectorised`` subtree survives save/load."""
    file = tmp_path / "v5.json"
    vectorised = {
        "n=64": {
            "sweep": {"speedup": 4.5, "masks_equal": True},
            "protocol": {"speedup": 0.95},
        }
    }
    trajectory = BenchTrajectory()
    trajectory.append(
        BenchRecord("pr7", "t0", {"substrate": {"vectorised": vectorised}})
    )
    trajectory.save(file)
    loaded = BenchTrajectory.load(file)
    assert loaded.latest().metrics["substrate"]["vectorised"] == vectorised


@pytest.mark.parametrize("schema", [1, 2, 3, 4, 5, 6])
def test_older_schema_files_load_unchanged(tmp_path, schema):
    legacy = tmp_path / f"v{schema}.json"
    legacy.write_text(json.dumps({
        "schema": schema,
        "runs": [{
            "label": "pr2", "timestamp": "t0", "smoke": False,
            "metrics": {"kernel": {"events_per_sec": 5.0}},
        }],
    }))
    trajectory = BenchTrajectory.load(legacy)
    assert [r.label for r in trajectory.runs] == ["pr2"]
    # Older runs simply lack the sections their schema predates.
    assert "monitor" not in trajectory.latest().metrics
    # Appending and saving upgrades the file to the current schema.
    trajectory.append(
        BenchRecord("pr6", "t1", {"monitor": {"events_per_sec": 9.0}})
    )
    trajectory.save(legacy)
    assert json.loads(legacy.read_text())["schema"] == SCHEMA_VERSION
    series = BenchTrajectory.load(legacy).metric_series(
        "monitor", "events_per_sec"
    )
    assert series == [None, 9.0]


def test_truncated_file_rejected_then_repaired(tmp_path):
    file = tmp_path / "trunc.json"
    text = _current_file(file, ["one", "two"])
    # Kill the writer mid-flight: drop the tail of the second run object.
    file.write_text(text[: int(len(text) * 0.7)])
    with pytest.raises(ReproError, match="repair=True"):
        BenchTrajectory.load(file)
    salvaged = BenchTrajectory.load(file, repair=True)
    assert [r.label for r in salvaged.runs] == ["one"]


def test_concatenated_documents_rejected_then_merged(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    file = tmp_path / "both.json"
    file.write_text(_current_file(a, ["first"]) + _current_file(b, ["second"]))
    with pytest.raises(ReproError, match="concatenated"):
        BenchTrajectory.load(file)
    merged = BenchTrajectory.load(file, repair=True)
    assert [r.label for r in merged.runs] == ["first", "second"]


def test_repair_does_not_double_count_complete_documents(tmp_path):
    """A complete document followed by a truncated one must yield the
    complete document's runs exactly once plus the salvageable tail."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    whole = _current_file(a, ["kept"])
    tail = _current_file(b, ["salvaged", "lost"])
    file = tmp_path / "mixed.json"
    file.write_text(whole + tail[: int(len(tail) * 0.7)])
    repaired = BenchTrajectory.load(file, repair=True)
    assert [r.label for r in repaired.runs] == ["kept", "salvaged"]


def test_save_is_atomic_and_leaves_no_temp_file(tmp_path):
    file = tmp_path / "out.json"
    _current_file(file, ["a"])
    assert json.loads(file.read_text())["schema"] == SCHEMA_VERSION
    assert list(tmp_path.iterdir()) == [file]


def test_speedup_is_latest_over_first():
    trajectory = BenchTrajectory()
    trajectory.append(
        BenchRecord("a", "t0", {"kernel": {"events_per_sec": 100.0}})
    )
    trajectory.append(
        BenchRecord("b", "t1", {"kernel": {"events_per_sec": 250.0}})
    )
    assert trajectory.speedup("kernel", "events_per_sec") == pytest.approx(2.5)
    assert trajectory.speedup("kernel", "missing") is None


def test_the_ci_check_gate_runs_at_toy_size():
    """`bench_check_gate` as CI's `check-gate` job calls it, smaller."""
    from repro.bench import CHECK_GATE_RATIO, bench_check_gate

    gate = bench_check_gate(rounds=2, ops_per_proc=20)
    assert gate["causal"] and gate["ops"] == 160 and gate["rounds"] == 2
    assert gate["check_over_sim"] == pytest.approx(
        gate["check_ops_per_sec"] / gate["sim_ops_per_sec"]
    )
    assert CHECK_GATE_RATIO > 1  # verifying a run is cheaper than producing it


def test_the_ci_long_history_gate_runs_at_toy_size():
    """The `check-gate` job's second call (`rounds=3, ops_per_proc=1000`:
    verifying an 8 000-op run stays cheaper than producing it), smaller;
    the ratio itself is CI's to assert, tier-1 reads no clock."""
    from repro.bench import bench_check_gate

    gate = bench_check_gate(rounds=3, ops_per_proc=40)
    assert gate["causal"] and gate["ops"] == 320 and gate["rounds"] == 3
    assert gate["check_over_sim"] > 0
