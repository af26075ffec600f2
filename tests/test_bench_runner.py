"""The ``python -m repro.bench`` runner and its JSON trajectory.

Runs the real suite in ``--smoke`` mode (seconds, not minutes) so the
benchmark entry point cannot bit-rot, and unit-tests the persistence
layer's schema handling.
"""

import json

import pytest

from repro.analysis.benchjson import (
    SCHEMA_VERSION,
    BenchRecord,
    BenchTrajectory,
)
from repro.bench import main, run_suite
from repro.errors import ReproError


def test_smoke_suite_produces_all_metric_groups():
    metrics = run_suite(node_counts=(2,), smoke=True)
    assert metrics["kernel"]["events_per_sec"] > 0
    protocol = metrics["protocol"]["n=2"]
    assert protocol["ops_per_sec"] > 0
    assert protocol["messages"] > 0
    assert protocol["sweeps_performed"] >= 0
    assert protocol["sweeps_skipped"] >= 0
    checker = metrics["checker"]["n=2"]
    assert checker["ops_per_sec"] > 0
    assert checker["ops"] > 0
    monitor = metrics["monitor"]
    assert monitor["causal"] is True
    assert monitor["events_per_sec"] > 0
    assert monitor["reads_checked"] > 0
    for ratio in ("attached_overhead", "hook_overhead", "monitor_overhead",
                  "total_overhead"):
        assert isinstance(monitor[ratio], float)
    assert monitor["max_window"] > 0
    assert monitor["observe_p99_us"] >= monitor["observe_p50_us"] >= 0


def test_cli_smoke_appends_runs_to_trajectory(tmp_path, capsys):
    output = tmp_path / "BENCH_substrate.json"
    argv = ["--smoke", "--nodes", "2", "--output", str(output)]
    assert main(argv + ["--label", "first"]) == 0
    assert main(argv + ["--label", "second"]) == 0
    capsys.readouterr()

    payload = json.loads(output.read_text())
    assert payload["schema"] == SCHEMA_VERSION
    assert [run["label"] for run in payload["runs"]] == ["first", "second"]
    assert all(run["smoke"] for run in payload["runs"])

    trajectory = BenchTrajectory.load(output)
    assert trajectory.latest().label == "second"
    series = trajectory.metric_series("kernel", "events_per_sec")
    assert len(series) == 2 and all(v > 0 for v in series)


def test_cli_no_save_leaves_no_file(tmp_path, capsys):
    output = tmp_path / "BENCH_substrate.json"
    argv = ["--smoke", "--nodes", "2", "--output", str(output), "--no-save"]
    assert main(argv) == 0
    capsys.readouterr()
    assert not output.exists()


def test_cli_rejects_corrupt_trajectory_before_benchmarking(tmp_path, capsys):
    output = tmp_path / "bad.json"
    output.write_text("{broken")
    assert main(["--smoke", "--nodes", "2", "--output", str(output)]) == 1
    err = capsys.readouterr().err
    assert "malformed bench JSON" in err
    # Fails fast: no benchmark progress lines were emitted before the error.
    assert "kernel" not in err


def test_cli_rejects_non_positive_node_counts(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--smoke", "--nodes", "0", "--no-save"])
    assert excinfo.value.code == 2
    assert "positive node count" in capsys.readouterr().err


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


def test_smoke_suite_includes_bandwidth_section():
    metrics = run_suite(node_counts=(2,), smoke=True)
    bandwidth = metrics["bandwidth"]["n=2"]
    for side in ("baseline", "fastpath"):
        assert bandwidth[side]["bytes_per_op"] > 0
        assert bandwidth[side]["stamp_entries_per_op"] > 0
    assert "bytes_per_op_reduction" in bandwidth
    assert "stamp_entries_per_op_reduction" in bandwidth
    assert bandwidth["fastpath"]["batch_occupancy"] >= 1.0


def test_e18_fast_path_claim_at_n8():
    """E18 (DESIGN.md experiment index): at n = 8 on the mixed workload
    with write bursts, batching plus delta stamps cut bytes or stamp
    entries per op by at least 30 % and strictly reduce the message
    count."""
    from repro.bench import bench_bandwidth

    report = bench_bandwidth(n_nodes=8, ops_per_proc=120, repeats=1)
    assert (
        report["bytes_per_op_reduction"] >= 0.30
        or report["stamp_entries_per_op_reduction"] >= 0.30
    ), report
    assert report["fastpath"]["messages"] < report["baseline"]["messages"]
    assert report["fastpath"]["batch_occupancy"] > 1.0


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


def test_profile_flag_records_top_table():
    """--profile adds a cProfile top-N table under protocol.profile."""
    from repro.bench import profile_protocol

    profile = profile_protocol(2, 30, top=8)
    assert profile["workload"] == "n=2"
    assert profile["sort"] == "cumulative"
    assert profile["total_time"] > 0
    assert 0 < len(profile["top"]) <= 8
    for row in profile["top"]:
        assert set(row) == {
            "function", "file", "line", "ncalls", "tottime", "cumtime",
        }
        assert row["cumtime"] >= row["tottime"] >= 0
    # Sorted by cumulative time, descending.
    cumtimes = [row["cumtime"] for row in profile["top"]]
    assert cumtimes == sorted(cumtimes, reverse=True)


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
