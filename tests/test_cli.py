"""Unit tests for the repro CLI."""

import pytest

from repro.harness.cli import main


class TestCLI:
    def test_list_returns_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "solver-table" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_single_experiment_runs(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "[E1]" in out
        assert "status: PASS" in out

    def test_figure2_output_contains_live_sets(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "alpha(r1(z)5)" in out

    def test_unknown_command_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["no-such-experiment"])

    def test_bench_is_not_a_subcommand(self, capsys):
        """Timing is `python -m perf`'s; no forwarder to `repro.bench`."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_report_has_no_bench_flag(self, capsys):
        """`report` prints EXPERIMENTS.md and nothing else; the frozen
        trajectory it once rendered lives in `results/` as markdown."""
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--bench"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --bench" in capsys.readouterr().err

    def test_write_behind_experiment_runs(self, capsys):
        assert main(["write-behind"]) == 0
        assert "E13" in capsys.readouterr().out


class TestSaveAndBaseline:
    def _quick_registry(self, monkeypatch):
        """Shrink the registry so `all` stays fast in unit tests."""
        import repro.harness.cli as cli_module
        from repro.harness.experiments import EXPERIMENTS

        small = {name: EXPERIMENTS[name] for name in ("fig1", "fig2")}
        monkeypatch.setattr(cli_module, "EXPERIMENTS", small)

    def test_all_with_save_writes_results(self, tmp_path, capsys, monkeypatch):
        self._quick_registry(monkeypatch)
        path = tmp_path / "results.json"
        assert main(["all", "--save", str(path)]) == 0
        out = capsys.readouterr().out
        assert "results written" in out
        from repro.analysis.results import ResultsStore

        store = ResultsStore.load(path)
        assert store.passed("fig1") and store.passed("fig2")

    def test_all_with_matching_baseline_reports_no_drift(
        self, tmp_path, capsys, monkeypatch
    ):
        self._quick_registry(monkeypatch)
        path = tmp_path / "baseline.json"
        main(["all", "--save", str(path)])
        capsys.readouterr()
        assert main(["all", "--baseline", str(path)]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_all_with_stale_baseline_reports_drift(
        self, tmp_path, capsys, monkeypatch
    ):
        self._quick_registry(monkeypatch)
        from repro.analysis.results import ResultsStore

        stale = ResultsStore()
        stale.record("fig1", passed=False, data={})
        path = tmp_path / "stale.json"
        stale.save(path)
        main(["all", "--baseline", str(path)])
        assert "drift" in capsys.readouterr().out


class TestMonitorCommand:
    def test_fig4_scenario_passes(self, capsys):
        assert main(["monitor", "--scenario", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "CAUSAL" in out and "reads checked" in out

    def test_fig3_scenario_flags_violation(self, capsys):
        assert main(["monitor", "--scenario", "fig3"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out and "stale-source" in out

    def test_fig5_scenario_has_two_processes(self, capsys):
        """The monitor is sized from the registry entry, not a constant."""
        assert main(["monitor", "--scenario", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "scenario fig5: CAUSAL" in out
        assert "4 reads checked over 6 ops" in out

    def test_trace_fig5_chrome_export_validates(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        path = tmp_path / "fig5.trace.json"
        assert main(["trace", "--scenario", "fig5", "--format", "chrome",
                     "--output", str(path)]) == 0
        assert "fig5: 36 events (chrome)" in capsys.readouterr().out
        validate_chrome_trace(json.loads(path.read_text()))

    def test_expect_violation_inverts_exit_code(self, capsys):
        assert main(["monitor", "--scenario", "fig3",
                     "--expect-violation"]) == 0
        assert main(["monitor", "--scenario", "fig4",
                     "--expect-violation"]) == 1
        capsys.readouterr()

    def test_from_trace_replays_exported_json(self, tmp_path, capsys):
        trace = tmp_path / "fig3.json"
        assert main(["trace", "--scenario", "fig3", "--format", "json",
                     "--output", str(trace)]) == 0
        assert main(["monitor", "--from-trace", str(trace),
                     "--expect-violation"]) == 0
        out = capsys.readouterr().out
        assert "VIOLATION" in out

    def test_counterexample_written_and_replayable(self, tmp_path, capsys):
        from repro.mc.counterexample import Counterexample, replay

        path = tmp_path / "cex.json"
        assert main(["monitor", "--scenario", "fig3", "--expect-violation",
                     "--counterexample", str(path)]) == 0
        assert "format v2" in capsys.readouterr().out
        outcome = replay(Counterexample.load(path))
        from repro.checker import check_causal
        assert not check_causal(outcome.history).ok
