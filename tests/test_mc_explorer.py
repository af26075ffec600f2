"""The schedule explorer: determinism, replay, pruning soundness."""

import json
import random

import pytest

from repro.mc import (
    Counterexample,
    ExploreConfig,
    McError,
    ReplayMismatch,
    ControlledRun,
    explore,
    make_spec,
    preset,
    random_program,
    replay,
    replay_trace,
    run_controlled,
)
from repro.mc.__main__ import main as mc_main
from repro.runtime.scenarios import SCENARIOS


def _random_chooser(seed):
    rng = random.Random(seed)

    def choose(actions, run):
        return actions[rng.randrange(len(actions))]

    return choose


class TestControlledRun:
    def test_follows_one_full_schedule(self):
        spec = preset("fig5")
        outcome = run_controlled(spec, _random_chooser(7))
        assert outcome.clean
        assert len(outcome.history) == spec.n_ops
        assert outcome.trace  # something was scheduled

    def test_channel_fifo_only_head_selectable(self):
        """At every decision point, one delivery per directed channel."""
        spec = random_program(seed=3, protocol="causal", ops_per_proc=3)
        rng = random.Random(11)

        def choose(actions, run):
            channels = [
                (key[1], key[2]) for kind, key in actions
                if kind == "x" and key[0] == "m"
            ]
            assert len(channels) == len(set(channels)), actions
            return actions[rng.randrange(len(actions))]

        assert run_controlled(spec, choose).clean

    def test_applying_unselectable_action_raises(self):
        run = ControlledRun(preset("fig5"))
        with pytest.raises(McError):
            run.apply(("x", ("m", 0, 1, 99)))

    def test_drop_budget_enforced(self):
        run = ControlledRun(preset("fig5"), max_drops=0)
        # Drain until a delivery is selectable, then try to drop it.
        for _ in range(1000):
            actions = run.actions()
            deliveries = [key for kind, key in actions if key[0] == "m"]
            if deliveries:
                with pytest.raises(McError):
                    run.apply(("d", deliveries[0]))
                return
            if not actions:
                pytest.fail("no delivery ever became selectable")
            run.apply(actions[0])

    def test_replay_reproduces_trace_and_history(self):
        spec = random_program(seed=5, protocol="atomic", ops_per_proc=3)
        outcome = run_controlled(spec, _random_chooser(23))
        again = replay_trace(spec, outcome.trace)
        assert again.trace == outcome.trace
        assert again.history.to_text() == outcome.history.to_text()


class TestDeterminism:
    @pytest.mark.parametrize("strategy", ["dfs", "random", "pct"])
    def test_same_seed_same_result(self, strategy):
        """Two runs with one config are indistinguishable, verdicts and all."""
        spec = preset("fig3")
        config = ExploreConfig(
            strategy=strategy,
            seed=9,
            max_schedules=60,
            expected_model="causal",
        )
        first = explore(spec, config)
        second = explore(spec, config)
        assert first.to_jsonable() == second.to_jsonable()
        assert [cex.trace for cex in first.violations] == [
            cex.trace for cex in second.violations
        ]
        assert [cex.verdicts for cex in first.violations] == [
            cex.verdicts for cex in second.violations
        ]

    def test_different_seeds_differ(self):
        """The seed actually steers randomized search."""
        spec = preset("fig3")
        traces = set()
        for seed in range(3):
            config = ExploreConfig(
                strategy="random", seed=seed, max_schedules=1
            )
            run = explore(spec, config)
            assert run.schedules == 1
            traces.add(run.distinct_histories)
        # Weak but deterministic: at least the runs executed.
        assert traces


class TestDFS:
    def test_exhausts_small_space_with_zero_violations(self):
        spec = random_program(
            seed=0, protocol="causal", n_procs=3, n_locations=2,
            ops_per_proc=3,
        )
        result = explore(spec, ExploreConfig(strategy="dfs",
                                             max_schedules=500_000))
        assert result.exhausted
        assert result.ok
        assert result.completed > 0
        assert result.blocked == 0 and result.crashes == 0

    @pytest.mark.parametrize("protocol", ["causal", "broadcast", "li"])
    def test_pruning_is_sound(self, protocol):
        """Pruned and unpruned DFS see the same behaviours."""
        spec = random_program(
            seed=4, protocol=protocol, n_procs=2, n_locations=2,
            ops_per_proc=2,
        )
        pruned = explore(spec, ExploreConfig(strategy="dfs",
                                             max_schedules=500_000))
        full = explore(spec, ExploreConfig(strategy="dfs", prune=False,
                                           max_schedules=500_000))
        assert pruned.exhausted and full.exhausted
        assert pruned.distinct_histories == full.distinct_histories
        assert len(pruned.violations) == len(full.violations)
        assert pruned.schedules <= full.schedules

    def test_pruning_actually_prunes(self):
        spec = preset("fig5")
        result = explore(spec, ExploreConfig(strategy="dfs",
                                             max_schedules=500_000))
        assert result.exhausted
        assert result.pruned > 0


class TestDrops:
    def test_drops_block_but_do_not_violate(self):
        """Lost messages block the paper's protocols; that is not a bug."""
        spec = preset("fig5")
        result = explore(spec, ExploreConfig(
            strategy="random", seed=1, max_schedules=150, max_drops=1,
        ))
        assert result.blocked > 0
        assert result.ok


class TestCounterexamples:
    def _fig5_cex(self):
        result = explore(preset("fig5"), ExploreConfig(
            strategy="dfs", max_schedules=2000,
            expected_model="sequential", stop_on_violation=True,
        ))
        assert result.violations
        return result.violations[0]

    def test_json_round_trip(self, tmp_path):
        cex = self._fig5_cex()
        path = tmp_path / "cex.json"
        cex.save(path)
        loaded = Counterexample.load(path)
        assert loaded == cex
        # And the file is honest JSON, usable as a CI artifact.
        payload = json.loads(path.read_text())
        assert payload["kind"] == "consistency"
        assert payload["model"] == "sequential"

    def test_replay_reproduces(self):
        cex = self._fig5_cex()
        outcome = replay(cex)
        assert outcome.history.to_text() == cex.history_text

    def test_replay_detects_drift(self):
        cex = self._fig5_cex()
        # Claim the history violates causal consistency (it does not —
        # Figure 5 is the causal-but-not-sequential execution).
        tampered = Counterexample(
            spec=cex.spec,
            trace=cex.trace,
            kind="consistency",
            model="causal",
            description=cex.description,
            history_text=cex.history_text,
            verdicts={"causal": False},
        )
        with pytest.raises(ReplayMismatch):
            replay(tampered)


class TestProgramSpec:
    def test_rejects_bad_ops(self):
        with pytest.raises(McError):
            make_spec([[("q", "x")]])

    def test_without_op(self):
        spec = preset("fig3")
        smaller = spec.without_op(1, 0)
        assert smaller.n_ops == spec.n_ops - 1
        assert smaller.processes[1][0] == ("r", "y")

    def test_spec_round_trip(self):
        for name in ("fig3", "inflight-tasks"):
            spec = preset(name)
            assert spec.from_jsonable(
                json.loads(json.dumps(spec.to_jsonable()))
            ) == spec

    def test_two_processes_on_one_node_are_two_tasks(self):
        spec = preset("inflight-tasks")
        assert (spec.n_procs, spec.n_nodes, spec.nodes) == (3, 3, (1, 2, 1))
        assert spec.without_op(1, 0).nodes == spec.nodes
        assert spec.describe().splitlines()[2] == "P1: r(y)"
        run = ControlledRun(spec)
        assert run.units_of(("x", ("t", "P2", 0))) == (("n", 1),)
        with pytest.raises(McError, match="place every process"):
            make_spec([[("r", "x")], [("r", "x")]], nodes=(0,))


#: ``preset(...).to_jsonable()`` as the hand-written ``_fig3_spec`` /
#: ``_fig5_spec`` produced it (counterexample files embed this form).
PRESET_LITERALS = {
    "fig3": {
        "protocol": "broadcast",
        "processes": [
            [["w", "x", 5], ["w", "y", 3]],
            [["w", "x", 2], ["r", "y"], ["r", "x"], ["w", "z", 4]],
            [["r", "z"], ["r", "x"]],
        ],
        "owners": [["x", 0], ["y", 1], ["z", 2]],
        "initial_value": 0,
    },
    "fig5": {
        "protocol": "causal",
        "processes": [
            [["r", "y"], ["w", "x", 1], ["r", "y"]],
            [["r", "x"], ["w", "y", 1], ["r", "x"]],
        ],
        "owners": [["x", 0], ["y", 1]],
        "initial_value": 0,
    },
}


class TestFigurePresets:
    """The explorer's figures are the registry's, wait steps stripped."""

    @pytest.mark.parametrize("name", sorted(PRESET_LITERALS))
    def test_preset_is_the_registry_program(self, name):
        figure = SCENARIOS[name]
        spec = preset(name)
        assert spec.to_jsonable() == PRESET_LITERALS[name]
        assert spec == make_spec(
            figure.wait_free, protocol=figure.protocol, owners=figure.owners
        )
        assert spec.n_procs == figure.n_nodes

    @pytest.mark.parametrize("op", [("await", "y", 3), ("sleep", 2.0)])
    def test_explorer_programs_stay_wait_free(self, op):
        with pytest.raises(McError, match="malformed op"):
            make_spec([[("w", "x", 1), op]])


class TestCli:
    def test_explore_clean_program_exits_zero(self, capsys):
        code = mc_main([
            "explore", "--program", "fig5", "--strategy", "dfs",
            "--max-schedules", "500",
        ])
        assert code == 0
        assert "violations: 0" in capsys.readouterr().out

    def test_explore_expect_violation_and_replay(self, tmp_path, capsys):
        path = tmp_path / "fig5.json"
        code = mc_main([
            "explore", "--program", "fig5", "--model", "sequential",
            "--expect-violation", "--save", str(path),
        ])
        assert code == 0
        assert path.exists()
        capsys.readouterr()  # discard the explore report
        code = mc_main(["replay", str(path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reproduced"] is True

    def test_harness_cli_forwards_explore(self, capsys):
        from repro.harness.cli import main as harness_main

        code = harness_main([
            "explore", "--program", "fig5", "--strategy", "dfs",
            "--max-schedules", "200",
        ])
        assert code == 0
        assert "explored" in capsys.readouterr().out
