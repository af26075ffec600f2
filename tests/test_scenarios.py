"""Integration tests for the deterministic paper scenarios."""

import hashlib
import json

import pytest

from repro.apps import figures
from repro.checker import check_causal, check_sequential
from repro.harness.scenarios import (
    run_discard_liveness,
    run_figure3_on_broadcast,
    run_figure5_on_causal,
)
from repro.mc import make_spec, run_controlled, scheduler
from repro.obs import TraceCollector, run_traced_figure3, run_traced_figure4
from repro.protocols.base import DSMCluster
from repro.runtime.scenarios import (
    SCENARIO_OWNERS,
    SCENARIOS,
    SIM_TICK,
    Scenario,
    run_scenario_sim,
)


class TestFigure3Scenario:
    def test_shape_matches_paper(self, figure3):
        assert run_figure3_on_broadcast().to_text() == figure3.to_text()

    def test_not_causal(self):
        assert not check_causal(run_figure3_on_broadcast()).ok

    def test_violating_read_is_p3s_x_read(self):
        result = check_causal(run_figure3_on_broadcast())
        assert [v.read.op_id for v in result.violations] == [(2, 1)]


class TestFigure5Scenario:
    def test_shape_matches_paper(self, figure5):
        assert run_figure5_on_causal().to_text() == figure5.to_text()

    def test_causal_but_not_sequential(self):
        history = run_figure5_on_causal()
        assert check_causal(history).ok
        assert not check_sequential(history, want_witness=False).ok


class TestDiscardLiveness:
    def test_without_discard_no_communication_after_warmup(self):
        outcome = run_discard_liveness(with_discard=False, rounds=8)
        assert outcome.messages_after_warmup == 0
        assert not outcome.observed_fresh_values
        # Both nodes are frozen at the other's *initial* value.
        assert outcome.final_observed == (0, 0)

    def test_with_discard_fresh_values_observed(self):
        outcome = run_discard_liveness(with_discard=True, rounds=8)
        assert outcome.observed_fresh_values
        # Two messages per refetch per node per round.
        assert outcome.messages_after_warmup >= 2 * 2 * 8

    def test_with_discard_costs_two_messages_per_refetch(self):
        # E11: 2 nodes, one refetch per round, request + reply each.
        outcome = run_discard_liveness(with_discard=True, rounds=10)
        assert outcome.messages_after_warmup == 2 * 2 * 10

    def test_authoritative_values_reach_round_count(self):
        outcome = run_discard_liveness(with_discard=True, rounds=8)
        assert outcome.final_authoritative == (8, 8)


def _digest(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: ``History.to_text()`` and raw-trace digests of every registry scenario
#: under the simulator, recorded from the hand-written generators these
#: programs replaced (the last commit that had them).
GOLDEN = {
    "fig3": ("778de1285f4485f8", "e346006cb4fa43dd"),
    "fig4": ("fe3adedce339f5ff", "1586d1d73b24a759"),
    "fig5": ("2f728057d287783b", "fa56cd12ea296127"),
}


class TestRegistryDefinedOnce:
    """Every front-end runs the one program of ``repro.apps.figures``."""

    def test_goldens_cover_the_registry(self):
        assert sorted(GOLDEN) == sorted(SCENARIOS)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_history_and_trace_match_the_hand_written_runs(self, name, seed):
        collector = TraceCollector()
        history = run_scenario_sim(name, seed=seed, collector=collector)
        assert (
            _digest(history.to_text()), _digest(collector.to_jsonable())
        ) == GOLDEN[name]

    @pytest.mark.parametrize(
        "name, runner",
        [("fig3", run_traced_figure3), ("fig4", run_traced_figure4)],
    )
    def test_traced_runners_are_the_sim_runner(self, name, runner):
        collector = TraceCollector()
        history = run_scenario_sim(name, collector=collector)
        run = runner()
        assert run.collector.to_jsonable() == collector.to_jsonable()
        assert run.history.to_text() == history.to_text()
        assert (run.scenario, run.protocol, run.n_nodes) == (
            name, SCENARIOS[name].protocol, SCENARIOS[name].n_nodes
        )

    def test_owner_maps_and_namespaces_derive_from_owners(self):
        for name, spec in SCENARIOS.items():
            assert SCENARIO_OWNERS[name] is spec.owners
            namespace = spec.namespace()
            assert all(
                namespace.owner(location) == node
                for location, node in spec.owners.items()
            )


class TestOneInterpreter:
    """All five op kinds through ``Scenario.spawn``; the wait-free rest
    through the explorer — the same ``program_process`` both times."""

    DEMO = Scenario(
        protocol="causal",
        processes=(
            (("sleep", 3.0), ("w", "x", 1), ("w", "y", 2)),
            (("r", "x"), ("await", "y", 2), ("d", "x"), ("r", "x")),
        ),
        tasks=("A", "B"),
        owners={"x": 0, "y": 1},
        expect_causal=True,
    )

    def _run(self, tick):
        cluster = DSMCluster(2, protocol="causal", namespace=self.DEMO.namespace())
        self.DEMO.spawn(cluster, tick)
        cluster.run()
        return cluster

    def test_timed_run_records_history_and_finishes_on_time(self):
        cluster = self._run(SIM_TICK)
        assert cluster.history().to_text() == (
            "P1: w(x)1 w(y)2\nP2: r(x)0 r(x)1"
        )
        # 3 ticks of sleep, y's write reaching its owner B (1), then B's
        # re-fetch of the discarded x (1 + 1).
        assert cluster.sim.now == 6.0
        assert [task.name for task in cluster.scheduler.tasks] == ["A", "B"]
        # The sleep is the only step a tick scales.
        assert self._run(2 * SIM_TICK).sim.now == 9.0

    def test_wait_free_rest_runs_under_the_explorer(self):
        assert scheduler.program_process is figures.program_process
        assert self.DEMO.wait_free == (
            (("w", "x", 1), ("w", "y", 2)),
            (("r", "x"), ("d", "x"), ("r", "x")),
        )
        spec = make_spec(
            self.DEMO.wait_free, protocol="causal", owners=self.DEMO.owners
        )
        outcome = run_controlled(spec, lambda actions, run: actions[0])
        assert outcome.clean
        assert [
            [(op.kind, op.location) for op in ops]
            for ops in outcome.history.processes
        ] == [[("w", "x"), ("w", "y")], [("r", "x"), ("r", "x")]]

    def test_unknown_op_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown op"):
            list(figures.program_process(None, [("x", "y")]))
