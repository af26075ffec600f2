"""Paper anomalies re-derived by the explorer, not by hand.

The scenario harness (:mod:`repro.harness.scenarios`) *constructs* the
Figure 3 and Figure 5 executions with hand-placed watches; these tests
make the explorer *find* them from nothing but the program and the
protocol — and then shrink them, asserting the search needs no more
operations than the hand-written scenarios use.
"""

from pathlib import Path

import pytest

from repro.checker import check_causal, check_sequential, check_slow
from repro.mc import (
    ControlledRun,
    Counterexample,
    ExploreConfig,
    McError,
    explore,
    make_spec,
    preset,
    replay,
    replay_trace,
    shrink,
)
from repro.protocols.causal_owner import CausalOwnerNode


class TestFigure3:
    """Broadcast memory admits the non-causal Figure 3 execution."""

    @pytest.fixture(scope="class")
    def found(self):
        config = ExploreConfig(
            strategy="random",
            seed=0,
            max_schedules=2000,
            expected_model="causal",
            stop_on_violation=True,
        )
        result = explore(preset("fig3"), config)
        assert result.violations, (
            "explorer failed to find the Figure 3 anomaly"
        )
        return config, result.violations[0]

    def test_violation_is_the_broadcast_anomaly(self, found):
        _, cex = found
        assert cex.kind == "consistency"
        assert cex.model == "causal"
        outcome = replay(cex)
        assert not check_causal(outcome.history).ok
        # Broadcast memory keeps its actual (weaker) promise.
        assert check_slow(outcome.history).ok

    def test_shrinks_to_at_most_hand_written_size(self, found):
        config, cex = found
        hand_written = preset("fig3").n_ops  # 8 ops, as in the paper
        small = shrink(
            cex,
            ExploreConfig(
                strategy="random",
                seed=0,
                max_schedules=600,
                expected_model="causal",
                stop_on_violation=True,
            ),
        )
        assert small.n_ops <= hand_written
        # The shrunk schedule replays to a still-non-causal history.
        outcome = replay(small)
        assert not check_causal(outcome.history).ok


class TestFigure5:
    """The owner protocol admits Figure 5 (causal, not sequential)."""

    @pytest.fixture(scope="class")
    def found(self):
        config = ExploreConfig(
            strategy="dfs",
            max_schedules=5000,
            expected_model="sequential",
            stop_on_violation=True,
        )
        result = explore(preset("fig5"), config)
        assert result.violations, (
            "explorer failed to find the Figure 5 weak execution"
        )
        return config, result.violations[0]

    def test_violation_is_weak_but_causal(self, found):
        _, cex = found
        assert cex.model == "sequential"
        outcome = replay(cex)
        assert not check_sequential(outcome.history).ok
        # The whole point of Figure 5: still perfectly causal.
        assert check_causal(outcome.history).ok

    def test_shrinks_to_at_most_hand_written_size(self, found):
        config, cex = found
        hand_written = preset("fig5").n_ops  # 6 ops, as in the paper
        small = shrink(cex, config)
        assert small.n_ops <= hand_written
        outcome = replay_trace(small.spec, small.trace)
        assert not check_sequential(outcome.history).ok
        assert check_causal(outcome.history).ok

    def test_never_misreported_on_causal_promise(self):
        """Against its *own* promise the causal protocol is clean."""
        result = explore(
            preset("fig5"),
            ExploreConfig(strategy="dfs", max_schedules=500_000),
        )
        assert result.exhausted
        assert result.ok


#: The schedule bounded DFS finds, and cannot shrink, on the ``inflight``
#: preset when every R_REPLY payload is installed (pure Figure 4): init,
#: w(x)2, w(y)3 served by P1 while its r(x) reply is out, r(y)3, r(x)0.
INFLIGHT_CEX = Path(__file__).parent / "data" / "inflight-cex.json"

DFS = ExploreConfig(strategy="dfs", max_schedules=5000)


@pytest.fixture
def pure_figure4(monkeypatch):
    """No in-flight replay: nothing is ever overtaken."""
    monkeypatch.setattr(
        CausalOwnerNode, "_overtaken",
        staticmethod(lambda stamp, flight: None),
    )


def drive(run, keys):
    for key in keys:
        run.apply(("x", key))


def finish(run):
    while not run.done:
        run.apply(run.actions()[0])
    return run.outcome()


class TestInFlightWindow:
    """The one place the engine departs from Figure 4 (DESIGN.md §4.2)."""

    def test_pure_figure4_caches_an_overtaken_reply(self, pure_figure4):
        spec = preset("inflight")
        result = explore(
            spec, ExploreConfig(strategy="dfs", stop_on_violation=True)
        )
        assert result.violations, "bounded DFS missed the in-flight window"
        small = shrink(
            result.violations[0],
            ExploreConfig(strategy="dfs", stop_on_violation=True),
        )
        assert small.spec == spec  # all five operations are needed
        recorded = Counterexample.load(INFLIGHT_CEX)
        assert (recorded.spec, recorded.trace) == (small.spec, small.trace)
        outcome = replay(recorded)
        assert "r(x)0 r(y)3 r(x)0" in outcome.history.to_text()
        assert not check_causal(outcome.history).ok

    def test_the_tree_is_clean_on_every_schedule(self):
        for name in ("inflight", "inflight-tasks"):
            result = explore(preset(name), DFS)
            assert result.exhausted and result.ok, name
        with pytest.raises(McError, match="not selectable"):
            replay(Counterexample.load(INFLIGHT_CEX))  # r(x) misses now

    def test_overtaken_reply_costs_the_line_not_the_read(self):
        recorded = Counterexample.load(INFLIGHT_CEX)
        run = ControlledRun(recorded.spec)
        node1 = run.cluster.nodes[1]
        for action in recorded.trace:
            run.apply(action)
            if node1.stats.reads == 2:  # r(x) returned, r(y) issued
                break
        by_kind = run.cluster.stats.by_kind
        assert (by_kind["READ"], by_kind["R_REPLY"]) == (1, 1)
        assert (node1.overtaken_reads, node1.stale_read_retries) == (1, 0)
        assert node1.store.get("x") is None
        outcome = finish(run)
        assert "r(x)0 r(y)3 r(x)2" in outcome.history.to_text()
        assert run.cluster.stats.by_kind["READ"] == 2

    #: P1's r(x) reply is out; P1 serves w(y)3 (after w(x)2); P1's second
    #: task reads y; only then does the reply arrive.  Tasks are named by
    #: process index: "P0" is r(x) and "P2" is r(y), both on node 1.
    SECOND_TASK_READS_Y = (
        ("t", "P0", 0), ("m", 1, 0, 0),
        ("t", "P1", 0), ("m", 2, 0, 0), ("m", 0, 2, 0), ("t", "P1", 1),
        ("m", 2, 1, 0), ("t", "P2", 0), ("m", 0, 1, 0),
    )

    def test_an_own_operation_in_the_window_still_re_requests(self):
        run = ControlledRun(preset("inflight-tasks"))
        node1 = run.cluster.nodes[1]
        drive(run, self.SECOND_TASK_READS_Y)
        assert (node1.overtaken_reads, node1.stale_read_retries) == (0, 1)
        outcome = finish(run)
        assert "r(y)3 r(x)2" in outcome.history.to_text()
        assert run.cluster.stats.by_kind["READ"] == 2

    def test_a_hit_that_did_not_count_as_own_would_be_a_violation(
        self, monkeypatch
    ):
        """The issue's own tagging (served write vs. own *reply*) misses
        this: the second task's r(y) is a local hit on the served write."""
        note = CausalOwnerNode._note_stamp
        monkeypatch.setattr(
            CausalOwnerNode, "_note_stamp",
            lambda self, stamp=None, own=False:
                None if stamp is None else note(self, stamp, own),
        )
        result = explore(preset("inflight-tasks"), DFS)
        assert "r(y)3 r(x)0" in result.violations[0].history_text


class TestInFlightAck:
    """The write side of the window, which the parent of PR 23 left open:
    P1's W_REPLY for w(x)1 is out while P1 serves w(z)3, which follows
    the w(x)2 the owner applied over it.  Cached on arrival, x = 1 is
    re-read after r(z)3; P2, told of that read through q, then gets the
    owner's x = 2 — dead, by Definition 1, once r(x)1 stands between."""

    SPEC = preset("inflight-ack")

    def test_the_preset_is_the_program_literal(self):
        assert self.SPEC.to_jsonable() == {
            "protocol": "causal",
            "processes": [
                [],
                [["w", "x", 1], ["r", "z"], ["r", "x"], ["w", "q", 4]],
                [["w", "x", 2], ["w", "z", 3], ["r", "q"], ["r", "x"]],
            ],
            "owners": [["q", 1], ["x", 0], ["z", 1]],
            "initial_value": 0,
        }

    def test_the_tree_is_clean_on_every_schedule(self):
        result = explore(self.SPEC, DFS)
        assert result.exhausted and result.ok

    def test_caching_an_overtaken_ack_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(
            CausalOwnerNode, "_ack_cacheable",
            lambda self, location, entry, flight: True,
        )
        result = explore(
            self.SPEC, ExploreConfig(strategy="dfs", stop_on_violation=True)
        )
        history = result.violations[0].history_text
        assert "r(z)3 r(x)1 w(q)4" in history and "r(q)4 r(x)2" in history


#: Two tasks on node 1 write x (owned by node 0) and z (owned by node 2).
#: Once node 0 has served w(q)7, whose stamp carries w(z)5, it stamps
#: w(x)1 with node 1's component 2: the name of w(z)5 (DESIGN.md §4.2).
TWO_WRITES_ONE_NODE = make_spec(
    [(), (("w", "x", 1),), (("r", "z"), ("w", "q", 7)), (("w", "z", 5),)],
    owners={"x": 0, "q": 0, "z": 2},
    nodes=(0, 1, 2, 1),
)

FIND_FIRST = ExploreConfig(strategy="dfs", stop_on_violation=True)


class TestWriteIdentity:
    """A history ``History`` refuses is a crash the explorer reports."""

    def test_a_refused_history_is_reported_not_raised(self):
        result = explore(
            TWO_WRITES_ONE_NODE, ExploreConfig(strategy="dfs", max_schedules=500)
        )
        assert result.violations
        assert {cex.kind for cex in result.violations} == {"crash"}
        cex = result.violations[0]
        assert "HistoryError: duplicate write identity (1, 2)" in (
            cex.description
        )
        # No history, so no checker ran on it.
        assert (cex.history_text, cex.verdicts) == ("", {})

    def test_the_crash_replays_and_shrinks(self):
        cex = explore(TWO_WRITES_ONE_NODE, FIND_FIRST).violations[0]
        outcome = replay(cex)
        assert outcome.history is None
        assert outcome.crashed.startswith("HistoryError")
        small = shrink(cex, FIND_FIRST)
        assert small.kind == "crash"
        assert small.n_ops <= TWO_WRITES_ONE_NODE.n_ops
        assert replay(small).history is None
        assert cex.with_causal_trace().events

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP: a write's name drifts when its node issues "
        "another write before the W_REPLY",
    )
    def test_explores_clean(self):
        assert explore(TWO_WRITES_ONE_NODE, FIND_FIRST).ok
