"""Unit tests for the random workload generator."""

import hashlib
from collections import Counter
from types import SimpleNamespace

import pytest

import repro.apps.workload as workload_module
from repro.apps.workload import (
    WorkloadConfig,
    run_random_execution,
    workload_process,
    zipf_cdf,
)
from repro.checker import check_causal
from repro.sim.kernel import Simulator


class TestConfig:
    def test_location_names(self):
        assert WorkloadConfig().location(3) == "loc3"

    def test_defaults_reasonable(self):
        config = WorkloadConfig()
        assert config.n_nodes >= 2
        assert 0 <= config.read_fraction <= 1


class TestExecution:
    def test_history_has_expected_op_counts(self):
        config = WorkloadConfig(n_nodes=3, ops_per_proc=10, seed=1)
        outcome = run_random_execution(config)
        history = outcome.history
        assert history.n_procs == 3
        # discards add an extra read, so ops_per_proc is a lower bound
        for ops in history.processes:
            assert len(ops) >= 10

    def test_write_values_globally_unique(self):
        outcome = run_random_execution(
            WorkloadConfig(n_nodes=4, ops_per_proc=20, seed=2)
        )
        writes = outcome.history.writes(include_init=False)
        values = [w.value for w in writes]
        assert len(values) == len(set(values))

    def test_same_seed_same_outcome(self):
        config = WorkloadConfig(n_nodes=3, ops_per_proc=15, seed=3)
        a = run_random_execution(config)
        b = run_random_execution(config)
        assert a.history.to_text() == b.history.to_text()
        assert a.total_messages == b.total_messages

    def test_different_seeds_differ(self):
        a = run_random_execution(WorkloadConfig(seed=1))
        b = run_random_execution(WorkloadConfig(seed=2))
        assert a.history.to_text() != b.history.to_text()

    def test_counters_populated(self):
        outcome = run_random_execution(
            WorkloadConfig(n_nodes=3, ops_per_proc=30, seed=4)
        )
        assert outcome.total_messages > 0
        assert outcome.elapsed_sim_time > 0

    def test_think_time_spreads_execution(self):
        fast = run_random_execution(
            WorkloadConfig(n_nodes=2, ops_per_proc=10, seed=5)
        )
        slow = run_random_execution(
            WorkloadConfig(n_nodes=2, ops_per_proc=10, seed=5, think_time=10.0)
        )
        assert slow.elapsed_sim_time > fast.elapsed_sim_time

    def test_pure_reader_workload(self):
        outcome = run_random_execution(
            WorkloadConfig(
                n_nodes=2, ops_per_proc=10, seed=6,
                read_fraction=1.0, discard_fraction=0.0,
            )
        )
        assert not outcome.history.writes(include_init=False)
        assert check_causal(outcome.history).ok

    def test_pure_writer_workload(self):
        outcome = run_random_execution(
            WorkloadConfig(
                n_nodes=2, ops_per_proc=10, seed=7,
                read_fraction=0.0, discard_fraction=0.0,
            )
        )
        assert not outcome.history.reads()
        assert check_causal(outcome.history).ok


def _ledger(config, monkeypatch):
    """``(history digest, msgs, model bytes, stamp entries)`` of one run."""
    built = []

    class Captured(workload_module.DSMCluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(workload_module, "DSMCluster", Captured)
    outcome = run_random_execution(config)
    (cluster,) = built
    stats = cluster.stats
    digest = hashlib.sha256(outcome.history.to_text().encode()).hexdigest()[:16]
    return (digest, stats.total, stats.bytes_total, stats.stamp_entries)


#: Ledgers of ``WorkloadConfig(protocol, n_nodes, delta_stamps, seed)``.
#: The ``broadcast`` rows were recorded at the last commit that had
#: write-behind batching, with it off, and have not moved since: no
#: other engine changed.  The ``causal`` rows were re-recorded at PR 23,
#: which returns an overtaken R_REPLY uncached instead of re-requesting
#: it (old -> new in ``results/pr23/test-audit.md``).
#: The bytes and stamp entries of the ``causal`` / ``True`` rows moved
#: again when a W_REPLY's stamp became a delta over its WRITE's stamp;
#: their digests and message counts did not.
LEDGERS = {
    ("causal", 4, False, 1991): ("1733210095e7fd9c", 92, 4565, 368),
    ("causal", 4, False, 2024): ("70935068ab5a3d1c", 82, 4067, 328),
    ("causal", 4, True, 1991): ("1733210095e7fd9c", 92, 3673, 122),
    ("causal", 4, True, 2024): ("70935068ab5a3d1c", 82, 3297, 117),
    ("causal", 8, False, 1991): ("f66d80ded9ee4ee8", 216, 14220, 1728),
    ("causal", 8, False, 2024): ("ab742ef76bc5c5b9", 208, 13683, 1664),
    ("causal", 8, True, 1991): ("f66d80ded9ee4ee8", 216, 10688, 742),
    ("causal", 8, True, 2024): ("ab742ef76bc5c5b9", 208, 10171, 692),
    ("broadcast", 4, False, 1991): ("777069513ff59dc2", 81, 4050, 324),
    ("broadcast", 4, False, 2024): ("513a1636f063f2db", 81, 4050, 324),
    ("broadcast", 4, True, 1991): ("777069513ff59dc2", 81, 3360, 117),
    ("broadcast", 4, True, 2024): ("513a1636f063f2db", 81, 3360, 117),
    ("broadcast", 8, False, 1991): ("20180bdaede17a29", 350, 23100, 2800),
    ("broadcast", 8, False, 2024): ("34523ac4a224dc65", 350, 23100, 2800),
    ("broadcast", 8, True, 1991): ("20180bdaede17a29", 350, 15456, 742),
    ("broadcast", 8, True, 2024): ("34523ac4a224dc65", 350, 15456, 742),
}


class TestLedgerPinned:
    @pytest.mark.parametrize("protocol, n_nodes, delta_stamps, seed", LEDGERS)
    def test_random_workload_ledger_is_the_recorded_one(
        self, protocol, n_nodes, delta_stamps, seed, monkeypatch
    ):
        config = WorkloadConfig(
            protocol=protocol, n_nodes=n_nodes, delta_stamps=delta_stamps,
            seed=seed,
        )
        assert _ledger(config, monkeypatch) == LEDGERS[
            protocol, n_nodes, delta_stamps, seed
        ]

    def test_the_batching_field_is_inert(self, monkeypatch):
        """``perf/workloads.py`` still passes it; it must select nothing."""
        config = WorkloadConfig(
            protocol="causal", n_nodes=8, delta_stamps=True, seed=1991,
            batching=True,
        )
        assert _ledger(config, monkeypatch) == LEDGERS["causal", 8, True, 1991]

    def test_no_constructor_takes_batching(self):
        from repro.protocols.base import DSMCluster
        from repro.protocols.causal_owner import CausalOwnerNode

        with pytest.raises(TypeError, match="batching"):
            DSMCluster(3, batching=True)
        node = DSMCluster(2).nodes[0]
        with pytest.raises(TypeError, match="batching"):
            CausalOwnerNode(
                0, runtime=node.runtime, namespace=node.namespace, n_nodes=2,
                batching=True,
            )


class _RecordingApi:
    """Answers every operation at once and writes down what was asked."""

    def __init__(self):
        self.issued = []

    def read(self, location):
        self.issued.append(("r", location, None))

    def write(self, location, value):
        self.issued.append(("w", location, value))

    def discard(self, location):
        self.issued.append(("d", location, None))


def _issued(config, proc, cdf=None):
    """What ``workload_process`` asks of a stub api, with no cluster."""
    api = _RecordingApi()
    runtime = SimpleNamespace(derived_rng=Simulator(seed=config.seed).derived_rng)
    for _ in workload_process(api, proc, config, runtime, cdf=cdf):
        pass
    return api.issued


class TestSharedGenerator:
    """The one per-op loop, driven without sockets or a simulator: what
    it issues is what ``run_random_execution`` records (the live runner
    spawns the same generator, so this pins both drivers' op sequence)."""

    @pytest.mark.parametrize("discard_fraction", [0.0, 0.1, 0.4])
    def test_issued_ops_equal_the_recorded_history(self, discard_fraction):
        config = WorkloadConfig(
            n_nodes=3, n_locations=5, ops_per_proc=40, seed=9,
            discard_fraction=discard_fraction,
        )
        history = run_random_execution(config).history
        discards = 0
        for proc in range(config.n_nodes):
            issued = _issued(config, proc)
            discards += sum(1 for kind, _, _ in issued if kind == "d")
            # A discard is not an operation of the history; the read
            # that follows it is.
            assert [op for op in issued if op[0] != "d"] == [
                (op.kind, op.location, op.value if op.kind == "w" else None)
                for op in history.processes[proc]
            ]
        assert (discards > 0) == (discard_fraction > 0)

    def test_zipf_skews_locations_and_nothing_else(self):
        config = WorkloadConfig(
            n_nodes=2, n_locations=6, ops_per_proc=200, seed=3,
            discard_fraction=0.0,
        )
        pool = {config.location(i) for i in range(config.n_locations)}
        for proc in range(config.n_nodes):
            uniform = _issued(config, proc)
            skewed = _issued(config, proc, cdf=zipf_cdf(config.n_locations, 1.5))
            # The Zipf draw consumes the RNG differently, so the two
            # runs are not op-for-op comparable; the shape is the same.
            for issued in (uniform, skewed):
                assert len(issued) == config.ops_per_proc
                assert {location for _, location, _ in issued} <= pool
                writes = [value for kind, _, value in issued if kind == "w"]
                assert writes == [
                    f"n{proc}v{i}" for i in range(1, len(writes) + 1)
                ]
            hot = Counter(location for _, location, _ in skewed)
            assert hot.most_common(1)[0][0] == config.location(0)
            assert hot[config.location(0)] > 2 * Counter(
                location for _, location, _ in uniform
            )[config.location(0)]
