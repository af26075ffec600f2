"""Tests for the runtime invariant monitor."""

import pytest

from repro.apps.workload import WorkloadConfig
from repro.clocks import VectorClock
from repro.errors import ReproError
from repro.harness.scenarios import write_behind
from repro.memory.local_store import MemoryEntry
from repro.protocols.base import DSMCluster
from repro.protocols.invariants import InvariantMonitor, InvariantViolation


def run_workload(cluster, ops=20):
    def process(api, proc):
        rng = cluster.sim.derived_rng(f"inv-{proc}")
        counter = 0
        for _ in range(ops):
            location = f"loc{rng.randrange(4)}"
            if rng.random() < 0.5:
                yield api.read(location)
            else:
                counter += 1
                yield api.write(location, (proc, counter))

    for proc in range(cluster.n_nodes):
        cluster.spawn(proc, process, proc)


class TestCleanRuns:
    def test_random_workload_is_invariant_clean(self):
        cluster = DSMCluster(4, protocol="causal", seed=3)
        monitor = InvariantMonitor(cluster)
        run_workload(cluster)
        cluster.run()
        assert monitor.check_now() == []
        assert "clean" in monitor.summary()

    def test_periodic_monitoring_during_run(self):
        cluster = DSMCluster(3, protocol="causal", seed=5)
        monitor = InvariantMonitor(cluster)
        monitor.install(period=2.0)
        run_workload(cluster)
        cluster.run()
        assert monitor.checks_run >= 2
        assert monitor.violations == []

    def test_write_behind_state_is_still_invariant_clean(self):
        # Write-behind breaks *history* causality, not node-local state
        # invariants — a useful distinction the monitor makes visible.
        cluster = write_behind(DSMCluster(3, protocol="causal", seed=7))
        monitor = InvariantMonitor(cluster)
        run_workload(cluster)
        cluster.run()
        assert monitor.check_now() == []


class TestDetection:
    def _cluster(self):
        cluster = DSMCluster(2, protocol="causal", seed=1)

        def process(api):
            yield api.write("x", 1)
            yield api.read("y")

        cluster.spawn(0, process)
        cluster.run()
        return cluster

    def test_detects_clock_regression(self):
        cluster = self._cluster()
        monitor = InvariantMonitor(cluster, strict=False)
        monitor.check_now()
        cluster.nodes[0].vt = VectorClock.zero(2)  # corrupt: regress
        violations = monitor.check_now()
        assert any(v.invariant == "I1" for v in violations)

    def test_detects_stamp_beyond_clock(self):
        cluster = self._cluster()
        node = cluster.nodes[0]
        node.store.put(
            "y" if not node.store.owns("y") else "z",
            MemoryEntry(value=9, stamp=VectorClock((99, 99)), writer=1),
        )
        monitor = InvariantMonitor(cluster, strict=False)
        violations = monitor.check_now()
        assert any(v.invariant == "I2" for v in violations)

    def test_detects_write_count_mismatch(self):
        cluster = self._cluster()
        cluster.nodes[0].stats.writes += 5  # corrupt the ledger
        monitor = InvariantMonitor(cluster, strict=False)
        violations = monitor.check_now()
        assert any(v.invariant == "I3" for v in violations)

    def test_strict_mode_raises(self):
        cluster = self._cluster()
        monitor = InvariantMonitor(cluster, strict=True)
        monitor.check_now()  # clean baseline
        cluster.nodes[0].stats.writes += 3  # corrupt the ledger
        with pytest.raises(InvariantViolation):
            monitor.check_now()

    def test_violation_str_names_invariant(self):
        cluster = self._cluster()
        cluster.nodes[0].stats.writes += 1
        monitor = InvariantMonitor(cluster, strict=False)
        violations = monitor.check_now()
        assert "I3" in str(violations[0])


class TestValidation:
    def test_requires_causal_protocol(self):
        cluster = DSMCluster(2, protocol="atomic")
        with pytest.raises(ReproError):
            InvariantMonitor(cluster)

    def test_install_rejects_bad_period(self):
        cluster = DSMCluster(2, protocol="causal")
        monitor = InvariantMonitor(cluster)
        with pytest.raises(ReproError):
            monitor.install(period=0)
