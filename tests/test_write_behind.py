"""Tests for the (deliberately unsafe) write-behind mode."""

import pytest

from repro.checker import check_causal
from repro.errors import ProtocolError
from repro.harness.scenarios import run_write_behind_race
from repro.memory import Namespace
from repro.protocols.base import DSMCluster


class TestRaceScenario:
    def test_blocking_writes_are_causal(self):
        history = run_write_behind_race(unsafe=False)
        assert check_causal(history).ok

    def test_write_behind_violates_causality(self):
        history = run_write_behind_race(unsafe=True)
        result = check_causal(history)
        assert not result.ok
        # The observer read y's new value, then a stale x.
        violating = result.violations[0].read
        assert violating.location == "x"
        assert violating.value == 0

    def test_unsafe_observer_sequence(self):
        history = run_write_behind_race(unsafe=True)
        observer_ops = history.processes[2]
        assert [op.value for op in observer_ops] == [2, 0]


class TestMechanics:
    def make_cluster(self, **kwargs):
        namespace = Namespace.explicit(2, {"x": 0})
        return DSMCluster(
            2, protocol="causal", namespace=namespace,
            unsafe_write_behind=True, **kwargs,
        )

    def test_write_resolves_before_reply(self):
        cluster = self.make_cluster()
        times = []

        def writer(api):
            yield api.write("x", 1)
            times.append(cluster.sim.now)

        cluster.spawn(1, writer)
        cluster.run()
        assert times == [0.0]  # resolved instantly, no round trip waited

    def test_writer_reads_own_tentative_value(self):
        cluster = self.make_cluster()

        def writer(api):
            yield api.write("x", 1)
            return (yield api.read("x"))

        task = cluster.spawn(1, writer)
        cluster.run()
        assert task.result() == 1

    def test_reply_refreshes_tentative_stamp(self):
        cluster = self.make_cluster()

        def writer(api):
            yield api.write("x", 1)
            from repro.sim.tasks import sleep

            yield sleep(cluster.sim, 10.0)  # let the W_REPLY land

        cluster.spawn(1, writer)
        cluster.run()
        at_owner = cluster.nodes[0].store.get("x")
        at_writer = cluster.nodes[1].store.get("x")
        assert at_owner.stamp == at_writer.stamp

    def test_identity_shared_between_tentative_and_owner_copies(self):
        cluster = self.make_cluster()
        from repro.sim.tasks import sleep

        def writer(api):
            yield api.write("x", 1)

        def reader(api):
            yield sleep(cluster.sim, 50.0)
            yield api.read("x")

        cluster.spawn(1, writer)
        cluster.spawn(0, reader)
        cluster.run()
        # The history must link the reader's read to the writer's write.
        history = cluster.history()
        read = history.processes[0][0]
        write = history.processes[1][0]
        assert read.read_from == write.write_id

    def test_mode_restricted_to_causal_protocol(self):
        with pytest.raises(ProtocolError):
            DSMCluster(2, protocol="atomic", unsafe_write_behind=True)

    def test_fuzzing_finds_violations_somewhere(self):
        """Write-behind is not *always* wrong — but across seeds and a
        write-heavy workload, violations must show up.

        A run whose history is refused proves nothing either way and is
        skipped: once an owner has merged a later component of the
        writer, ``(writer, VT[writer])`` names another of its writes,
        and ``History`` rejects a read credited to a write to another
        location (seeds 9 and 24 — until ISSUE 22 the only two
        "violations" the first 25 seeds found; ROADMAP has the item).
        """
        from repro.apps.workload import WorkloadConfig, run_random_execution
        from repro.errors import HistoryError
        from repro.sim.latency import UniformLatency

        violations = 0
        for seed in range(60):
            cluster_config = WorkloadConfig(
                n_nodes=4, n_locations=4, ops_per_proc=20,
                read_fraction=0.5, discard_fraction=0.2, seed=seed,
            )
            # run_random_execution has no write-behind knob; build manually.
            cluster = DSMCluster(
                4, protocol="causal", seed=seed,
                latency=UniformLatency(0.5, 12.0),
                unsafe_write_behind=True,
            )

            def process(api, proc):
                rng = cluster.sim.derived_rng(f"wb-{proc}")
                counter = 0
                for _ in range(20):
                    location = f"loc{rng.randrange(4)}"
                    roll = rng.random()
                    if roll < 0.2:
                        api.discard(location)
                        yield api.read(location)
                    elif roll < 0.6:
                        yield api.read(location)
                    else:
                        counter += 1
                        yield api.write(location, f"n{proc}v{counter}")

            for proc in range(4):
                cluster.spawn(proc, process, proc)
            cluster.run()
            try:
                history = cluster.history()
            except HistoryError:
                continue
            if not check_causal(history).ok:
                violations += 1
        assert violations > 0
