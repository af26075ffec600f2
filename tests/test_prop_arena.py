"""Batch-delivery equivalence at the kernel and network level.

* **executions** — batch delivery (one kernel heap entry per fan-out)
  must not change a recorded history;
* **kernel** — ``schedule_batch`` fires callbacks in exactly the order
  the equivalent ``schedule`` loop would, and ``send_fanout`` delivers
  what per-destination ``send`` calls would.

The file name is historical: these five tests sat beside the lockstep
properties of the vectorised writestamp arena, which went with the
arena (DESIGN.md §4.9; ``results/pr19/test-audit.md`` lists every
removed id).  They never touched it, and keep their ids here because
the tier-1 floor pins them.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.workload import WorkloadConfig, run_random_execution
from repro.sim.kernel import Simulator


def history_fingerprint(outcome):
    return [
        (op.proc, op.index, op.kind, op.location, op.value,
         op.write_id, op.read_from)
        for op in outcome.history.operations()
    ]


@pytest.mark.parametrize("seed", [3, 11, 58])
def test_batch_delivery_does_not_change_histories(seed):
    shape = dict(
        n_nodes=4, n_locations=5, ops_per_proc=14,
        read_fraction=0.5, seed=seed,
    )
    plain = run_random_execution(WorkloadConfig(**shape))
    batched = run_random_execution(
        WorkloadConfig(batch_delivery=True, **shape)
    )
    assert history_fingerprint(plain) == history_fingerprint(batched)


# ----------------------------------------------------------------------
# Kernel-level equivalence
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=5.0),
                  st.integers(min_value=1, max_value=4)),
        min_size=1,
        max_size=12,
    )
)
def test_schedule_batch_matches_schedule_loop(groups):
    """Batched same-instant callbacks fire in per-call order, like loops."""

    def run(batched):
        sim = Simulator()
        fired = []
        for gi, (delay, width) in enumerate(groups):
            callbacks = [
                (lambda g=gi, k=k: fired.append((g, k)))
                for k in range(width)
            ]
            if batched:
                sim.schedule_batch(delay, callbacks)
            else:
                for callback in callbacks:
                    sim.schedule(delay, callback)
        sim.run()
        return fired

    assert run(batched=True) == run(batched=False)


def test_send_fanout_matches_individual_sends():
    """Same seed, same payloads: fanout and per-dst sends deliver alike."""
    from repro.protocols.base import DSMCluster

    def run(batch_delivery):
        cluster = DSMCluster(
            4,
            protocol="broadcast",
            seed=21,
            record_history=True,
            batch_delivery=batch_delivery,
        )

        def process(api, me):
            for i in range(10):
                if (me + i) % 3 == 0:
                    yield api.write(f"loc{i % 4}", (me, i))
                else:
                    yield api.read(f"loc{i % 4}")

        for node in range(4):
            cluster.spawn(node, process, node)
        cluster.run()
        return [
            (op.proc, op.index, op.kind, op.location, op.value,
             op.write_id, op.read_from)
            for op in cluster.history().operations()
        ]

    assert run(batch_delivery=False) == run(batch_delivery=True)
