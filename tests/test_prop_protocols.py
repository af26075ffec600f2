"""Property-based protocol safety: the reproduction's central evidence.

The paper proves (in the companion TR) that the Figure 4 protocol
implements causal memory.  Here the claim is checked mechanically:
hypothesis chooses workload shapes and seeds, the simulator executes
them under jittery latencies, and the recorded history must satisfy
Definition 2.  The strongly consistent baselines are similarly held to
sequential consistency, and the consistency hierarchy is asserted on
every generated causal execution.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.workload import WorkloadConfig, run_random_execution
from repro.checker import check_causal, check_pram, check_sequential
from repro.protocols.policies import OwnerFavoured

COMMON = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)

workload_shapes = st.fixed_dictionaries(
    {
        "n_nodes": st.integers(min_value=2, max_value=5),
        "n_locations": st.integers(min_value=1, max_value=6),
        "ops_per_proc": st.integers(min_value=1, max_value=25),
        "read_fraction": st.floats(min_value=0.2, max_value=0.8),
        "discard_fraction": st.floats(min_value=0.0, max_value=0.3),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)


@settings(**COMMON)
@given(workload_shapes)
def test_causal_protocol_satisfies_definition_2(shape):
    outcome = run_random_execution(WorkloadConfig(protocol="causal", **shape))
    result = check_causal(outcome.history)
    assert result.ok, result.explain()


@settings(**COMMON)
@given(workload_shapes)
def test_causal_protocol_with_owner_favoured_policy_is_causal(shape):
    outcome = run_random_execution(
        WorkloadConfig(protocol="causal", **shape), policy=OwnerFavoured()
    )
    result = check_causal(outcome.history)
    assert result.ok, result.explain()


@settings(**COMMON)
@given(workload_shapes)
def test_causal_executions_are_pram(shape):
    """Causal memory is strictly stronger than PRAM."""
    outcome = run_random_execution(WorkloadConfig(protocol="causal", **shape))
    if len(outcome.history) <= 30:  # keep the search tractable
        assert check_pram(outcome.history).ok


@settings(deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=10_000),
)
def test_atomic_baseline_is_sequentially_consistent(n_nodes, ops, seed):
    outcome = run_random_execution(
        WorkloadConfig(
            protocol="atomic", n_nodes=n_nodes, n_locations=3,
            ops_per_proc=ops, seed=seed,
        )
    )
    assert check_sequential(outcome.history, want_witness=False).ok


@settings(deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=10_000),
)
def test_no_cache_causal_is_sequentially_consistent(n_nodes, ops, seed):
    """Section 3.2: forcing owner reads yields atomic correctness."""
    outcome = run_random_execution(
        WorkloadConfig(
            protocol="causal", no_cache=True, n_nodes=n_nodes,
            n_locations=3, ops_per_proc=ops, seed=seed,
        )
    )
    assert check_sequential(outcome.history, want_witness=False).ok


@settings(deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=10_000),
)
def test_li_hudak_is_sequentially_consistent(n_nodes, ops, seed):
    outcome = run_random_execution(
        WorkloadConfig(
            protocol="li", n_nodes=n_nodes, n_locations=3,
            ops_per_proc=ops, seed=seed,
        )
    )
    assert check_sequential(outcome.history, want_witness=False).ok


@settings(deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=10_000),
)
def test_central_server_is_sequentially_consistent(n_nodes, ops, seed):
    outcome = run_random_execution(
        WorkloadConfig(
            protocol="central", n_nodes=n_nodes, n_locations=3,
            ops_per_proc=ops, seed=seed,
        )
    )
    assert check_sequential(outcome.history, want_witness=False).ok


@settings(**COMMON)
@given(workload_shapes)
def test_workloads_are_deterministic_per_seed(shape):
    first = run_random_execution(WorkloadConfig(protocol="causal", **shape))
    second = run_random_execution(WorkloadConfig(protocol="causal", **shape))
    assert first.history.to_text() == second.history.to_text()
    assert first.total_messages == second.total_messages


@settings(deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.too_slow])
@given(workload_shapes)
def test_delivery_internals_are_execution_transparent(shape):
    """The scheduling knob never changes the observable execution.

    Batched delivery (fan-out deliveries grouped into one kernel heap
    entry via preallocated delivery records) is pure mechanics: with and
    without it a run must record byte-identical histories and identical
    message/rejection counts.
    """
    outcomes = [
        run_random_execution(
            WorkloadConfig(
                protocol="causal",
                batch_delivery=batch,
                **shape,
            )
        )
        for batch in (False, True)
    ]
    reference = outcomes[0]
    for outcome in outcomes[1:]:
        assert outcome.history.to_text() == reference.history.to_text()
        assert outcome.total_messages == reference.total_messages
        assert outcome.rejected_writes == reference.rejected_writes
        assert outcome.invalidations == reference.invalidations


@settings(**COMMON)
@given(workload_shapes)
def test_broadcast_memory_preserves_per_sender_order(shape):
    """Even the non-causal-memory broadcast design is PRAM-like: each
    node applies each sender's writes in send order, so a single
    process's values are never observed regressing."""
    outcome = run_random_execution(
        WorkloadConfig(protocol="broadcast", **shape)
    )
    # Check per-reader, per-location, per-writer monotone sequence.
    for ops in outcome.history.processes:
        last_seen = {}
        for op in ops:
            if not op.is_read or op.read_from[0] == "init":
                continue
            writer, seq = op.read_from
            key = (op.location, writer)
            if key in last_seen:
                assert seq >= last_seen[key], (
                    f"{op} regressed writer {writer}"
                )
            last_seen[key] = seq
