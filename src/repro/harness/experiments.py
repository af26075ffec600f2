"""The experiment registry: every paper artefact, regenerated.

Each function ``exp_*`` reproduces one figure/table/claim (E-numbers per
DESIGN.md Section 5) and returns an :class:`ExperimentReport` holding a
human-readable text block, a machine-checkable ``data`` dict, and a
``passed`` flag asserting the paper's claim held in this run.  The
tier-1 tests, the CLI, and EXPERIMENTS.md generation all call these
same functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from repro.analysis.message_model import (
    atomic_messages_lower_bound,
    causal_messages_per_processor,
)
from repro.analysis.tables import Table
from repro.apps.async_solver import AsynchronousSolver
from repro.apps.dictionary import run_random_dictionary
from repro.apps.linear_solver import LinearSystem, SynchronousSolver
from repro.apps.workload import WorkloadConfig, run_random_execution
from repro.checker import (
    CausalOrder,
    History,
    check_causal,
    check_coherence,
    check_pram,
    check_sequential,
)
from repro.harness.scenarios import (
    run_dictionary_delete_race,
    run_discard_liveness,
    run_figure3_on_broadcast,
    run_figure5_on_causal,
    run_write_behind_race,
)
from repro.protocols.policies import LastWriterWins, OwnerFavoured

__all__ = ["ExperimentReport", "EXPERIMENTS", "run_experiment"]

FIGURE_1 = """
P1: w(x)1 w(y)2 r(y)2 r(x)1
P2: w(z)1 r(y)2 r(x)1
"""

FIGURE_2 = """
P1: w(x)2 w(y)2 w(y)3 r(z)5 w(x)4
P2: w(x)1 r(y)3 w(x)7 w(z)5 r(x)4 r(x)9
P3: r(z)5 w(x)9
"""

FIGURE_3 = """
P1: w(x)5 w(y)3
P2: w(x)2 r(y)3 r(x)5 w(z)4
P3: r(z)4 r(x)2
"""

FIGURE_5 = """
P1: r(y)0 w(x)1 r(y)0
P2: r(x)0 w(y)1 r(x)0
"""


@dataclass
class ExperimentReport:
    """One reproduced artefact: text for humans, data for assertions."""

    exp_id: str
    title: str
    text: str
    data: Dict[str, Any] = field(default_factory=dict)
    passed: bool = True

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.exp_id}] {self.title} — {status}\n{self.text}"


# ----------------------------------------------------------------------
# E1: Figure 1 — example of causal relations
# ----------------------------------------------------------------------
def exp_fig1() -> ExperimentReport:
    """Causal relations of Figure 1: concurrency and transitivity."""
    history = History.parse(FIGURE_1)
    order = CausalOrder(history)
    w_x = history.op(0, 0)   # w1(x)1
    w_z = history.op(1, 0)   # w2(z)1
    r1_y = history.op(0, 2)  # r1(y)2 — confirms program order
    r2_y = history.op(1, 1)  # r2(y)2 — establishes causality
    r1_x = history.op(0, 3)  # r1(x)1
    concurrent = order.concurrent(w_x, w_z)
    transitive = order.precedes(w_x, r1_y)
    establishes = order.precedes(history.op(0, 1), r2_y)  # w(y)2 *-> r2(y)2
    confirms = order.precedes(w_x, r1_x)
    result = check_causal(history)
    passed = concurrent and transitive and establishes and confirms and result.ok
    lines = [
        history.to_text(),
        "",
        f"w1(x)1 concurrent with w2(z)1 : {concurrent}  (paper: concurrent)",
        f"w1(x)1 *-> r1(y)2            : {transitive}  (paper: holds)",
        f"r2(y)2 establishes causality from w1(y)2 : {establishes}",
        f"r1(x)1 confirms program-order causality  : {confirms}",
        f"execution is causal          : {result.ok}",
    ]
    return ExperimentReport(
        exp_id="E1",
        title="Figure 1 — example of causal relations",
        text="\n".join(lines),
        data={
            "concurrent": concurrent,
            "transitive": transitive,
            "causal": result.ok,
        },
        passed=passed,
    )


# ----------------------------------------------------------------------
# E2: Figure 2 — a correct execution on causal memory
# ----------------------------------------------------------------------
def exp_fig2() -> ExperimentReport:
    """Figure 2 verifies, with the paper's exact live sets."""
    history = History.parse(FIGURE_2)
    result = check_causal(history)
    alpha_z = result.alpha(0, 3)   # r1(z)5
    alpha_y = result.alpha(1, 1)   # r2(y)3
    alpha_x4 = result.alpha(1, 4)  # r2(x)4
    alpha_x9 = result.alpha(1, 5)  # r2(x)9
    expected = {
        "alpha(r1(z)5)": ({0, 5}, alpha_z),
        "alpha(r2(y)3)": ({0, 2, 3}, alpha_y),
        "alpha(r2(x)4)": ({4, 7, 9}, alpha_x4),
        "alpha(r2(x)9)": ({4, 9}, alpha_x9),
    }
    passed = result.ok and all(want == got for want, got in expected.values())
    lines = [history.to_text(), ""]
    for name, (want, got) in expected.items():
        lines.append(f"{name} = {sorted(got)}  (paper: {sorted(want)})")
    lines.append(f"execution is causal: {result.ok}")
    return ExperimentReport(
        exp_id="E2",
        title="Figure 2 — a correct execution on causal memory",
        text="\n".join(lines),
        data={name: got for name, (_, got) in expected.items()},
        passed=passed,
    )


# ----------------------------------------------------------------------
# E3: Figure 3 — causal broadcasting is not causal memory
# ----------------------------------------------------------------------
def exp_fig3() -> ExperimentReport:
    """The broadcast memory produces Figure 3; the checker rejects it."""
    parsed = History.parse(FIGURE_3)
    parsed_result = check_causal(parsed)
    produced = run_figure3_on_broadcast()
    produced_result = check_causal(produced)
    same_shape = produced.to_text() == parsed.to_text()
    passed = (not parsed_result.ok) and (not produced_result.ok) and same_shape
    lines = [
        "History as written in the paper:",
        parsed.to_text(),
        f"  causal checker verdict: {'causal' if parsed_result.ok else 'NOT causal'}",
        "",
        "History produced live by the ISIS-style causal-broadcast memory:",
        produced.to_text(),
        f"  identical to Figure 3: {same_shape}",
        f"  causal checker verdict: {'causal' if produced_result.ok else 'NOT causal'}",
        "",
        "Violating read analysis:",
    ]
    for verdict in produced_result.violations:
        lines.append("  " + verdict.explain())
    return ExperimentReport(
        exp_id="E3",
        title="Figure 3 — causal broadcasting is not causal memory",
        text="\n".join(lines),
        data={
            "parsed_causal": parsed_result.ok,
            "produced_causal": produced_result.ok,
            "same_shape": same_shape,
        },
        passed=passed,
    )


# ----------------------------------------------------------------------
# E4: Figure 4 — protocol safety on random executions
# ----------------------------------------------------------------------
def exp_fig4(seeds: Sequence[int] = range(20)) -> ExperimentReport:
    """Every random execution of the owner protocol is causal."""
    checked = 0
    violations = 0
    total_messages = 0
    for seed in seeds:
        outcome = run_random_execution(
            WorkloadConfig(n_nodes=4, n_locations=5, ops_per_proc=25, seed=seed)
        )
        checked += 1
        total_messages += outcome.total_messages
        if not check_causal(outcome.history).ok:
            violations += 1
    passed = violations == 0
    text = (
        f"{checked} seeded random executions (4 nodes, 25 ops each) run "
        f"through the Figure 4 protocol under jittered latency;\n"
        f"causal-memory violations: {violations}\n"
        f"total messages observed: {total_messages} "
        f"(every remote read/write is exactly one request/reply pair)"
    )
    return ExperimentReport(
        exp_id="E4",
        title="Figure 4 — owner protocol safety (fuzzed)",
        text=text,
        data={"checked": checked, "violations": violations},
        passed=passed,
    )


# ----------------------------------------------------------------------
# E5: Figure 5 — a weakly consistent execution
# ----------------------------------------------------------------------
def exp_fig5() -> ExperimentReport:
    """The protocol produces Figure 5; causal yes, SC no."""
    parsed = History.parse(FIGURE_5)
    produced = run_figure5_on_causal()
    same_shape = produced.to_text() == parsed.to_text()
    causal_ok = check_causal(produced).ok
    sc = check_sequential(produced, want_witness=False)
    pram_ok = check_pram(produced).ok
    coherent_ok = check_coherence(produced).ok
    passed = same_shape and causal_ok and not sc.ok
    lines = [
        "Owner protocol run with owner(x)=P1, owner(y)=P2:",
        produced.to_text(),
        f"  identical to Figure 5: {same_shape}",
        f"  causal memory: {causal_ok}   (paper: allowed)",
        f"  sequentially consistent: {sc.ok}   (paper: not allowed by "
        "strongly consistent memories)",
        f"  PRAM: {pram_ok}   coherent: {coherent_ok}",
    ]
    return ExperimentReport(
        exp_id="E5",
        title="Figure 5 — weakly consistent execution admitted by the protocol",
        text="\n".join(lines),
        data={
            "same_shape": same_shape,
            "causal": causal_ok,
            "sequential": sc.ok,
        },
        passed=passed,
    )


# ----------------------------------------------------------------------
# E6: the headline message-count comparison (Section 4.1)
# ----------------------------------------------------------------------
def exp_solver_table(
    ns: Sequence[int] = (2, 4, 8, 12),
    iterations: int = 8,
) -> ExperimentReport:
    """Measured messages/processor/iteration vs the paper's formulas."""
    table = Table(
        [
            "n",
            "causal (meas)",
            "2n+6 (paper)",
            "atomic (meas)",
            "3n+5 (paper LB)",
            "central (meas)",
            "savings",
        ],
        title="Synchronous solver: messages per processor per iteration",
    )
    rows: List[Dict[str, float]] = []
    shape_ok = True
    for n in ns:
        system = LinearSystem.random(n, seed=7)
        measured: Dict[str, float] = {}
        for protocol in ("causal", "atomic", "central"):
            result = SynchronousSolver(
                system, protocol=protocol, iterations=iterations, seed=1
            ).run()
            measured[protocol] = result.steady_messages_per_processor
        paper_causal = causal_messages_per_processor(n)
        paper_atomic = atomic_messages_lower_bound(n)
        exact_causal = abs(measured["causal"] - paper_causal) < 1e-9
        bound_holds = measured["atomic"] >= paper_atomic
        causal_wins = measured["causal"] < measured["atomic"] < measured["central"]
        shape_ok = shape_ok and exact_causal and bound_holds and causal_wins
        table.add_row(
            n,
            measured["causal"],
            paper_causal,
            measured["atomic"],
            paper_atomic,
            measured["central"],
            measured["atomic"] - measured["causal"],
        )
        rows.append(
            {
                "n": n,
                "causal": measured["causal"],
                "atomic": measured["atomic"],
                "central": measured["central"],
                "paper_causal": paper_causal,
                "paper_atomic": paper_atomic,
            }
        )
    gaps = [row["atomic"] - row["causal"] for row in rows]
    gap_grows = all(later > earlier for earlier, later in zip(gaps, gaps[1:]))
    lines = [
        table.render(),
        "",
        "Shape checks: causal measured == 2n+6 exactly (oracle polling); "
        "atomic measured >= 3n+5; causal < atomic < central at every n; "
        f"gap grows with n: {gap_grows}.",
    ]
    return ExperimentReport(
        exp_id="E6",
        title="Section 4.1 message-count comparison (the headline table)",
        text="\n".join(lines),
        data={"rows": rows, "gap_grows": gap_grows},
        passed=shape_ok and gap_grows,
    )


# ----------------------------------------------------------------------
# E7: solver correctness on every memory model
# ----------------------------------------------------------------------
def exp_solver_convergence(
    n: int = 6, iterations: int = 25
) -> ExperimentReport:
    """The unchanged program converges on causal, atomic and central."""
    system = LinearSystem.random(n, seed=11)
    table = Table(
        ["protocol", "max |x - x*|", "residual", "messages"],
        title=f"Solver convergence, n={n}, {iterations} iterations",
    )
    errors: Dict[str, float] = {}
    for protocol in ("causal", "atomic", "central"):
        result = SynchronousSolver(
            system, protocol=protocol, iterations=iterations, seed=3
        ).run()
        errors[protocol] = result.max_error
        table.add_row(
            protocol, result.max_error, result.residual, result.total_messages
        )
    tolerance = 1e-6
    passed = all(err < tolerance for err in errors.values())
    agree = (
        max(errors.values()) - min(errors.values()) < tolerance
    )
    text = table.render() + (
        f"\n\nAll protocols reach max error < {tolerance:g}: {passed}; "
        f"solutions agree across memories: {agree} "
        "(the paper's 'similar code may be used ... on both atomic and "
        "causal memories')."
    )
    return ExperimentReport(
        exp_id="E7",
        title="Solver correctness on causal vs strongly consistent memory",
        text=text,
        data={"errors": errors},
        passed=passed and agree,
    )


# ----------------------------------------------------------------------
# E8: read-only inputs ablation (footnote 2)
# ----------------------------------------------------------------------
def exp_ablation_readonly(n: int = 6, iterations: int = 8) -> ExperimentReport:
    """Without the A/b exemption, sweeps evict the inputs every phase."""
    system = LinearSystem.random(n, seed=5)
    with_exemption = SynchronousSolver(
        system, protocol="causal", iterations=iterations, seed=1,
        read_only_inputs=True,
    ).run()
    without_exemption = SynchronousSolver(
        system, protocol="causal", iterations=iterations, seed=1,
        read_only_inputs=False,
    ).run()
    expected_refetch = 2 * (n + 1)  # n row entries + b_i, 2 messages each
    measured_extra = (
        without_exemption.steady_messages_per_processor
        - with_exemption.steady_messages_per_processor
    )
    passed = (
        with_exemption.steady_messages_per_processor
        == causal_messages_per_processor(n)
        and measured_extra >= expected_refetch - 1e-9
    )
    table = Table(
        ["configuration", "msgs/proc/iter", "max error"],
        title=f"Read-only input exemption ablation, n={n}",
    )
    table.add_row(
        "A,b read-only (paper footnote 2)",
        with_exemption.steady_messages_per_processor,
        with_exemption.max_error,
    )
    table.add_row(
        "no exemption (ablation)",
        without_exemption.steady_messages_per_processor,
        without_exemption.max_error,
    )
    text = table.render() + (
        f"\n\nEvicting the constant inputs costs ~{expected_refetch} extra "
        f"messages/processor/iteration (measured {measured_extra:.1f})."
    )
    return ExperimentReport(
        exp_id="E8",
        title="Ablation: avoiding invalidation of the constant inputs A, b",
        text=text,
        data={
            "with": with_exemption.steady_messages_per_processor,
            "without": without_exemption.steady_messages_per_processor,
        },
        passed=passed,
    )


# ----------------------------------------------------------------------
# E9: asynchronous solver
# ----------------------------------------------------------------------
def exp_async_solver(n: int = 6) -> ExperimentReport:
    """Chaotic relaxation: no synchronization, fewer messages."""
    system = LinearSystem.random(n, seed=13)
    sync = SynchronousSolver(
        system, protocol="causal", iterations=20, seed=2
    ).run()
    async_fresh = AsynchronousSolver(
        system, iterations=40, refresh=1, seed=2
    ).run()
    # Lazy refresh iterates on stale values between refreshes, so it
    # needs more iterations to reach the same accuracy — that is the
    # messages-versus-staleness trade-off this experiment quantifies.
    async_lazy = AsynchronousSolver(
        system, iterations=80, refresh=4, seed=2
    ).run()
    table = Table(
        ["solver", "iterations", "max error", "msgs/proc/iter"],
        title=f"Synchronous vs asynchronous solver, n={n}",
    )
    table.add_row("synchronous (Fig. 6)", sync.iterations, sync.max_error,
                  sync.steady_messages_per_processor)
    table.add_row("async, refresh=1", async_fresh.iterations,
                  async_fresh.max_error,
                  async_fresh.steady_messages_per_processor)
    table.add_row("async, refresh=4", async_lazy.iterations,
                  async_lazy.max_error,
                  async_lazy.steady_messages_per_processor)
    tolerance = 1e-6
    passed = (
        async_fresh.max_error < tolerance
        and async_lazy.max_error < tolerance
        and async_fresh.steady_messages_per_processor
        < sync.steady_messages_per_processor
        and async_lazy.steady_messages_per_processor
        < async_fresh.steady_messages_per_processor
    )
    text = table.render() + (
        "\n\nThe asynchronous variant eliminates the 8 handshake messages "
        "per iteration; lazier refresh trades messages for staleness "
        "(Chazan–Miranker guarantees convergence either way)."
    )
    return ExperimentReport(
        exp_id="E9",
        title="Asynchronous solver (the TR [4] extension)",
        text=text,
        data={
            "sync_msgs": sync.steady_messages_per_processor,
            "async_msgs": async_fresh.steady_messages_per_processor,
            "async_error": async_fresh.max_error,
        },
        passed=passed,
    )


# ----------------------------------------------------------------------
# E10: the distributed dictionary
# ----------------------------------------------------------------------
def exp_dictionary() -> ExperimentReport:
    """Random dictionary runs converge; the delete race resolves safely."""
    random_run = run_random_dictionary(n=4, m=6, ops_per_proc=12, seed=3)
    race_owner = run_dictionary_delete_race(OwnerFavoured())
    race_lww = run_dictionary_delete_race(LastWriterWins())
    passed = (
        random_run.converged
        and bool(random_run.history_is_causal)
        and race_owner.new_item_survived
        and race_owner.delete_was_rejected
        and not race_lww.new_item_survived
    )
    lines = [
        "Random workload (4 processes, 12 ops each, owner-favoured):",
        f"  inserts={random_run.inserts} deletes={random_run.deletes} "
        f"lookups={random_run.lookups} messages={random_run.total_messages}",
        f"  all views converged to owner state: {random_run.converged}",
        f"  recorded history is causal: {random_run.history_is_causal}",
        "",
        "Stale-delete race (Section 4.2):",
        f"  owner-favoured: survivors={sorted(race_owner.survivor_items)} "
        f"(new item survived: {race_owner.new_item_survived}, "
        f"stale delete rejected: {race_owner.delete_was_rejected})",
        f"  last-writer-wins: survivors={sorted(race_lww.survivor_items)} "
        f"(anomaly: the stale delete destroyed the newer insert)",
    ]
    return ExperimentReport(
        exp_id="E10",
        title="Section 4.2 — the distributed dictionary",
        text="\n".join(lines),
        data={
            "converged": random_run.converged,
            "owner_favoured_safe": race_owner.new_item_survived,
            "lww_anomaly": not race_lww.new_item_survived,
        },
        passed=passed,
    )


# ----------------------------------------------------------------------
# E11: discard provides liveness
# ----------------------------------------------------------------------
def exp_discard_liveness() -> ExperimentReport:
    """Without discard, cached readers never see new values."""
    frozen = run_discard_liveness(with_discard=False)
    live = run_discard_liveness(with_discard=True)
    passed = (
        frozen.messages_after_warmup == 0
        and not frozen.observed_fresh_values
        and live.observed_fresh_values
        and live.messages_after_warmup > 0
    )
    lines = [
        "Two nodes, each owning one location, reading the other's:",
        f"  without discard: {frozen.messages_after_warmup} messages after "
        f"warm-up; final observed {frozen.final_observed} vs authoritative "
        f"{frozen.final_authoritative}  (frozen views, zero communication)",
        f"  with discard:    {live.messages_after_warmup} messages after "
        f"warm-up; final observed {live.final_observed} vs authoritative "
        f"{live.final_authoritative}  (fresh views every round)",
    ]
    return ExperimentReport(
        exp_id="E11",
        title="Section 3.1 — discard ensures eventual communication",
        text="\n".join(lines),
        data={
            "frozen_messages": frozen.messages_after_warmup,
            "live_fresh": live.observed_fresh_values,
        },
        passed=passed,
    )


# ----------------------------------------------------------------------
# E12: no-cache reads give atomic (strong) correctness
# ----------------------------------------------------------------------
def exp_nocache_atomicity(seeds: Sequence[int] = range(12)) -> ExperimentReport:
    """Section 3.2: a request to the owner on every read is atomic."""
    failures = 0
    for seed in seeds:
        outcome = run_random_execution(
            WorkloadConfig(
                n_nodes=3, n_locations=3, ops_per_proc=14,
                seed=seed, no_cache=True,
            )
        )
        if not check_sequential(outcome.history, want_witness=False).ok:
            failures += 1
    passed = failures == 0
    text = (
        f"{len(list(seeds))} random executions with caching disabled "
        f"(every read is a request to the owner);\n"
        f"sequential-consistency violations: {failures}\n"
        "(paper Section 3.2: 'this strategy results in a memory that "
        "satisfies atomic correctness, not just causal correctness')"
    )
    return ExperimentReport(
        exp_id="E12",
        title="Section 3.2 — no-cache reads yield strong consistency",
        text=text,
        data={"failures": failures},
        passed=passed,
    )


# ----------------------------------------------------------------------
# E13: why writes block (the "reducing blocking" enhancement, done wrong)
# ----------------------------------------------------------------------
def exp_write_behind() -> ExperimentReport:
    """Non-blocking writes break causal memory; blocking ones don't."""
    safe = run_write_behind_race(unsafe=False)
    unsafe = run_write_behind_race(unsafe=True)
    safe_result = check_causal(safe)
    unsafe_result = check_causal(unsafe)
    passed = safe_result.ok and not unsafe_result.ok
    lines = [
        "Writer pipeline: w(x)1 to a slow owner, then w(y)2 to a fast one;",
        "an observer reads y's new value and then x.",
        "",
        "Blocking writes (Figure 4):",
        safe.to_text(),
        f"  causal: {safe_result.ok}",
        "",
        "Write-behind (unsafe 'reduced blocking'):",
        unsafe.to_text(),
        f"  causal: {unsafe_result.ok}",
    ]
    for verdict in unsafe_result.violations:
        lines.append("  " + verdict.explain())
    lines.append(
        "\nThe later write overtook the earlier in-flight one, so the "
        "observer saw w(y)2 without w(x)1 — exactly the hazard that "
        "makes Figure 4's writes block until certification."
    )
    return ExperimentReport(
        exp_id="E13",
        title="Why writes block: the write-behind hazard",
        text="\n".join(lines),
        data={"safe": safe_result.ok, "unsafe": unsafe_result.ok},
        passed=passed,
    )


# ----------------------------------------------------------------------
# E14: page granularity (the "scaling the unit of sharing" enhancement)
# ----------------------------------------------------------------------
def exp_page_granularity(
    array_len: int = 32, page_sizes: Sequence[int] = (1, 2, 4, 8, 16)
) -> ExperimentReport:
    """Larger pages amortize cold misses: 2*ceil(N/P) messages a scan."""
    from repro.memory import Namespace, location_array
    from repro.protocols.base import DSMCluster
    from repro.sim.tasks import sleep

    table = Table(
        ["page size", "cold-scan msgs", "model 2*ceil(N/P)",
         "rescan msgs", "invalidated"],
        title=f"Page-granularity sweep, array of {array_len} locations",
    )
    passed = True
    rows = []
    for page_size in page_sizes:
        base = Namespace.array_paged(2, page_size=page_size)
        namespace = Namespace(
            2, owner_fn=lambda unit: 0, unit_fn=base._unit_fn
        )
        cluster = DSMCluster(
            2, protocol="causal", namespace=namespace, record_history=False
        )
        marks: Dict[str, int] = {}

        def owner(api):
            for i in range(array_len):
                yield api.write(location_array("v", i), i)
            yield sleep(cluster.sim, 100.0)
            yield api.write(location_array("v", 0), 999)
            yield api.write("flag", 1)

        def reader(api):
            yield sleep(cluster.sim, 50.0)
            before = cluster.stats.total
            for i in range(array_len):
                yield api.read(location_array("v", i))
            marks["cold"] = cluster.stats.total - before
            yield sleep(cluster.sim, 100.0)
            api.discard("flag")
            yield api.read("flag")  # introduces the update, sweeps pages
            marks["invalidated"] = api.store.invalidation_count
            before = cluster.stats.total
            for i in range(array_len):
                yield api.read(location_array("v", i))
            marks["rescan"] = cluster.stats.total - before

        cluster.spawn(0, owner)
        cluster.spawn(1, reader)
        cluster.run()
        import math

        model = 2 * math.ceil(array_len / page_size)
        passed = passed and marks["cold"] == model and marks["rescan"] == model
        table.add_row(
            page_size, marks["cold"], model, marks["rescan"],
            marks["invalidated"],
        )
        rows.append(dict(page_size=page_size, **marks))
    text = table.render() + (
        "\n\nFetch traffic falls as 2*ceil(N/P) with page size P (the "
        "paper's 'scaling the unit of sharing to a page'); the "
        "invalidation sweep still conservatively drops every stale page."
    )
    return ExperimentReport(
        exp_id="E14",
        title="Page granularity: fetch amortization",
        text=text,
        data={"rows": rows},
        passed=passed,
    )


# ----------------------------------------------------------------------
# E15: caching pays — locality vs hit rate vs traffic
# ----------------------------------------------------------------------
def exp_locality(ops: int = 120) -> ExperimentReport:
    """Skewed access patterns raise hit rates and cut message traffic."""
    from repro.protocols.base import DSMCluster

    table = Table(
        ["workload", "read hit rate", "messages"],
        title=f"Access locality vs caching, 3 nodes x {ops} reads",
    )
    results: Dict[str, Dict[str, float]] = {}
    for label, hot_fraction in (("uniform", 0.0), ("80/20", 0.8),
                                ("95/5", 0.95)):
        cluster = DSMCluster(3, protocol="causal", record_history=False,
                             seed=17)
        n_locations = 20
        hot_set = max(1, n_locations // 10)

        def reader(api, me):
            rng = cluster.sim.derived_rng(f"loc-{me}-{label}")
            for _ in range(ops):
                if rng.random() < hot_fraction:
                    index = rng.randrange(hot_set)
                else:
                    index = rng.randrange(n_locations)
                yield api.read(f"shared{index}")

        for node in range(3):
            cluster.spawn(node, reader, node)
        cluster.run()
        reads = sum(n.stats.reads for n in cluster.nodes)
        hits = sum(n.stats.local_read_hits for n in cluster.nodes)
        hit_rate = hits / reads if reads else 0.0
        results[label] = {
            "hit_rate": hit_rate, "messages": cluster.stats.total,
        }
        table.add_row(label, hit_rate, cluster.stats.total)
    passed = (
        results["95/5"]["hit_rate"] > results["80/20"]["hit_rate"]
        > results["uniform"]["hit_rate"]
        and results["95/5"]["messages"] < results["uniform"]["messages"]
    )
    text = table.render() + (
        "\n\nCaching is what the protocol buys with weak consistency: "
        "the more skewed the access pattern, the more reads are free — "
        "a coherent DSM pays invalidations to keep the same caches."
    )
    return ExperimentReport(
        exp_id="E15",
        title="Locality ablation: what the cache is worth",
        text=text,
        data=results,
        passed=passed,
    )


# ----------------------------------------------------------------------
# E16: blocking time vs latency (the intro's motivation)
# ----------------------------------------------------------------------
def exp_latency_blocking(
    latencies: Sequence[float] = (1.0, 4.0, 16.0)
) -> ExperimentReport:
    """Causal memory blocks less than atomic as latency grows."""
    from repro.sim.latency import ConstantLatency

    table = Table(
        ["latency", "causal blocked", "atomic blocked", "ratio"],
        title="Total processor blocked time, solver n=4, 6 iterations",
    )
    passed = True
    ratios = []
    for latency in latencies:
        blocked: Dict[str, float] = {}
        for protocol in ("causal", "atomic"):
            system = LinearSystem.random(4, seed=7)
            solver = SynchronousSolver(
                system, protocol=protocol, iterations=6, seed=1,
                latency=ConstantLatency(latency),
            )
            solver.run()
            blocked[protocol] = sum(
                node.stats.blocked_time for node in solver.cluster.nodes
            )
        ratio = blocked["atomic"] / blocked["causal"]
        ratios.append(ratio)
        passed = passed and blocked["atomic"] > blocked["causal"]
        table.add_row(latency, blocked["causal"], blocked["atomic"], ratio)
    text = table.render() + (
        "\n\nEvery message the atomic protocol adds is a round trip some "
        "processor waits for; the blocking gap scales with latency — "
        "the paper's motivation that coherence protocols 'perform poorly "
        "in high latency distributed systems'."
    )
    return ExperimentReport(
        exp_id="E16",
        title="Blocking time vs network latency",
        text=text,
        data={"ratios": ratios},
        passed=passed,
    )


# ----------------------------------------------------------------------
# E17: ownership migration (Li's actual dynamic distributed manager)
# ----------------------------------------------------------------------
def exp_ownership_migration(rounds: int = 12) -> ExperimentReport:
    """Migrating ownership rewards write locality; causal still wins."""
    from repro.memory import Namespace
    from repro.protocols.base import DSMCluster

    table = Table(
        ["protocol", "write-local msgs", "ping-pong msgs"],
        title=f"Write locality: {rounds} writes per pattern",
    )
    results: Dict[str, Dict[str, int]] = {}
    for protocol in ("atomic", "li", "causal"):
        measured: Dict[str, int] = {}
        # Pattern 1: one remote node hammers one location.
        cluster = DSMCluster(
            2, protocol=protocol,
            namespace=Namespace.explicit(2, {"x": 0}),
        )

        def hammer(api):
            for i in range(rounds):
                yield api.write("x", i)

        cluster.spawn(1, hammer)
        cluster.run()
        measured["local"] = cluster.stats.total
        # Pattern 2: two nodes alternate writes (ping-pong).
        cluster = DSMCluster(
            3, protocol=protocol,
            namespace=Namespace.explicit(3, {"x": 0}),
        )

        def ping(api, me):
            from repro.sim.tasks import sleep

            for i in range(rounds // 2):
                yield api.write("x", 100 * me + i)
                yield sleep(cluster.sim, 10.0)

        cluster.spawn(1, ping, 1)
        cluster.spawn(2, ping, 2)
        cluster.run()
        measured["pingpong"] = cluster.stats.total
        results[protocol] = measured
        table.add_row(protocol, measured["local"], measured["pingpong"])
    passed = (
        # Migration wins the write-local pattern outright...
        results["li"]["local"] < results["atomic"]["local"]
        and results["li"]["local"] < results["causal"]["local"]
        # ...but thrashes under ping-pong sharing, where causal stays
        # cheapest and even the fixed-owner atomic baseline beats it.
        and results["causal"]["pingpong"] < results["li"]["pingpong"]
        and results["causal"]["pingpong"] <= results["atomic"]["pingpong"]
    )
    text = table.render() + (
        "\n\nLi's dynamic manager amortizes repeated writes by migrating "
        "ownership to the writer (one transfer, then locality) and wins "
        "the write-local pattern; under ping-pong sharing ownership "
        "thrashes (grant + invalidation per write) and the causal "
        "protocol's two-message certified writes stay cheapest — the "
        "trade-off behind the paper's owner-based comparison."
    )
    return ExperimentReport(
        exp_id="E17",
        title="Ownership migration (Li-Hudak dynamic manager) vs causal",
        text=text,
        data=results,
        passed=passed,
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
EXPERIMENTS: Dict[str, Callable[[], ExperimentReport]] = {
    "fig1": exp_fig1,
    "fig2": exp_fig2,
    "fig3": exp_fig3,
    "fig4": exp_fig4,
    "fig5": exp_fig5,
    "solver-table": exp_solver_table,
    "solver-convergence": exp_solver_convergence,
    "ablation-readonly": exp_ablation_readonly,
    "async-solver": exp_async_solver,
    "dictionary": exp_dictionary,
    "discard-liveness": exp_discard_liveness,
    "nocache-atomicity": exp_nocache_atomicity,
    "write-behind": exp_write_behind,
    "page-granularity": exp_page_granularity,
    "locality": exp_locality,
    "latency-blocking": exp_latency_blocking,
    "ownership-migration": exp_ownership_migration,
}


#: What the paper reports for each experiment, quoted for EXPERIMENTS.md.
PAPER_CLAIMS: Dict[str, str] = {
    "fig1": "w(x)1 and w(z)1 are concurrent; w(x)1 *-> r1(y)2; reads may "
            "establish or merely confirm causality.",
    "fig2": "The execution is correct on causal memory, with "
            "alpha(r1(z)5)={0,5}, alpha(r2(y)3)={0,2,3}, "
            "alpha(r2(x)4)={4,7,9}; after r(x)4, P2 may read only 4 or 9.",
    "fig3": "The execution 'is not allowed by causal memory but is "
            "possible when writes are treated as causal broadcasts' "
            "(2 is not in alpha(r(x)2)).",
    "fig4": "The owner protocol implements causal memory (proof in the "
            "companion TR GIT-CC-90/49).",
    "fig5": "The weakly consistent execution 'is allowed both by causal "
            "memory correctness and by our implementation if P1 is the "
            "owner of x and P2 is the owner of y' — and by no strongly "
            "consistent memory.",
    "solver-table": "Causal memory: 2n+6 messages per processor per "
                    "iteration; atomic memory: at least 3n+5 — 'a "
                    "substantial savings'.",
    "solver-convergence": "The Figure 6 code 'correctly solves the system "
                          "Ax = b on both atomic and causal memory'.",
    "ablation-readonly": "Footnote 2: 'a simple enhancement to the basic "
                         "algorithm can be used to avoid invalidations of "
                         "A and b'.",
    "async-solver": "'It is possible to eliminate the synchronization "
                    "entirely by using an asynchronous algorithm [4].'",
    "dictionary": "The dictionary needs no synchronization; 'writes by "
                  "the owner are always favored when resolving concurrent "
                  "writes', so a stale concurrent delete is rejected and "
                  "'the dictionary remains correct'.",
    "discard-liveness": "'Without discard two processors that initially "
                        "cache all locations and only write locations "
                        "owned by them need never communicate.'",
    "nocache-atomicity": "'A simple strategy ... is to force a request to "
                         "the owner on every read.  This strategy results "
                         "in a memory that satisfies atomic correctness.'",
    "write-behind": "Section 3.2 lists 'reducing the blocking of "
                    "processors' among possible improvements [4]; this "
                    "experiment shows the naive version (write-behind) is "
                    "unsafe, i.e. why Figure 4's writes block.",
    "page-granularity": "Section 3.2: improvements include 'scaling the "
                        "unit of sharing to a page'.",
    "locality": "Section 3.2: 'we lose all the benefits of caching' "
                "without cached reads — this quantifies those benefits.",
    "latency-blocking": "Introduction: coherence algorithms 'perform "
                        "poorly in high latency distributed systems'; "
                        "weakly consistent memories suit high latencies.",
    "ownership-migration": "Section 4.1 cites Li [15] as 'a "
                           "representative atomic DSM'; this implements "
                           "Li's actual dynamic distributed manager "
                           "(migrating ownership) and maps where it wins "
                           "and loses against the causal protocol.",
}


def generate_markdown_report() -> str:
    """Run every experiment and render EXPERIMENTS.md's body."""
    lines = [
        "# EXPERIMENTS — paper claims vs. measured reproduction",
        "",
        "Generated by `python -m repro report`.  Every experiment re-runs",
        "the full simulation/checker pipeline; the PASS flags are asserted",
        "by `tests/test_experiments.py`, which also checks that this file's",
        "E1–E17 part is exactly that command's output.",
        "",
    ]
    reports = [(name, EXPERIMENTS[name]()) for name in EXPERIMENTS]
    reports.sort(key=lambda pair: int(pair[1].exp_id.lstrip("E")))
    for name, report in reports:
        status = "PASS" if report.passed else "FAIL"
        lines.append(f"## {report.exp_id} ({name}) — {report.title}")
        lines.append("")
        lines.append(f"*Status:* **{status}**")
        lines.append("")
        claim = PAPER_CLAIMS.get(name)
        if claim:
            lines.append(f"*Paper claim:* {claim}")
            lines.append("")
        lines.append("*Measured in this reproduction:*")
        lines.append("")
        lines.append("```")
        lines.append(report.text)
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def run_experiment(name: str) -> ExperimentReport:
    """Run one experiment by registry name."""
    try:
        factory = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None
    return factory()
