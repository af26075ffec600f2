"""Unit/integration tests for the synchronous linear solver (Figure 6)."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import repro
from repro.analysis.message_model import (
    atomic_messages_lower_bound,
    causal_messages_per_processor,
)
from repro.apps import linear_solver
from repro.apps.linear_solver import (
    LinearSystem,
    SynchronousSolver,
    solver_namespace,
)
from repro.errors import ReproError

#: The seeds the differential test draws with: small ones, the
#: benchmark's ``sim-solver`` instance seeds for 1991 and 2024, and two
#: seeds of more than one and more than two 32-bit words.
NUMPY_SEEDS = (
    list(range(40))
    + list(range(1991000, 1991016))
    + list(range(2024000, 2024016))
    + [2**40 + 3, 2**70 + 11]
)


def _allclose(xs, ys):
    """``numpy.allclose``'s default test, element by element."""
    return all(abs(x - y) <= 1e-8 + 1e-5 * abs(y) for x, y in zip(xs, ys))


def _fraction_solution(system):
    """Gauss–Jordan over ``Fraction``, each component rounded once."""
    n = system.n
    rows = [
        [Fraction(v) for v in row] + [Fraction(b_i)]
        for row, b_i in zip(system.a, system.b)
    ]
    for k in range(n):
        pivot_at = next(r for r in range(k, n) if rows[r][k])
        rows[k], rows[pivot_at] = rows[pivot_at], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for r in range(n):
            if r != k and rows[r][k]:
                factor = rows[r][k]
                rows[r] = [u - factor * v for u, v in zip(rows[r], rows[k])]
    return [float(row[n]) for row in rows]


class TestLinearSystem:
    def test_random_is_diagonally_dominant(self):
        system = LinearSystem.random(6, seed=1)
        a = system.a
        for i in range(6):
            off_diag = sum(abs(v) for v in a[i]) - abs(a[i][i])
            assert abs(a[i][i]) > off_diag

    def test_shape_mismatch_rejected(self):
        identity = [[float(i == j) for j in range(3)] for i in range(3)]
        with pytest.raises(ReproError):
            LinearSystem(a=identity, b=[0.0, 0.0])
        with pytest.raises(ReproError):
            LinearSystem(a=[[1.0, 0.0], [0.0]], b=[0.0, 0.0])

    def test_negative_seed_rejected(self):
        with pytest.raises(ReproError):
            LinearSystem.random(3, seed=-1)

    def test_sequences_are_normalised_to_float_tuples(self):
        system = LinearSystem(a=[[2, 1], [1, 3]], b=(1, 2))
        assert system.a == ((2.0, 1.0), (1.0, 3.0))
        assert system.b == (1.0, 2.0)
        assert all(type(v) is float for row in system.a for v in row)

    def test_exact_solution_solves_system(self):
        system = LinearSystem.random(5, seed=2)
        x = system.exact_solution()
        assert system.residual(x) < 1e-9

    def test_seeded_reproducibility(self):
        a = LinearSystem.random(4, seed=3)
        b = LinearSystem.random(4, seed=3)
        assert a.a == b.a
        assert a.b == b.b
        assert a.a != LinearSystem.random(4, seed=4).a

    @pytest.mark.parametrize("n", list(range(1, 21)) + [32, 129, 200])
    def test_random_is_numpys_construction_bit_for_bit(self, n):
        """Every summation branch of ``numpy.sum`` (below 8 terms, eight
        accumulators up to 128, halves above) and every seed width."""
        np = pytest.importorskip("numpy")
        for seed in NUMPY_SEEDS:
            rng = np.random.default_rng(seed)
            a = rng.uniform(-1.0, 1.0, size=(n, n))
            row_sums = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
            np.fill_diagonal(a, 1.5 * row_sums + 1.0)
            b = rng.uniform(-1.0, 1.0, size=n)
            system = LinearSystem.random(n, seed=seed)
            assert np.array(system.a).tobytes() == a.tobytes(), (n, seed)
            assert np.array(system.b).tobytes() == b.tobytes(), (n, seed)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_solution_is_the_rounded_exact_solution(self, n):
        for seed in range(20):
            system = LinearSystem.random(n, seed=seed)
            assert list(system.exact_solution()) == _fraction_solution(system)

    def test_exact_solution_pivots_past_a_zero(self):
        system = LinearSystem(a=[[0.0, 2.0], [3.0, 1.0]], b=[1.0, 0.1])
        assert list(system.exact_solution()) == _fraction_solution(system)

    def test_singular_system_rejected(self):
        system = LinearSystem(a=[[1.0, 2.0], [0.5, 1.0]], b=[1.0, 0.0])
        with pytest.raises(ReproError, match="singular"):
            system.exact_solution()

    def test_exact_solution_is_solved_once(self, monkeypatch):
        calls = []
        solve = linear_solver._correctly_rounded_solve

        def counting(a, b):
            calls.append(1)
            return solve(a, b)

        monkeypatch.setattr(linear_solver, "_correctly_rounded_solve", counting)
        system = LinearSystem.random(5, seed=2)
        first = system.exact_solution()
        first[0] = 0.0  # a caller's copy: the memo stays intact
        assert system.exact_solution() == LinearSystem.random(5, seed=2).exact_solution()
        assert len(calls) == 2  # one per system, not one per call

    def test_residual_sums_each_row_left_to_right(self):
        system = LinearSystem(
            a=[[1.0, 1e16, -1e16], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            b=[0.0, 1.0, 1.0],
        )
        # 1 + 1e16 rounds the 1 away; an exact sum would leave 1.0.
        assert system.residual([1.0, 1.0, 1.0]) == 0.0


class TestNamespace:
    def test_worker_owns_its_slice(self):
        ns = solver_namespace(4)
        assert ns.owner("x[2]") == 2
        assert ns.owner("complete[3]") == 3
        assert ns.owner("changed[0]") == 0

    def test_coordinator_owns_inputs(self):
        ns = solver_namespace(4)
        assert ns.owner("A[1][2]") == 4
        assert ns.owner("b[0]") == 4
        assert ns.owner("ready") == 4

    def test_inputs_read_only_by_default(self):
        ns = solver_namespace(4)
        assert ns.is_read_only("A[0][0]")
        assert ns.is_read_only("b[2]")
        assert not ns.is_read_only("x[0]")

    def test_ablation_disables_read_only(self):
        ns = solver_namespace(4, read_only_inputs=False)
        assert not ns.is_read_only("A[0][0]")


class TestConvergence:
    @pytest.mark.parametrize("protocol", ["causal", "atomic", "central"])
    def test_solver_converges(self, protocol):
        system = LinearSystem.random(4, seed=5)
        result = SynchronousSolver(
            system, protocol=protocol, iterations=15, seed=1
        ).run()
        assert result.max_error < 1e-6
        assert result.residual < 1e-5

    def test_all_protocols_agree(self):
        system = LinearSystem.random(4, seed=5)
        solutions = [
            SynchronousSolver(
                system, protocol=protocol, iterations=15, seed=1
            ).run().solution
            for protocol in ("causal", "atomic", "central")
        ]
        assert _allclose(solutions[0], solutions[1])
        assert _allclose(solutions[0], solutions[2])

    def test_more_iterations_reduce_error(self):
        system = LinearSystem.random(4, seed=5)
        few = SynchronousSolver(system, iterations=4, seed=1).run()
        many = SynchronousSolver(system, iterations=16, seed=1).run()
        assert many.max_error < few.max_error


class TestMessageCounting:
    """The Section 4.1 argument, measured."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_causal_matches_formula_exactly(self, n):
        system = LinearSystem.random(n, seed=7)
        result = SynchronousSolver(
            system, protocol="causal", iterations=8, seed=1
        ).run()
        assert result.steady_messages_per_processor == pytest.approx(
            causal_messages_per_processor(n)
        )

    def test_delta_stamps_change_neither_the_count_nor_the_answer(self):
        """E18's solver half: the wire fast path is invisible to Figure 6."""
        n = 4
        system = LinearSystem.random(n, seed=7)
        plain = SynchronousSolver(system, iterations=6).run()
        fast = SynchronousSolver(system, iterations=6, delta_stamps=True).run()
        assert fast.steady_messages_per_processor == pytest.approx(2 * n + 6)
        assert fast.total_messages == plain.total_messages
        assert fast.max_error == plain.max_error

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_atomic_at_least_paper_bound(self, n):
        system = LinearSystem.random(n, seed=7)
        result = SynchronousSolver(
            system, protocol="atomic", iterations=8, seed=1
        ).run()
        assert (
            result.steady_messages_per_processor
            >= atomic_messages_lower_bound(n)
        )

    def test_causal_beats_atomic_beats_central(self):
        system = LinearSystem.random(4, seed=7)
        per_proc = {}
        for protocol in ("causal", "atomic", "central"):
            result = SynchronousSolver(
                system, protocol=protocol, iterations=8, seed=1
            ).run()
            per_proc[protocol] = result.steady_messages_per_processor
        assert per_proc["causal"] < per_proc["atomic"] < per_proc["central"]

    def test_phase_snapshots_labelled_per_iteration(self):
        system = LinearSystem.random(4, seed=7)
        iterations = 6
        result = SynchronousSolver(
            system, protocol="causal", iterations=iterations, seed=1
        ).run()
        assert len(result.phase_snapshots) == iterations
        labels = [snap.label for snap in result.phase_snapshots]
        assert labels == [f"iteration={k}" for k in range(iterations)]
        # Counters are cumulative, so snapshots are monotone in messages.
        totals = [snap.total for snap in result.phase_snapshots]
        assert totals == sorted(totals)
        # And the snapshot deltas agree with per_phase_messages.
        from repro.analysis.tables import snapshot_table

        table = snapshot_table(result.phase_snapshots)
        assert len(table.rows) == iterations

    def test_steady_state_is_steady(self):
        system = LinearSystem.random(4, seed=7)
        result = SynchronousSolver(
            system, protocol="causal", iterations=10, seed=1
        ).run()
        steady = result.per_phase_messages[2:-1]
        assert len(set(steady)) == 1  # identical every phase

    def test_readonly_ablation_costs_refetches(self):
        system = LinearSystem.random(4, seed=7)
        with_ro = SynchronousSolver(
            system, iterations=8, seed=1, read_only_inputs=True
        ).run()
        without_ro = SynchronousSolver(
            system, iterations=8, seed=1, read_only_inputs=False
        ).run()
        assert (
            without_ro.steady_messages_per_processor
            > with_ro.steady_messages_per_processor
        )
        # Both still converge.
        assert without_ro.max_error < 1e-4


class TestPollingMode:
    def test_polling_solver_converges(self):
        system = LinearSystem.random(3, seed=9)
        result = SynchronousSolver(
            system, iterations=6, seed=1,
            wait_mode="polling", poll_period=2.0,
        ).run()
        assert result.max_error < 1e-3

    def test_polling_never_cheaper_than_oracle(self):
        system = LinearSystem.random(3, seed=9)
        oracle = SynchronousSolver(
            system, iterations=6, seed=1, wait_mode="oracle"
        ).run()
        polling = SynchronousSolver(
            system, iterations=6, seed=1,
            wait_mode="polling", poll_period=3.0,
        ).run()
        assert polling.total_messages >= oracle.total_messages


class TestValidation:
    def test_unknown_protocol_rejected(self):
        system = LinearSystem.random(3, seed=1)
        with pytest.raises(ReproError):
            SynchronousSolver(system, protocol="broadcast")

    def test_unknown_wait_mode_rejected(self):
        system = LinearSystem.random(3, seed=1)
        with pytest.raises(ReproError):
            SynchronousSolver(system, wait_mode="spin")

    def test_result_summary_renders(self):
        system = LinearSystem.random(3, seed=1)
        result = SynchronousSolver(system, iterations=4, seed=1).run()
        assert "causal" in result.summary()


def test_nothing_imports_numpy():
    """The package, the solvers included, runs with numpy unloaded."""
    code = (
        "import sys\n"
        "import repro\n"
        "from repro.apps import AsynchronousSolver, LinearSystem, "
        "SynchronousSolver\n"
        "system = LinearSystem.random(3, seed=1)\n"
        "assert SynchronousSolver(system, iterations=4).run().max_error < 1\n"
        "assert AsynchronousSolver(system, iterations=4).run().max_error < 1\n"
        "assert 'numpy' not in sys.modules, 'something imported numpy'\n"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert completed.returncode == 0, completed.stderr
