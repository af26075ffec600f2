"""Unit tests for the asynchronous (chaotic relaxation) solver."""

import pytest

from repro.apps.async_solver import AsynchronousSolver, async_namespace
from repro.apps.linear_solver import LinearSystem, SynchronousSolver
from repro.errors import ReproError


class TestNamespace:
    def test_worker_owns_component_and_rows(self):
        ns = async_namespace(4)
        assert ns.owner("x[2]") == 2
        assert ns.owner("A[3][1]") == 3
        assert ns.owner("b[1]") == 1


class TestConvergence:
    def test_converges_with_fresh_reads(self):
        system = LinearSystem.random(4, seed=1)
        result = AsynchronousSolver(system, iterations=40, seed=1).run()
        assert result.max_error < 1e-8

    def test_converges_with_lazy_refresh(self):
        system = LinearSystem.random(4, seed=1)
        result = AsynchronousSolver(
            system, iterations=80, refresh=4, seed=1
        ).run()
        assert result.max_error < 1e-8

    def test_deterministic_per_seed(self):
        system = LinearSystem.random(4, seed=1)
        a = AsynchronousSolver(system, iterations=20, seed=3).run()
        b = AsynchronousSolver(system, iterations=20, seed=3).run()
        assert a.total_messages == b.total_messages
        assert a.max_error == b.max_error


class TestMessageEconomy:
    def test_fewer_messages_than_synchronous(self):
        system = LinearSystem.random(5, seed=2)
        sync = SynchronousSolver(
            system, protocol="causal", iterations=10, seed=1
        ).run()
        async_result = AsynchronousSolver(
            system, iterations=10, seed=1
        ).run()
        assert (
            async_result.steady_messages_per_processor
            < sync.steady_messages_per_processor
        )

    def test_refresh_reduces_messages(self):
        system = LinearSystem.random(5, seed=2)
        fresh = AsynchronousSolver(system, iterations=20, refresh=1, seed=1).run()
        lazy = AsynchronousSolver(system, iterations=20, refresh=5, seed=1).run()
        assert lazy.total_messages < fresh.total_messages

    def test_message_rate_matches_model(self):
        # 2 (n - 1) messages per worker per iteration at refresh=1,
        # ignoring the handful of startup writes.
        n = 5
        system = LinearSystem.random(n, seed=2)
        result = AsynchronousSolver(system, iterations=50, seed=1).run()
        assert result.steady_messages_per_processor == pytest.approx(
            2 * (n - 1), rel=0.1
        )


    @pytest.mark.parametrize("refresh", [2, 4])
    def test_message_rate_scales_with_refresh(self, refresh):
        # E9: lazier refresh trades staleness for messages — the rate
        # falls as 2 (n - 1) / refresh, and the solver still converges.
        n = 6
        system = LinearSystem.random(n, seed=13)
        result = AsynchronousSolver(
            system, iterations=40 * refresh, refresh=refresh, seed=2
        ).run()
        assert result.steady_messages_per_processor == pytest.approx(
            2 * (n - 1) / refresh, rel=0.15
        )
        assert result.max_error < 1e-6


class TestValidation:
    def test_zero_refresh_rejected(self):
        system = LinearSystem.random(3, seed=1)
        with pytest.raises(ReproError):
            AsynchronousSolver(system, refresh=0)

    def test_unknown_protocol_rejected(self):
        system = LinearSystem.random(3, seed=1)
        with pytest.raises(ReproError):
            AsynchronousSolver(system, protocol="broadcast")
