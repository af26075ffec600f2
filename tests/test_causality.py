"""Unit tests for the causality relation (program order + reads-from)."""

import pytest

from repro.checker.causality import CausalityCycleError, CausalOrder
from repro.checker.history import History, INIT_PROC
from repro.errors import CheckError


class TestFigure1Relations:
    """The paper's worked discussion of Figure 1."""

    @pytest.fixture
    def order(self, figure1):
        return CausalOrder(figure1)

    def test_concurrent_writes(self, figure1, order):
        w_x = figure1.op(0, 0)
        w_z = figure1.op(1, 0)
        assert order.concurrent(w_x, w_z)

    def test_transitive_precedence_through_read(self, figure1, order):
        # w1(x)1 -> w1(y)2 -> r2(y)2  gives w1(x)1 *-> r2(y)2
        w_x = figure1.op(0, 0)
        r2_y = figure1.op(1, 1)
        assert order.precedes(w_x, r2_y)

    def test_program_order_edges(self, figure1, order):
        assert order.precedes(figure1.op(0, 0), figure1.op(0, 3))

    def test_reads_from_edge(self, figure1, order):
        w_y = figure1.op(0, 1)
        r2_y = figure1.op(1, 1)
        assert order.precedes(w_y, r2_y)

    def test_no_reverse_edge(self, figure1, order):
        assert not order.precedes(figure1.op(1, 1), figure1.op(0, 1))

    def test_operation_not_concurrent_with_itself(self, figure1, order):
        op = figure1.op(0, 0)
        assert not order.concurrent(op, op)

    def test_precedes_is_strict(self, figure1, order):
        op = figure1.op(0, 0)
        assert not order.precedes(op, op)


class TestInitialWrites:
    def test_init_precedes_every_operation(self, figure1):
        order = CausalOrder(figure1)
        for init in figure1.init_writes:
            for proc_ops in figure1.processes:
                for op in proc_ops:
                    assert order.precedes(init, op)

    def test_init_writes_mutually_concurrent(self, figure1):
        order = CausalOrder(figure1)
        init = figure1.init_writes
        assert order.concurrent(init[0], init[1])


class TestExcludingReadsFrom:
    def test_rf_source_not_preceding_when_only_link_is_rf(self):
        history = History.parse("""
            P1: w(x)1
            P2: r(x)1
        """)
        order = CausalOrder(history)
        write = history.op(0, 0)
        read = history.op(1, 0)
        assert order.precedes(write, read)
        assert not order.precedes_excluding_rf(write, read)

    def test_program_order_path_still_counts(self):
        history = History.parse("P1: w(x)1 r(x)1")
        order = CausalOrder(history)
        write = history.op(0, 0)
        read = history.op(0, 1)
        # rf source is also the program-order predecessor; excluding the
        # rf edge keeps the program-order edge.
        assert order.precedes_excluding_rf(write, read)

    def test_transitive_path_bypassing_rf(self):
        history = History.parse("""
            P1: w(x)1 w(y)2
            P2: r(y)2 r(x)1
        """)
        order = CausalOrder(history)
        w_x = history.op(0, 0)
        r_x = history.op(1, 1)
        # Path w(x)1 -> w(y)2 -> r(y)2 -> r(x)1 avoids r(x)1's rf edge.
        assert order.precedes_excluding_rf(w_x, r_x)

    def test_requires_read_operation(self, figure1):
        order = CausalOrder(figure1)
        with pytest.raises(CheckError):
            order.precedes_excluding_rf(figure1.op(0, 0), figure1.op(0, 1))

    def test_init_writes_reach_first_op_excluding_rf(self):
        history = History.parse("P1: r(x)0")
        order = CausalOrder(history)
        init = history.init_writes[0]
        read = history.op(0, 0)
        # The read reads from the init write AND the init write is a
        # non-rf predecessor (first op of the process): still preceding.
        assert order.precedes_excluding_rf(init, read)


class TestCycles:
    def test_read_own_future_write_is_cyclic(self):
        history = History.parse("P1: r(x)1 w(x)1")
        with pytest.raises(CausalityCycleError):
            CausalOrder(history)

    def test_cross_process_cycle_detected(self):
        history = History.parse("""
            P1: r(y)2 w(x)1
            P2: r(x)1 w(y)2
        """)
        with pytest.raises(CausalityCycleError):
            CausalOrder(history)

    def test_cycle_error_names_operations(self):
        history = History.parse("P1: r(x)1 w(x)1")
        with pytest.raises(CausalityCycleError, match="P1"):
            CausalOrder(history)


class TestUtilities:
    def test_foreign_operation_rejected(self, figure1, figure2):
        order = CausalOrder(figure1)
        with pytest.raises(CheckError):
            order.precedes(figure2.op(2, 1), figure1.op(0, 0))
