"""Unit tests for live sets (Definition 1) — the paper's worked examples."""

import pytest

from repro.checker.causality import CausalOrder
from repro.checker.history import History
from repro.checker.live_values import live_set, live_values
from repro.errors import CheckError


def alpha(history, proc, index):
    order = CausalOrder(history)
    return live_values(order, history.op(proc, index))


class TestFigure2LiveSets:
    """Exactly the alpha sets the paper computes for Figure 2."""

    def test_alpha_r1_z5(self, figure2):
        assert alpha(figure2, 0, 3) == {0, 5}

    def test_alpha_r2_y3(self, figure2):
        assert alpha(figure2, 1, 1) == {0, 2, 3}

    def test_alpha_r2_x4(self, figure2):
        assert alpha(figure2, 1, 4) == {4, 7, 9}

    def test_alpha_r2_x9_after_notice(self, figure2):
        # "P2's second read of x may correctly return only 4 or 9."
        assert alpha(figure2, 1, 5) == {4, 9}

    def test_alpha_r3_z5(self, figure2):
        assert alpha(figure2, 2, 0) == {0, 5}


class TestConditions:
    def test_concurrent_write_is_live(self):
        history = History.parse("""
            P1: w(x)1
            P2: r(x)0
        """)
        assert alpha(history, 1, 0) == {0, 1}

    def test_write_following_read_not_live(self):
        history = History.parse("""
            P1: r(x)0 w(y)1
            P2: r(y)1 w(x)2
        """)
        # w(x)2 causally follows r(x)0 via y, so only 0 is live for it.
        assert alpha(history, 0, 0) == {0}

    def test_overwritten_by_later_write_not_live(self):
        history = History.parse("P1: w(x)1 w(x)2 r(x)2")
        assert alpha(history, 0, 2) == {2}

    def test_intervening_read_serves_notice(self):
        # The paper: "an intervening read operation r(x)v' serves notice
        # that v has been overwritten."
        history = History.parse("""
            P1: w(x)1
            P2: w(x)2 r(x)1
            P3: r(x)1
        """)
        # P3 has observed nothing, so everything (including the initial
        # value) is live for its read.
        assert alpha(history, 2, 0) == {0, 1, 2}
        # P2 wrote 2 and then read the concurrent 1 — that read serves
        # notice; a further read of 2 by P2 would be a violation, which
        # shows as 2 (and 0) missing from the live set of such a read.
        history2 = History.parse("""
            P1: w(x)1
            P2: w(x)2 r(x)1 r(x)2
        """)
        from repro.checker.causal_checker import check_causal

        assert not check_causal(history2).ok

    def test_read_of_same_write_does_not_intervene(self):
        history = History.parse("P1: w(x)1 r(x)1 r(x)1")
        assert alpha(history, 0, 2) == {1}

    def test_chain_of_overwrites(self):
        history = History.parse("P1: w(x)1 w(x)2 w(x)3 r(x)3")
        assert alpha(history, 0, 3) == {3}

    def test_initial_value_live_until_overwritten_in_view(self):
        history = History.parse("""
            P1: w(x)1
            P2: r(x)0
        """)
        assert 0 in alpha(history, 1, 0)

    def test_initial_value_dead_after_local_write(self):
        history = History.parse("P1: w(x)1 r(x)1")
        assert alpha(history, 0, 1) == {1}

    def test_cross_process_notice_via_message_chain(self):
        # P3 hears about the overwrite through y.
        history = History.parse("""
            P1: w(x)1 w(x)2 w(y)9
            P2: r(y)9 r(x)2
        """)
        assert alpha(history, 1, 1) == {2}


class TestLiveSetAPI:
    def test_live_set_returns_write_operations(self, figure2):
        order = CausalOrder(figure2)
        read = figure2.op(0, 3)
        writes = live_set(order, read)
        assert all(w.is_write for w in writes)
        assert {w.value for w in writes} == {0, 5}

    def test_rejects_non_read(self, figure2):
        order = CausalOrder(figure2)
        with pytest.raises(CheckError):
            live_set(order, figure2.op(0, 0))
