"""Unit tests for operation histories and the figure-notation parser."""

import pytest

from repro.checker.history import (
    History,
    HistoryRecorder,
    INIT_PROC,
    Operation,
    initial_write_id,
)
from repro.errors import HistoryError


class TestParser:
    def test_parse_figure1(self, figure1):
        assert figure1.n_procs == 2
        assert len(figure1.processes[0]) == 4
        first = figure1.op(0, 0)
        assert (first.kind, first.location, first.value) == ("w", "x", 1)

    def test_values_parsed_as_int_when_possible(self):
        history = History.parse("P1: w(x)1 w(y)T")
        assert history.op(0, 0).value == 1
        assert history.op(0, 1).value == "T"

    def test_comments_and_blank_lines_ignored(self):
        history = History.parse("""
            # a comment
            P1: w(x)1

            P2: r(x)1
        """)
        assert history.n_procs == 2

    def test_bad_process_line_rejected(self):
        with pytest.raises(HistoryError):
            History.parse("not a process line")

    def test_bad_operation_rejected(self):
        with pytest.raises(HistoryError):
            History.parse("P1: q(x)1")

    def test_duplicate_writes_rejected(self):
        with pytest.raises(HistoryError, match="not unique"):
            History.parse("P1: w(x)1 w(x)1")

    def test_read_of_never_written_value_rejected(self):
        with pytest.raises(HistoryError, match="never written"):
            History.parse("P1: r(x)9")

    def test_read_of_initial_value_links_to_init_write(self):
        history = History.parse("P1: r(x)0")
        read = history.op(0, 0)
        assert read.read_from == initial_write_id("x")

    def test_to_text_round_trips(self, figure2):
        again = History.parse(figure2.to_text())
        assert again.to_text() == figure2.to_text()


class TestInitialWrites:
    def test_one_init_write_per_location(self, figure2):
        locations = {w.location for w in figure2.init_writes}
        assert locations == {"x", "y", "z"}
        assert all(w.proc == INIT_PROC for w in figure2.init_writes)

    def test_init_writes_carry_initial_value(self):
        history = History.parse("P1: w(x)1", initial_value=0)
        assert history.init_writes[0].value == 0

    def test_operations_include_init_first(self, figure1):
        ops = figure1.operations(include_init=True)
        assert ops[0].proc == INIT_PROC
        assert len(ops) == len(figure1.init_writes) + len(figure1)

    def test_operations_exclude_init(self, figure1):
        ops = figure1.operations(include_init=False)
        assert all(op.proc != INIT_PROC for op in ops)


class TestQueries:
    def test_reads(self, figure1):
        reads = figure1.reads()
        assert len(reads) == 4
        assert all(op.is_read for op in reads)

    def test_writes_by_location(self, figure2):
        x_writes = figure2.writes(location="x")
        assert len(x_writes) == 6  # init + 2,1,7,4,9
        app_only = figure2.writes(location="x", include_init=False)
        assert sorted(w.value for w in app_only) == [1, 2, 4, 7, 9]

    def test_write_by_id(self, figure1):
        write = figure1.op(0, 0)
        assert figure1.write_by_id(write.write_id) is write

    def test_write_by_unknown_id(self, figure1):
        with pytest.raises(HistoryError):
            figure1.write_by_id(("nope",))

    def test_op_accessor_for_init(self, figure1):
        op = figure1.op(INIT_PROC, 0)
        assert op.proc == INIT_PROC

    def test_len_counts_app_ops(self, figure1):
        assert len(figure1) == 7

    def test_operation_str(self):
        op = Operation(proc=0, index=1, kind="r", location="x", value=3)
        assert str(op) == "P1.r(x)3"


class TestFromOperations:
    def test_build_programmatically(self):
        history = History.from_operations(
            [[("w", "x", 1), ("r", "x", 1)], [("r", "x", 0)]]
        )
        assert history.n_procs == 2
        assert history.op(1, 0).read_from == initial_write_id("x")


class TestRecorder:
    def test_recorded_reads_use_explicit_identity(self):
        recorder = HistoryRecorder()
        recorder.record_write(0, "x", 5, write_id=("w1",))
        recorder.record_read(1, "x", 5, read_from=("w1",))
        history = recorder.build(n_procs=2)
        assert history.op(1, 0).read_from == ("w1",)

    def test_duplicate_values_allowed_with_distinct_ids(self):
        recorder = HistoryRecorder()
        recorder.record_write(0, "x", 5, write_id=("a",))
        recorder.record_write(1, "x", 5, write_id=("b",))
        history = recorder.build(n_procs=2)
        assert len(history.writes(location="x", include_init=False)) == 2

    def test_duplicate_write_ids_rejected(self):
        recorder = HistoryRecorder()
        recorder.record_write(0, "x", 1, write_id=("dup",))
        recorder.record_write(1, "y", 2, write_id=("dup",))
        with pytest.raises(HistoryError, match="duplicate"):
            recorder.build(n_procs=2)

    def test_read_from_unknown_write_rejected(self):
        recorder = HistoryRecorder()
        recorder.record_read(0, "x", 5, read_from=("ghost",))
        with pytest.raises(HistoryError):
            recorder.build(n_procs=1)

    def test_read_from_a_write_to_another_location_rejected(self):
        # A known identity is not enough: alpha(r(x)) is made of writes
        # to x, and a chain tip's source is looked up among them.
        w_y = Operation(0, 0, "w", "y", 1, write_id=(0, 1))
        r_x = Operation(1, 0, "r", "x", 1, read_from=(0, 1))
        with pytest.raises(HistoryError, match=r"P2\.r\(x\)1.*P1\.w\(y\)1"):
            History([[w_y], [r_x]])

    def test_read_of_another_value_than_its_source_rejected(self):
        # A read returns exactly what its source wrote.
        recorder = HistoryRecorder()
        recorder.record_write(0, "x", 1, write_id=(0, 1))
        recorder.record_write(0, "x", 2, write_id=(0, 2))
        recorder.record_read(1, "x", 2, read_from=(0, 1))
        with pytest.raises(
            HistoryError, match=r"P2\.r\(x\)2.*P1\.w\(x\)1.*another value"
        ):
            recorder.build(n_procs=2)

    def test_read_value_check_is_identity_first(self):
        nan = float("nan")
        recorder = HistoryRecorder()
        recorder.record_write(0, "x", nan, write_id=(0, 1))
        recorder.record_read(1, "x", nan, read_from=(0, 1))
        history = recorder.build(n_procs=2)
        assert history.op(1, 0).value is nan

    def test_recorded_initial_reads_carry_the_memory_initial_value(self):
        recorder = HistoryRecorder(initial_value=None)
        recorder.record_read(0, "x", None, read_from=initial_write_id("x"))
        assert recorder.build(n_procs=1).initial_value is None
        zero = HistoryRecorder()  # the default memory starts at 0
        zero.record_read(0, "x", None, read_from=initial_write_id("x"))
        with pytest.raises(HistoryError, match="another value"):
            zero.build(n_procs=1)

    def test_build_infers_proc_count(self):
        recorder = HistoryRecorder()
        recorder.record_write(2, "x", 1, write_id=("w",))
        history = recorder.build()
        assert history.n_procs == 3
        assert history.processes[0] == []

    def test_program_order_preserved(self):
        recorder = HistoryRecorder()
        recorder.record_write(0, "x", 1, write_id=("w1",))
        recorder.record_write(0, "y", 2, write_id=("w2",))
        history = recorder.build(n_procs=1)
        assert [op.location for op in history.processes[0]] == ["x", "y"]
