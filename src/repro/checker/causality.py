"""The causality relation over a history, on vector clocks.

Section 2 of the paper: causality (``->``) is the union of two rules —
program order (successive operations of one process) and reads-from (a
read is caused by the write it reads) — and ``*->`` is the transitive
closure.  Operations unrelated by ``*->`` are *concurrent*.  Initial
writes causally precede every operation of every process.

A :class:`CausalOrder` is the one place a history is indexed, once per
check.  One pass gives every operation its Fidge–Mattern clock by the
streaming monitor's rule: bump the issuing process's component, and a
read joins its source's clock.  A read whose source has no clock yet
parks its process until it has one, so the processing order is a
linearisation of ``*->`` and the clocks are exact: ``vt(o)[p(o)]`` is
``o``'s position in its process, and ``a *-> b`` iff
``vt(b)[p(a)] >= vt(a)[p(a)]``, one int compare.  What is still parked
when nothing can move is a cycle and everything after it.  Initial
writes have the zero clock.

Definition 1 considers a read's causal past *excluding the reads-from
edge established by that read itself*.  A read's only other in-edge is
its program-order predecessor (the initial writes, for a process's
first operation), so that past is the predecessor's clock, or zero.
The same pass files every operation as a *notice* of its location, per
issuing process (:class:`_NoticeGroup`), and condition 2 is
:func:`_excluded`: the between-ness test the monitor
(:mod:`repro.monitor.monitor`) imports from here (DESIGN.md §4.3, §4.8).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Tuple

from repro.checker.history import History, INIT_PROC, Operation
from repro.errors import CheckError

__all__ = ["CausalOrder", "CausalityCycleError"]

Clock = Tuple[int, ...]


class CausalityCycleError(CheckError):
    """The history's causality relation is cyclic.

    A cyclic ``*->`` means some read reads from a write that causally
    follows it (e.g. a process reading its *own later* write) — such an
    execution is trivially incorrect on causal memory, since "writes that
    causally follow o are never live for o".
    """

    def __init__(self, cycle_members: List[Operation]):
        self.cycle_members = cycle_members
        ops = ", ".join(str(op) for op in cycle_members[:8])
        suffix = "..." if len(cycle_members) > 8 else ""
        super().__init__(f"causality relation is cyclic: {ops}{suffix}")


class _NoticeGroup:
    """One process's same-location notices, in processing order.

    ``seqs[k]`` is notice ``k``'s own component — strictly increasing,
    so "notice in a cut" is a prefix found by one ``bisect_right``.
    Along one process the other components are nondecreasing too, so
    "source in the notice's past" is a suffix.  ``last_other[k]`` is the
    largest index ``j <= k`` whose source differs from ``srcs[k]`` (-1 if
    none): the one notice of the prefix that can witness an exclusion
    even when a process read the same write a thousand times.
    """

    __slots__ = ("seqs", "vts", "srcs", "last_other")

    def __init__(self):
        self.seqs: List[int] = []
        self.vts: List[Clock] = []
        self.srcs: List[Tuple] = []
        self.last_other: List[int] = []

    def __len__(self) -> int:
        return len(self.seqs)

    def append(self, seq: int, vt: Clock, src: Tuple) -> None:
        srcs = self.srcs
        if not srcs:
            self.last_other.append(-1)
        elif srcs[-1] != src:
            self.last_other.append(len(srcs) - 1)
        else:
            self.last_other.append(self.last_other[-1])
        self.seqs.append(seq)
        self.vts.append(vt)
        srcs.append(src)

    def drop_prefix(self, count: int) -> None:
        """Retire the first ``count`` notices (the monitor's GC)."""
        self.seqs = self.seqs[count:]
        self.vts = self.vts[count:]
        self.srcs = self.srcs[count:]
        self.last_other = [
            j - count if j >= count else -1 for j in self.last_other[count:]
        ]


def _excluded(
    groups: Dict[int, _NoticeGroup],
    source: Tuple,
    writer: int,
    own: int,
    cut: Clock,
) -> bool:
    """Does a notice of another write sit between ``source`` and ``cut``?

    The between-ness test of reads, live sets and GC alike.  ``source``
    was written by ``writer`` with own component ``own``; ``cut`` is a
    downward-closed timestamp (a read's past or the min-frontier).
    A notice of process ``q`` lies in the cut iff its own component is
    at most ``cut[q]``; the group's witness is its in-cut tip, or
    ``last_other[tip]`` when the tip carries ``source`` itself, and it
    lies after ``source`` iff its ``writer`` component reaches ``own``.
    """
    for q, group in groups.items():
        k = bisect_right(group.seqs, cut[q]) - 1
        if k < 0:
            continue
        if group.srcs[k] == source:
            k = group.last_other[k]
            if k < 0:
                continue
        if group.vts[k][writer] >= own:
            return True
    return False


class CausalOrder:
    """Every operation's vector clock, and Definition 1 on them.

    Raises
    ------
    CausalityCycleError
        If program order plus reads-from contains a cycle; its members
        are the operations left parked, in :attr:`ops` order.
    """

    def __init__(self, history: History):
        self.history = history
        self.ops: List[Operation] = history.operations(include_init=True)
        self._pos: Dict[Tuple[int, int], int] = {
            op.op_id: i for i, op in enumerate(self.ops)
        }
        self._zero: Clock = (0,) * history.n_procs
        #: Per process, its operations' clocks in program order.
        self._clocks: List[List[Clock]] = [[] for _ in history.processes]
        #: write_id -> (clock, writer).  An initial write is
        #: ``(zero, 0)``, which both own-component tests pass trivially.
        self._written: Dict[Tuple, Tuple[Clock, int]] = {
            init.write_id: (self._zero, 0) for init in history.init_writes
        }
        #: location -> {proc: _NoticeGroup}: every op, as a notice.
        self._notices: Dict[str, Dict[int, _NoticeGroup]] = {}
        self._assign_clocks()

    def _assign_clocks(self) -> None:
        processes, written = self.history.processes, self._written
        waiting: Dict[Tuple, List[int]] = {}  # source -> parked processes
        ready = list(range(len(processes)))
        while ready:
            p = ready.pop()
            ops, clocks = processes[p], self._clocks[p]
            vt = clocks[-1] if clocks else self._zero
            for op in ops[len(clocks):]:
                vt = vt[:p] + (vt[p] + 1,) + vt[p + 1:]
                if op.is_write:
                    source = op.write_id
                    written[source] = (vt, p)
                    ready += waiting.pop(source, ())
                else:
                    source = op.read_from
                    entry = written.get(source)
                    if entry is None:
                        waiting.setdefault(source, []).append(p)
                        break
                    source_vt, writer = entry
                    if vt[writer] < source_vt[writer]:
                        vt = tuple(map(max, vt, source_vt))
                clocks.append(vt)
                groups = self._notices.setdefault(op.location, {})
                group = groups.get(p)
                if group is None:
                    group = groups[p] = _NoticeGroup()
                group.append(vt[p], vt, source)
        if waiting:
            raise CausalityCycleError([
                op for ops, clocks in zip(processes, self._clocks)
                for op in ops[len(clocks):]
            ])

    def index_of(self, op: Operation) -> int:
        """Internal index of an operation (stable across queries)."""
        try:
            return self._pos[op.op_id]
        except KeyError:
            raise CheckError(f"{op} is not part of this history") from None

    def _clock(self, op: Operation) -> Clock:
        """``op``'s clock (zero for an initial write)."""
        self.index_of(op)  # refuses an operation of another history
        if op.proc == INIT_PROC:
            return self._zero
        return self._clocks[op.proc][op.index]

    def precedes(self, a: Operation, b: Operation) -> bool:
        """``a *-> b`` (strict: an operation does not precede itself)."""
        vt_a, vt_b = self._clock(a), self._clock(b)
        if a.op_id == b.op_id or b.proc == INIT_PROC:
            return False
        return a.proc == INIT_PROC or vt_b[a.proc] >= vt_a[a.proc]

    def concurrent(self, a: Operation, b: Operation) -> bool:
        """Neither ``a *-> b`` nor ``b *-> a`` (and ``a != b``)."""
        return a.op_id != b.op_id and not (
            self.precedes(a, b) or self.precedes(b, a)
        )

    def _past(self, read: Operation) -> Clock:
        """``read``'s causal past without its own reads-from edge: its
        program-order predecessor's clock (zero for a first op)."""
        if not read.is_read:
            raise CheckError(f"{read} is not a read operation")
        self.index_of(read)
        if not read.index:
            return self._zero
        return self._clocks[read.proc][read.index - 1]

    def precedes_excluding_rf(self, a: Operation, read: Operation) -> bool:
        """``a *-> read`` in the graph without ``read``'s reads-from edge.

        Definition 1 considers "all the causal relationships in the
        execution except the reads-from ordering established by o itself".
        """
        past, vt_a = self._past(read), self._clock(a)
        return a.proc == INIT_PROC or past[a.proc] >= vt_a[a.proc]

    def is_live(self, write: Operation, read: Operation) -> bool:
        """Definition 1: is ``write``'s value live for ``read``?"""
        return self._live(
            write, read.proc, self._past(read), self._notices[read.location]
        )

    def live_set(self, read: Operation) -> List[Operation]:
        """The writes of ``read``'s location live for it, in
        ``History.writes`` order (the initial write first)."""
        past, groups = self._past(read), self._notices[read.location]
        return [
            write for write in self.history.writes(location=read.location)
            if self._live(write, read.proc, past, groups)
        ]

    def _live(
        self,
        write: Operation,
        proc: int,
        past: Clock,
        groups: Dict[int, _NoticeGroup],
    ) -> bool:
        """The live predicate for a read of ``proc`` with this ``past``
        and its location's notice ``groups``.

        Outside the past, ``write`` is concurrent and live unless the
        read precedes it (condition 1: two own-component compares; the
        read's own component is its past's plus one).  In the past it is
        live unless a notice of another value sits in between
        (condition 2).
        """
        vt, writer = self._written[write.write_id]
        own = vt[writer]
        if past[writer] < own:
            return vt[proc] <= past[proc]
        return not _excluded(groups, write.write_id, writer, own, past)
