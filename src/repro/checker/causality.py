"""The causality relation over a history, on vector clocks.

Section 2 of the paper: causality (``->``) is the union of two rules —
program order (successive operations of one process) and reads-from (a
read is caused by the write it reads) — and ``*->`` is the transitive
closure.  Operations unrelated by ``*->`` are *concurrent*.  Initial
writes causally precede every operation of every process.

A :class:`CausalFeed` is the one place clocks are assigned and reads
decided.  Operations arrive in program order per process, interleaved
across processes in any way.  Each gets its Fidge–Mattern clock: bump
the issuing process's component, and a read joins its source's clock.
A read whose source has no clock yet parks its process — its later
operations queue behind it — and filing that write wakes exactly the
processes parked on it.  So the filing order is a linearisation of
``*->`` and the clocks are exact: ``vt(o)[p(o)]`` is ``o``'s position
in its process, and ``a *-> b`` iff ``vt(b)[p(a)] >= vt(a)[p(a)]``, one
int compare.  What is still parked when the stream ends is a cycle and
everything after it.  Initial writes have the zero clock.

Definition 1 considers a read's causal past *excluding the reads-from
edge established by that read itself*.  A read's only other in-edge is
its program-order predecessor (the initial writes, for a process's
first operation), so that past is its process's frontier when it is
filed.  Every operation is filed as a *notice* of its location, per
issuing process (:class:`_NoticeGroup`), and condition 2 is
:func:`_excluded`, the one between-ness test.  A read is decided when it
is filed, on its own source: one own-component compare, else one
``_excluded`` call.  :meth:`CausalFeed.live_ids` puts every write of a
location to the same predicate.

The feed has two users, and each overrides its hook: a
:class:`CausalOrder` is a whole history fed through it, keeping every
clock and verdict; the streaming monitor
(:class:`repro.monitor.CausalStreamMonitor`) adds garbage collection and
a verdict sink (DESIGN.md §4.3, §4.8).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import zip_longest
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.checker.history import History, INIT_PROC, Operation
from repro.errors import CheckError

__all__ = ["CausalFeed", "CausalOrder", "CausalityCycleError"]

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
    """One process's same-location notices, in filing order.

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

    The between-ness test of reads and GC (:meth:`CausalFeed.live_ids`
    runs it on witnesses found once per read).  ``source``
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


class CausalFeed:
    """Clocks, parking and read verdicts over an operation stream.

    :meth:`feed` takes each process's operations in program order.
    Every filed operation goes to :meth:`_filed`, the hook a user
    overrides; a user that retires writes also overrides :meth:`_dead`,
    so that a read of a retired source is decided instead of parked.
    """

    def __init__(self, n_procs: int):
        self._zero: Clock = (0,) * n_procs
        #: Per process, the clock of its last filed operation.
        self.frontier: List[Clock] = [self._zero] * n_procs
        #: location -> {write_id: (clock, writer)}, in filing order.  A
        #: location enters with its initial write, ``(zero, 0)``, which
        #: both own-component tests pass trivially.
        self._candidates: Dict[str, Dict[Tuple, Tuple[Clock, int]]] = {}
        #: location -> {proc: _NoticeGroup}: every filed op, as a notice.
        self._notices: Dict[str, Dict[int, _NoticeGroup]] = {}
        #: Per process, its parked read and the ops queued behind it, as
        #: ``(proc, index, kind, location, value, source)``.
        self._pending: List[Deque[Tuple]] = [deque() for _ in range(n_procs)]
        self._n_pending = 0
        #: source -> the processes whose parked read names it.
        self._waiting: Dict[Tuple, List[int]] = {}
        #: Processes whose parked read's source has just been filed.
        self._woken: List[int] = []
        self._arrivals: List[int] = [0] * n_procs

    def feed(
        self, proc: int, kind: str, location: str, value: Any, source: Tuple
    ) -> None:
        """File ``proc``'s next operation, or queue it behind its
        process's parked read.

        ``source`` is the write identity: a write's own, a read's
        reads-from.  The operation's index is its arrival position.
        """
        index = self._arrivals[proc]
        self._arrivals[proc] = index + 1
        queue = self._pending[proc]
        if queue or not self._file(proc, index, kind, location, value, source):
            if not queue:
                self._waiting.setdefault(source, []).append(proc)
            queue.append((proc, index, kind, location, value, source))
            self._n_pending += 1
        elif self._woken:
            self._drain()

    def _drain(self) -> None:
        """The parking pass: file each woken process's queue until it
        empties or its head parks again, on a new source."""
        woken, pending = self._woken, self._pending
        while woken:
            proc = woken.pop()
            queue = pending[proc]
            while queue:
                op = queue.popleft()
                self._n_pending -= 1
                if not self._file(*op):
                    queue.appendleft(op)
                    self._n_pending += 1
                    self._waiting.setdefault(op[5], []).append(proc)
                    break

    def _file(self, proc, index, kind, location, value, source) -> bool:
        """Clock, decide and file one op; False when a read must park."""
        candidates = self._candidates.get(location)
        if candidates is None:
            if (
                kind == "r" and source[0] != "init"
                and not self._dead(location, source)
            ):
                return False
            candidates = self._candidates[location] = {
                ("init", location): (self._zero, 0)
            }
            self._notices[location] = {}
        past = self.frontier[proc]
        groups = self._notices[location]
        ok = True
        vt = None
        if kind == "r":  # decided before clocked: a parked read builds none
            entry = candidates.get(source)
            if entry is None:
                if not self._dead(location, source):
                    return False
                ok = False  # its clock is gone: the read keeps its bump
            else:
                source_vt, writer = entry
                own = source_vt[writer]
                if past[writer] < own:  # concurrent: live (condition 1)
                    vt = [x if x >= y else y for x, y in zip(past, source_vt)]
                else:
                    ok = not _excluded(groups, source, writer, own, past)
        if vt is None:
            vt = list(past)
        # The bump; a joined source's ``proc`` component is at most
        # ``past[proc]``, since ``proc``'s ops are filed in order.
        vt[proc] = past[proc] + 1
        vt = tuple(vt)
        if kind == "w":
            candidates[source] = (vt, proc)
            parked = self._waiting.pop(source, None)
            if parked is not None:
                self._woken += parked
        self.frontier[proc] = vt
        group = groups.get(proc)
        if group is None:
            group = groups[proc] = _NoticeGroup()
        group.append(vt[proc], vt, source)
        self._filed(proc, index, kind, location, value, source, past, vt, ok)
        return True

    def _dead(self, location: str, source: Tuple) -> bool:
        """Was this unseen source filed and then retired?  Never, here."""
        return False

    def _filed(self, proc, index, kind, location, value, source, past, vt, ok):
        """Hook: one op was filed with clock ``vt``; a read's ``past``
        excludes its own reads-from edge and ``ok`` is its verdict."""

    def live_ids(
        self, location: str, proc: int, past: Clock
    ) -> Tuple[Tuple, ...]:
        """Definition 1: the ids of ``location``'s filed writes live for
        a read by ``proc`` whose past is ``past``, in filing order.

        A write outside the past is concurrent, and live unless the read
        precedes it (two own-component compares; the read's own
        component is ``past[proc] + 1``).  A write in the past is live
        unless a notice of another value sits in between.  Asked after
        the read is filed, the read's own notice lies outside ``past``,
        so the answer is the one the read was decided on.

        The between-ness test is :func:`_excluded`'s, with each group's
        witnesses found once per call rather than once per write: the
        in-cut tip's source and clock, and ``last_other[tip]``'s clock.
        """
        tips = []
        for q, group in self._notices[location].items():
            k = bisect_right(group.seqs, past[q]) - 1
            if k >= 0:
                other = group.last_other[k]
                tips.append((
                    group.srcs[k], group.vts[k],
                    group.vts[other] if other >= 0 else None,
                ))
        live = []
        for write_id, (vt, writer) in self._candidates[location].items():
            own = vt[writer]
            if past[writer] < own:  # concurrent: live unless the read is first
                if vt[proc] <= past[proc]:
                    live.append(write_id)
                continue
            for carried, witness, other in tips:
                if carried == write_id:
                    witness = other
                    if witness is None:
                        continue
                if witness[writer] >= own:
                    break
            else:
                live.append(write_id)
        return tuple(live)


class CausalOrder(CausalFeed):
    """A history fed through a :class:`CausalFeed`: every operation's
    clock, every read's verdict, and Definition 1 on them.

    Raises
    ------
    CausalityCycleError
        If program order plus reads-from contains a cycle; its members
        are the operations left parked, in :attr:`ops` order.
    """

    def __init__(self, history: History):
        super().__init__(history.n_procs)
        self.history = history
        self.ops: List[Operation] = history.operations(include_init=True)
        #: ``op_id -> position in ops``, built by the first query.
        self._pos: Optional[Dict[Tuple[int, int], int]] = None
        #: Per process, its operations' clocks in program order.
        self._clocks: List[List[Clock]] = [[] for _ in history.processes]
        #: The op ids of the reads whose source is not live for them.
        self.rejected: Set[Tuple[int, int]] = set()
        feed = self.feed
        for column in zip_longest(*history.processes):  # round-robin
            for op in column:
                if op is not None:
                    feed(
                        op.proc, op.kind, op.location, op.value,
                        op.write_id if op.kind == "w" else op.read_from,
                    )
        if self._n_pending:
            processes = history.processes
            raise CausalityCycleError([
                processes[proc][index]
                for queue in self._pending for proc, index, *_ in queue
            ])

    def _filed(self, proc, index, kind, location, value, source, past, vt, ok):
        self._clocks[proc].append(vt)
        if not ok:
            self.rejected.add((proc, index))

    def index_of(self, op: Operation) -> int:
        """Internal index of an operation (stable across queries)."""
        pos = self._pos
        if pos is None:
            pos = self._pos = {o.op_id: i for i, o in enumerate(self.ops)}
        try:
            return pos[op.op_id]
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

    def live_set(self, read: Operation) -> List[Operation]:
        """The writes of ``read``'s location live for it, in
        ``History.writes`` order (the initial write first)."""
        live = set(self.live_ids(read.location, read.proc, self._past(read)))
        return [
            write for write in self.history.writes(location=read.location)
            if write.write_id in live
        ]
