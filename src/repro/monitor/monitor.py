"""The streaming causal-consistency monitor — Definition 2, online.

The offline checker (:mod:`repro.checker`) sees a complete history and
can afford global structures; this module answers the same question —
"is every read's value live for it?" — *while the execution runs*, from
the ``proto.op.commit`` event stream, in memory bounded by the causal
*window* rather than the history length.

How it works
------------

**Monitor clocks.**  The monitor assigns every operation its own vector
timestamp over the causality relation the paper defines: program order
union reads-from, transitively closed.  Protocol clocks are useless
here — they order operations by *message* paths the memory abstraction
does not expose, so two application-level concurrent writes can look
ordered.  Each op bumps its issuing process's component; a read then
joins its source's timestamp.  So ``vt(o)[p(o)]`` is ``o``'s position in
its process's processed sequence and every ``vt(o)`` is a downward-
closed cut, which gives the own-component test (Fidge/Mattern):
``a *-> b`` iff ``vt(b)[p(a)] >= vt(a)[p(a)]`` — one int compare, no
vector compare.

**Parking.**  Events arrive in *commit* order, which interleaves
processes arbitrarily and can even deliver a write's commit after a
commit of a read that used its value (an owner-protocol remote write
commits at the writer only when the W-REPLY lands).  Per-process queues
preserve program order; a write is always processable, a read parks
until its source write has been processed.  The processed sequence is
therefore a linearisation of causality, which is what makes
verdict-at-processing-time equal the offline verdict (DESIGN.md §4.8).
Reads parked forever (a causality cycle, or a truncated stream) are
reported as *unresolved* and fail the run, matching the offline
checker's cycle verdict.

**Verdict.**  For read ``r`` by process ``p`` from write ``w``:
``vt_excl = bump(frontier[p], p)`` is ``r``'s timestamp with its own
reads-from edge excluded (Definition 1 demands the exclusion).  ``w``
is live iff it is concurrent with ``r`` (``vt_excl[p(w)] < vt(w)[p(w)]``)
or no *notice* — a processed same-location operation carrying a
different write's value — sits causally between them.  Notices are
grouped per issuing process; per group that question is one bisect and
one int compare (:func:`_excluded`), and the same test serves the read
path, :meth:`CausalStreamMonitor.windowed_live_set` and GC.

**Garbage collection.**  Every ``gc_interval`` processed operations the
monitor computes the *minimum frontier* (componentwise min over all
processes' last timestamps).  A notice at or below it has already been
seen by every process, so (a) every candidate write it excludes can
never be live for any future read — those candidates are retired, and a
later read naming one is flagged as a ``dead-source`` violation without
needing the evidence — and (b) the notice itself can never exclude a
future candidate, so it is retired too.  The soundness argument is
DESIGN.md §4.8; the short form is that every future read's
exclusion-timestamp dominates the minimum frontier, so dominated
exclusions keep holding after the evidence is gone.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.errors import ReproError

__all__ = [
    "MonitorOp",
    "MonitorVerdict",
    "MonitorResult",
    "MonitorViolationError",
    "CausalStreamMonitor",
]


def _tuple_id(source: Any) -> Tuple:
    """Normalise a write identity (JSON turns tuples into lists)."""
    if isinstance(source, list):
        return tuple(source)
    return source


def _is_stamped(write_id: Tuple) -> bool:
    """True for protocol-shaped identities ``(writer, stamp)``.

    Writer stamps increase by one per write, so ``stamp <= max seen``
    decides "already processed" without remembering retired ids.
    Synthetic identities (``("val", loc, v)`` from parsed histories)
    lack the shape and fall back to an explicit killed set.
    """
    return (
        len(write_id) == 2
        and isinstance(write_id[0], int)
        and isinstance(write_id[1], int)
    )


class MonitorOp(NamedTuple):
    """One application-level operation as the monitor sees it.

    ``index`` is the arrival position within ``proc``'s stream — commit
    events arrive in per-process program order (operations block), so it
    coincides with the offline :class:`~repro.checker.history.Operation`
    index.  ``source`` is the write identity: the op's own for a write,
    the reads-from assignment for a read.  Built only when an op parks
    or a verdict is handed out; the field order is the processing
    code's positional signature.
    """

    proc: int
    index: int
    kind: str  # "r" | "w"
    location: str
    value: Any
    source: Tuple

    def __str__(self) -> str:
        return f"P{self.proc + 1}.{self.kind}({self.location}){self.value}"


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
        self.vts: List[Tuple[int, ...]] = []
        self.srcs: List[Tuple] = []
        self.last_other: List[int] = []

    def __len__(self) -> int:
        return len(self.seqs)

    def append(self, seq: int, vt: Tuple[int, ...], src: Tuple) -> None:
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
        """Retire the first ``count`` notices (GC)."""
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
    cut: Tuple[int, ...],
) -> bool:
    """Does a notice of another write sit between ``source`` and ``cut``?

    The between-ness test of reads, live sets and GC alike.  ``source``
    was written by ``writer`` with own component ``own``; ``cut`` is a
    downward-closed timestamp (a read's ``vt_excl`` or the min-frontier).
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


@dataclass(frozen=True)
class MonitorVerdict:
    """The online liveness verdict of one read.

    ``vt`` is the read's monitor-assigned vector timestamp; ``live`` is
    the *windowed* live set (write identities still in the window —
    concurrent writes that have not committed yet are necessarily
    absent, which cannot change ``ok``: the verdict only needs the
    source's own liveness).  ``causal_past`` is populated on violations:
    the window's writes causally at or below the read, the evidence a
    human (or the shrinker) starts from.
    """

    op: MonitorOp
    ok: bool
    vt: Tuple[int, ...]
    live: Tuple[Tuple, ...]
    reason: str = ""  # "" | "stale-source" | "dead-source"
    causal_past: Tuple[Tuple, ...] = ()

    def explain(self) -> str:
        if self.ok:
            return f"{self.op}: ok"
        return (
            f"{self.op}: VIOLATION ({self.reason}) at vt={self.vt}; "
            f"windowed alpha = {list(self.live)!r}"
        )


class MonitorViolationError(ReproError):
    """Raised in strict mode on the first violating read."""

    def __init__(self, verdict: MonitorVerdict):
        super().__init__(verdict.explain())
        self.verdict = verdict


@dataclass
class MonitorResult:
    """What a finished (or running) monitor concluded."""

    ok: bool
    reads_checked: int
    ops_processed: int
    n_violations: int
    violations: List[MonitorVerdict]
    unresolved: List[MonitorOp]
    max_window: int
    gc_retired: int
    frontier: Tuple[Tuple[int, ...], ...]
    #: Always 0: the monitor keeps no live-set memo.  Kept because the
    #: benchmark's ``monitor.cache_hit_ratio`` reads both fields.
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def first_violation(self) -> Optional[MonitorVerdict]:
        return self.violations[0] if self.violations else None

    def explain(self) -> str:
        if self.ok:
            return (
                f"causal: {self.reads_checked} reads checked, "
                f"window peaked at {self.max_window} ops"
            )
        lines = [v.explain() for v in self.violations]
        if self.unresolved:
            lines.append(
                f"{len(self.unresolved)} unresolved ops "
                f"(cyclic or truncated stream): "
                + ", ".join(str(op) for op in self.unresolved[:8])
            )
        return "\n".join(lines)


class CausalStreamMonitor:
    """Incremental Definition-2 checking over an operation stream.

    Parameters
    ----------
    n_procs:
        Number of application processes (vector-timestamp width).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when given
        the monitor maintains ``monitor.*`` gauges (frontier width,
        window size, events/sec), counters (ops, GC retirements) and an
        ``observe`` latency histogram.  When ``None`` the monitor takes
        no timestamps at all.
    gc_interval:
        Processed-op period of the dominated-prefix collection.
    raise_on_violation:
        Strict mode: raise :class:`MonitorViolationError` on the first
        violating read instead of recording it.
    window_ops:
        Per-process length of the replay window handed to the shrinker
        (:func:`repro.monitor.report.violation_counterexample`).
    on_verdict:
        Optional callback receiving every read's :class:`MonitorVerdict`
        — the monitor itself only retains violations (bounded memory).
    """

    #: Violations retained in full; beyond this only the count grows.
    VIOLATION_LIMIT = 32

    def __init__(
        self,
        n_procs: int,
        metrics=None,
        gc_interval: int = 64,
        raise_on_violation: bool = False,
        window_ops: int = 64,
        on_verdict: Optional[Callable[[MonitorVerdict], None]] = None,
    ):
        if n_procs <= 0:
            raise ReproError(f"need at least one process, got {n_procs}")
        self.n_procs = n_procs
        self.metrics = metrics
        self.gc_interval = gc_interval
        self.raise_on_violation = raise_on_violation
        self.window_ops = window_ops
        self.on_verdict = on_verdict

        self._zero = (0,) * n_procs
        #: Last processed op's timestamp per process (the causal frontier).
        self.frontier: List[Tuple[int, ...]] = [self._zero] * n_procs
        # Metric objects resolved once: the per-op path must not pay a
        # string-keyed registry lookup per update.
        if metrics is not None:
            self._g_window = metrics.gauge("monitor.window_ops")
            self._g_frontier = metrics.gauge("monitor.frontier_width")
            self._g_rate = metrics.gauge("monitor.events_per_sec")
            self._c_ops = metrics.counter("monitor.ops")
            self._c_gc = metrics.counter("monitor.gc_retired")
            self._c_violations = metrics.counter("monitor.violations")
            self._h_observe = metrics.histogram("monitor.observe_us")
        self._pending: List[Deque[MonitorOp]] = [deque() for _ in range(n_procs)]
        #: location -> {write_id: (vt, writer)}, insertion-ordered (the
        #: candidates); the initial write is ``(zero, 0)``, which both
        #: own-component tests pass trivially.
        self._candidates: Dict[str, Dict[Tuple, Tuple[Tuple[int, ...], int]]] = {}
        #: location -> {proc: _NoticeGroup} — processed ops serving
        #: notice, grouped by issuing process.
        self._notices: Dict[str, Dict[int, _NoticeGroup]] = {}
        #: Highest protocol stamp processed per writer (dead-source test).
        self._max_stamp: Dict[int, int] = {}
        #: GC-killed ids that lack the (writer, stamp) shape and so fall
        #: outside the _max_stamp test (synthetic histories only; the
        #: protocol stream never feeds these, keeping memory bounded).
        self._killed_odd: Set[Tuple] = set()
        self._init_killed: Set[str] = set()
        self._arrivals: List[int] = [0] * n_procs
        self._program_window: List[Deque[Tuple]] = [
            deque(maxlen=window_ops) for _ in range(n_procs)
        ]
        self._since_gc = 0
        self._obs_seconds = 0.0
        self._timing_tick = 0
        self._ops_synced = 0  # ops already folded into the metrics counter
        #: Incrementally maintained candidates + notices count;
        #: recounting per op would be O(locations).  Parked ops are
        #: counted separately in ``_n_pending``; the window is the sum.
        self._window = 0
        self._n_pending = 0

        self.ops_processed = 0
        self.reads_checked = 0
        self.gc_retired = 0
        self.max_window = 0
        self.n_violations = 0
        self.violations: List[MonitorVerdict] = []

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def observe(self, event) -> None:
        """Stream-subscriber entry point: filter and feed one TraceEvent.

        Register with ``collector.subscribe(monitor.observe)``; every
        event that is not a ``proto.op.commit`` is discarded with two
        string compares.
        """
        if event.category != "proto" or event.name != "op.commit":
            return
        args = event.args
        self.feed_op(
            event.node, args["kind"], args["location"], args["value"],
            _tuple_id(args["source"]),
        )

    #: One in this many feeds is wall-clock timed when metrics are on.
    #: Systematic sampling keeps the latency histogram and the
    #: events/sec estimate honest while keeping two ``perf_counter``
    #: calls per op off the hot path.
    TIMING_SAMPLE = 16

    def feed_op(
        self, proc: int, kind: str, location: str, value: Any, source: Tuple
    ) -> None:
        """Feed one committed operation (program order per process)."""
        if self.metrics is None:
            self._feed(proc, kind, location, value, source)
            return
        self._timing_tick += 1
        if self._timing_tick % self.TIMING_SAMPLE:
            self._feed(proc, kind, location, value, source)
            return
        started = perf_counter()
        try:
            self._feed(proc, kind, location, value, source)
        finally:
            elapsed = perf_counter() - started
            self._obs_seconds += elapsed
            self._h_observe.observe(elapsed * 1e6)

    def _feed(
        self, proc: int, kind: str, location: str, value: Any, source: Tuple
    ) -> None:
        index = self._arrivals[proc]
        self._arrivals[proc] = index + 1
        self._program_window[proc].append(
            ("w", location, value) if kind == "w" else ("r", location)
        )
        # Nothing parked anywhere: processing this op cannot unblock
        # anything, so it skips the queue round trip.
        if self._n_pending == 0 and self._process(
            proc, index, kind, location, value, source
        ):
            return
        self._pending[proc].append(
            MonitorOp(proc, index, kind, location, value, source)
        )
        self._n_pending += 1
        self._drain()

    # ------------------------------------------------------------------
    # Kahn-with-parking processing
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        progress = True
        while progress:
            progress = False
            for queue in self._pending:
                while queue:
                    op = queue.popleft()
                    self._n_pending -= 1
                    if not self._process(*op):
                        queue.appendleft(op)
                        self._n_pending += 1
                        break  # parks the whole process (program order)
                    progress = True

    def _dead(self, location: str, source: Tuple) -> bool:
        """Was this unseen source processed and then retired by GC?"""
        if source[0] == "init":
            return location in self._init_killed
        if _is_stamped(source):
            # The writer has committed past this stamp, so the write was
            # processed and GC retired it: provably dead (§4.8).
            return source[1] <= self._max_stamp.get(source[0], -1)
        return source in self._killed_odd

    def _process(
        self,
        proc: int,
        index: int,
        kind: str,
        location: str,
        value: Any,
        source: Tuple,
    ) -> bool:
        """Process one op; False (nothing changed) when a read must park."""
        candidates = self._candidates.get(location)
        if kind == "r":
            if candidates is None and source[0] == "init":
                candidates = self._touch_location(location)
            entry = None if candidates is None else candidates.get(source)
            if entry is None and not self._dead(location, source):
                return False
        if candidates is None:
            candidates = self._touch_location(location)
        last = self.frontier[proc]
        vt = last[:proc] + (last[proc] + 1,) + last[proc + 1:]
        groups = self._notices[location]
        verdict = None
        if kind == "w":
            candidates[source] = (vt, proc)
            self._window += 2  # +candidate +notice
            if _is_stamped(source):
                writer, stamp = source
                if stamp > self._max_stamp.get(writer, -1):
                    self._max_stamp[writer] = stamp
        else:
            vt_excl = vt
            if entry is None:
                # The source's timestamp is below every process's
                # frontier (that is why it was retired), so vt_excl IS
                # the read's exact timestamp.
                ok, reason = False, "dead-source"
            else:
                source_vt, writer = entry
                own = source_vt[writer]
                if vt_excl[writer] < own:
                    ok = True  # concurrent -> live (condition 1)
                    vt = tuple(map(max, vt_excl, source_vt))
                else:
                    ok = not _excluded(groups, source, writer, own, vt_excl)
                reason = "" if ok else "stale-source"
            # Verdict objects are built only when someone will see them.
            # Evidence is snapshotted before the read's own notice lands
            # (the notice would retire other candidates from the
            # reported live set).
            if not ok or self.on_verdict is not None:
                verdict = MonitorVerdict(
                    op=MonitorOp(proc, index, kind, location, value, source),
                    ok=ok, vt=vt,
                    live=self.windowed_live_set(location, vt_excl),
                    reason=reason,
                    causal_past=() if ok else self._causal_past(vt),
                )
            self._window += 1  # +notice
            self.reads_checked += 1
        self.frontier[proc] = vt
        group = groups.get(proc)
        if group is None:
            group = groups[proc] = _NoticeGroup()
        group.append(vt[proc], vt, source)
        if verdict is not None:
            if self.on_verdict is not None:
                self.on_verdict(verdict)
            if not verdict.ok:
                self.n_violations += 1
                if len(self.violations) < self.VIOLATION_LIMIT:
                    self.violations.append(verdict)
                if self.metrics is not None:
                    self._c_violations.inc()
                if self.raise_on_violation:
                    self._after_process()
                    raise MonitorViolationError(verdict)
        self._after_process()
        return True

    def _touch_location(self, location: str) -> Dict:
        """Materialise the location: init candidate plus its notice groups."""
        candidates = self._candidates[location] = {
            ("init", location): (self._zero, 0)
        }
        self._notices[location] = {}
        self._window += 1
        return candidates

    # ------------------------------------------------------------------
    # Windowed live sets (Definition 1 over the window)
    # ------------------------------------------------------------------
    def windowed_live_set(
        self, location: str, vt_excl: Tuple[int, ...]
    ) -> Tuple[Tuple, ...]:
        """The window's live write identities for an exclusion timestamp."""
        candidates = self._candidates.get(location)
        if not candidates:
            return ()
        groups = self._notices[location]
        return tuple(
            write_id
            for write_id, (write_vt, writer) in candidates.items()
            if vt_excl[writer] < write_vt[writer]  # concurrent (condition 1)
            or not _excluded(
                groups, write_id, writer, write_vt[writer], vt_excl
            )
        )

    def _causal_past(self, vt: Tuple[int, ...]) -> Tuple[Tuple, ...]:
        """Window writes causally at-or-below ``vt`` (violation evidence)."""
        return tuple(
            (location, write_id, write_vt)
            for location, candidates in self._candidates.items()
            for write_id, (write_vt, writer) in candidates.items()
            if write_vt[writer] <= vt[writer]
        )

    # ------------------------------------------------------------------
    # GC of causally-dominated prefixes
    # ------------------------------------------------------------------
    def _after_process(self) -> None:
        self.ops_processed += 1
        window = self._window + self._n_pending
        if window > self.max_window:
            self.max_window = window
        self._since_gc += 1
        if self._since_gc >= self.gc_interval:
            self._since_gc = 0
            self._collect()
            if self.metrics is not None:
                self._sync_metrics()

    def _sync_metrics(self) -> None:
        """Fold current state into the gauges (GC cadence, and on result).

        Gauges are point-in-time samples; refreshing them every op would
        put registry work on the hot path for values nobody reads that
        often.  They are exact as of the last GC boundary or
        :meth:`result` call.
        """
        self._c_ops.inc(self.ops_processed - self._ops_synced)
        self._ops_synced = self.ops_processed
        self._g_window.set(self._window + self._n_pending)
        self._g_frontier.set(self.frontier_width())
        if self._obs_seconds > 0.0:
            # _obs_seconds holds the 1-in-TIMING_SAMPLE sampled feeds.
            self._g_rate.set(
                self.ops_processed
                / (self._obs_seconds * self.TIMING_SAMPLE)
            )

    def _collect(self) -> None:
        """Retire notices below the min-frontier and the writes they kill."""
        # An intersection of downward-closed cuts is one, so the
        # own-component tests hold against it too.
        minf = tuple(map(min, zip(*self.frontier)))
        retired = 0
        for location, groups in self._notices.items():
            # Within each group the retirable notices are a prefix.
            boundaries = {
                proc: boundary
                for proc, group in groups.items()
                if (boundary := bisect_right(group.seqs, minf[proc]))
            }
            if not boundaries:
                continue
            # A candidate killed by a retirable notice is itself below
            # the min-frontier (w <= n <= minf), so only frontier-
            # dominated candidates need the exclusion test at all.
            candidates = self._candidates[location]
            dead = [
                write_id
                for write_id, (write_vt, writer) in candidates.items()
                if write_vt[writer] <= minf[writer]
                and _excluded(groups, write_id, writer, write_vt[writer], minf)
            ]
            for write_id in dead:
                del candidates[write_id]
                if write_id[0] == "init":
                    self._init_killed.add(location)
                elif not _is_stamped(write_id):
                    self._killed_odd.add(write_id)
            retired += len(dead)
            for proc, boundary in boundaries.items():
                groups[proc].drop_prefix(boundary)
                retired += boundary
            for proc in [p for p, g in groups.items() if not g.seqs]:
                del groups[proc]
        if retired:
            self.gc_retired += retired
            self._window -= retired
            if self.metrics is not None:
                self._c_gc.inc(retired)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def window_size(self) -> int:
        """Ops currently held: candidates + notices + parked."""
        return self._window + self._n_pending

    def frontier_width(self) -> int:
        """Total componentwise spread between process frontiers."""
        width = 0
        for c in range(self.n_procs):
            column = [vt[c] for vt in self.frontier]
            width += max(column) - min(column)
        return width

    def program_window(self) -> List[List[Tuple]]:
        """The replay window: recent ops per process, program order."""
        return [list(window) for window in self._program_window]

    def result(self) -> MonitorResult:
        """The verdict so far (final once the stream has ended)."""
        if self.metrics is not None:
            self._sync_metrics()
        unresolved = [op for queue in self._pending for op in queue]
        return MonitorResult(
            ok=self.n_violations == 0 and not unresolved,
            reads_checked=self.reads_checked,
            ops_processed=self.ops_processed,
            n_violations=self.n_violations,
            violations=list(self.violations),
            unresolved=unresolved,
            max_window=self.max_window,
            gc_retired=self.gc_retired,
            frontier=tuple(self.frontier),
        )
