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
joins its source's timestamp.  Over an acyclic causality relation these
timestamps characterise it exactly: ``o *-> o'`` iff ``vt(o) <=
vt(o')`` componentwise.

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
is live iff it is concurrent with ``r`` (``vt(w) !<= vt_excl``) or no
*notice* — a processed same-location operation carrying a different
write's value — sits causally between them.  The windowed live-set
computation is memoised in a :class:`~repro.checker.live_values.LiveSetCache`
keyed on the window fingerprint, so repeated windows (the schedule
explorer's dominated interleavings) are classified in O(1).

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

from collections import deque
from dataclasses import dataclass, field
from operator import le
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

from repro.checker.live_values import LiveSetCache
from repro.errors import ReproError

__all__ = [
    "MonitorOp",
    "MonitorVerdict",
    "MonitorResult",
    "MonitorViolationError",
    "CausalStreamMonitor",
]


def _bump(vt: Tuple[int, ...], proc: int) -> Tuple[int, ...]:
    return vt[:proc] + (vt[proc] + 1,) + vt[proc + 1:]


def _merge(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(x if x >= y else y for x, y in zip(a, b))


def _leq(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    return all(map(le, a, b))


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
    the reads-from assignment for a read.  A NamedTuple, not a frozen
    dataclass: one is built per streamed op and frozen-dataclass
    ``__init__`` (one ``object.__setattr__`` per field) is measurably
    slower.
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

    Along one process's program order, monitor timestamps are
    componentwise nondecreasing (each op's vt dominates its
    predecessor's), so within a group both "vt <= bound" and
    "bound <= vt" are prefix/suffix properties and binary-searchable.
    That turns the per-read "is any notice causally between my source
    and me?" question from a linear scan over the window into
    O(log |group|) — the difference that keeps the monitor at line rate
    when low-communication phases legitimately grow the window
    (DESIGN.md §4.8: an idle process pins the min-frontier).

    ``last_other[k]`` is the largest index ``j <= k`` whose source
    differs from ``srcs[k]`` (-1 if none): after locating the in-range
    suffix, "does the range hold a notice with a *different* source?"
    is O(1) even when a process read the same write a thousand times.
    """

    __slots__ = ("vts", "srcs", "last_other")

    def __init__(self):
        self.vts: List[Tuple[int, ...]] = []
        self.srcs: List[Tuple] = []
        self.last_other: List[int] = []

    def __len__(self) -> int:
        return len(self.vts)

    def append(self, vt: Tuple[int, ...], src: Tuple) -> None:
        index = len(self.srcs)
        if index == 0:
            self.last_other.append(-1)
        elif self.srcs[index - 1] != src:
            self.last_other.append(index - 1)
        else:
            self.last_other.append(self.last_other[index - 1])
        self.vts.append(vt)
        self.srcs.append(src)

    def count_leq(self, bound: Tuple[int, ...]) -> int:
        """How many leading notices have vt <= bound (prefix property)."""
        vts = self.vts
        lo, hi = 0, len(vts)
        while lo < hi:
            mid = (lo + hi) // 2
            if _leq(vts[mid], bound):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def first_geq(self, bound: Tuple[int, ...]) -> int:
        """First index whose vt >= bound (suffix property)."""
        vts = self.vts
        lo, hi = 0, len(vts)
        while lo < hi:
            mid = (lo + hi) // 2
            if _leq(bound, vts[mid]):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def excludes(
        self,
        source: Tuple,
        source_vt: Tuple[int, ...],
        vt_excl: Tuple[int, ...],
        hi: Optional[int] = None,
    ) -> bool:
        """Any notice with source_vt <= vt <= vt_excl and src != source?

        ``hi`` caps the searched prefix (the GC passes its retirement
        boundary); by default the in-range prefix is located first.
        """
        if hi is None:
            hi = self.count_leq(vt_excl)
        if hi == 0:
            return False
        lo = self.first_geq(source_vt)
        if lo >= hi:
            return False
        # The range [lo, hi) is non-empty; all its vts are causally
        # between source and reader.  Its last entry either has another
        # source, or last_other jumps to the nearest one that does.
        j = hi - 1
        if self.srcs[j] != source:
            return True
        return self.last_other[j] >= lo

    def drop_prefix(self, count: int) -> None:
        """Retire the first ``count`` notices (GC)."""
        self.vts = self.vts[count:]
        srcs = self.srcs = self.srcs[count:]
        last_other = self.last_other = []
        for index, src in enumerate(srcs):
            if index == 0:
                last_other.append(-1)
            elif srcs[index - 1] != src:
                last_other.append(index - 1)
            else:
                last_other.append(last_other[index - 1])

    def items(self):
        """(vt, src) pairs in processing order (cold paths only)."""
        return zip(self.vts, self.srcs)

    def fingerprint(self) -> Tuple:
        """Content key for the live-set memo table."""
        return (tuple(self.vts), tuple(self.srcs))


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
    cache_hits: int
    cache_misses: int

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
    live_cache:
        Share a :class:`LiveSetCache` across monitors (the differential
        harness does); one is created when omitted.
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
        live_cache: Optional[LiveSetCache] = None,
        cache_limit: int = 4096,
        on_verdict: Optional[Callable[[MonitorVerdict], None]] = None,
    ):
        if n_procs <= 0:
            raise ReproError(f"need at least one process, got {n_procs}")
        self.n_procs = n_procs
        self.metrics = metrics
        self.gc_interval = gc_interval
        self.raise_on_violation = raise_on_violation
        self.window_ops = window_ops
        self.live_cache = live_cache if live_cache is not None else LiveSetCache()
        self.cache_limit = cache_limit
        self.on_verdict = on_verdict

        zero = (0,) * n_procs
        #: Last processed op's timestamp per process (the causal frontier).
        self.frontier: List[Tuple[int, ...]] = [zero] * n_procs
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
        #: location -> {write_id: vt}, insertion-ordered (the candidates).
        self._candidates: Dict[str, Dict[Tuple, Tuple[int, ...]]] = {}
        #: location -> {proc: _NoticeGroup} — processed ops serving
        #: notice, grouped by issuing process so the between-ness test
        #: binary-searches each totally-ordered group instead of
        #: scanning the whole window.
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
            proc=event.node,
            kind=args["kind"],
            location=args["location"],
            value=args["value"],
            source=_tuple_id(args["source"]),
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
        op = MonitorOp(
            proc=proc, index=index, kind=kind,
            location=location, value=value, source=source,
        )
        if kind == "w":
            self._program_window[proc].append(("w", location, value))
            # Fast path: nothing parked anywhere, so processing this op
            # cannot unblock anything — skip the queue round trip.
            if self._n_pending == 0:
                self._process_write(op)
                return
        else:
            self._program_window[proc].append(("r", location))
            if self._n_pending == 0:
                status = self._source_status(op)
                if status != "wait":
                    self._process_read(op, dead=status == "dead")
                    return
        self._pending[proc].append(op)
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
                    op = queue[0]
                    if op.kind == "w":
                        queue.popleft()
                        self._n_pending -= 1
                        self._process_write(op)
                        progress = True
                        continue
                    status = self._source_status(op)
                    if status == "wait":
                        break  # parks the whole process (program order)
                    queue.popleft()
                    self._n_pending -= 1
                    self._process_read(op, dead=status == "dead")
                    progress = True

    def _source_status(self, op: MonitorOp) -> str:
        source = op.source
        if source[0] == "init":
            return "dead" if op.location in self._init_killed else "ready"
        candidates = self._candidates.get(op.location)
        if candidates is not None and source in candidates:
            return "ready"
        if _is_stamped(source):
            writer, stamp = source
            if stamp <= self._max_stamp.get(writer, -1):
                # The writer has committed past this stamp, so the write
                # was processed and GC retired it: provably dead (§4.8).
                return "dead"
        elif source in self._killed_odd:
            return "dead"
        return "wait"

    def _process_write(self, op: MonitorOp) -> None:
        vt = _bump(self.frontier[op.proc], op.proc)
        self.frontier[op.proc] = vt
        self._touch_location(op.location)
        self._candidates[op.location][op.source] = vt
        self._notice_group(op.location, op.proc).append(vt, op.source)
        self._window += 2  # +candidate +notice
        if _is_stamped(op.source):
            writer, stamp = op.source
            if stamp > self._max_stamp.get(writer, -1):
                self._max_stamp[writer] = stamp
        self._after_process()

    def _process_read(self, op: MonitorOp, dead: bool) -> None:
        vt_excl = _bump(self.frontier[op.proc], op.proc)
        self._touch_location(op.location)
        if dead:
            # The source's timestamp is below every process's frontier
            # (that is why it was retired), so merging it in is a no-op:
            # vt_excl IS the read's exact timestamp.
            ok, vt = False, vt_excl
            reason = "dead-source"
        else:
            source_vt = self._candidates[op.location][op.source]
            ok = self._source_live(op.location, op.source, source_vt, vt_excl)
            vt = _merge(vt_excl, source_vt)
            reason = "" if ok else "stale-source"
        # Verdict objects are built only when someone will see them —
        # the per-read hot path stays allocation-light.  Evidence is
        # snapshotted before the read's own notice lands (the notice
        # would retire other candidates from the reported live set).
        verdict = None
        if not ok or self.on_verdict is not None:
            verdict = MonitorVerdict(
                op=op, ok=ok, vt=vt,
                live=self.windowed_live_set(op.location, vt_excl),
                reason=reason,
                causal_past=() if ok else self._causal_past(vt),
            )
        self.frontier[op.proc] = vt
        self._notice_group(op.location, op.proc).append(vt, op.source)
        self._window += 1  # +notice
        self.reads_checked += 1
        if verdict is not None:
            if self.on_verdict is not None:
                self.on_verdict(verdict)
            if not ok:
                self.n_violations += 1
                if len(self.violations) < self.VIOLATION_LIMIT:
                    self.violations.append(verdict)
                if self.metrics is not None:
                    self._c_violations.inc()
                if self.raise_on_violation:
                    self._after_process()
                    raise MonitorViolationError(verdict)
        self._after_process()

    def _source_live(
        self,
        location: str,
        source: Tuple,
        source_vt: Tuple[int, ...],
        vt_excl: Tuple[int, ...],
    ) -> bool:
        """Is the read's own source live?  The O(notices) fast path.

        Exactly :meth:`windowed_live_set` restricted to one candidate
        (the only one the Definition-2 verdict needs); the full set is
        materialised lazily for verdicts and evidence.  Per notice group
        this is two binary searches and an O(1) source check — the
        monitor's hottest code, deliberately sublinear in the window.
        """
        for own, excl in zip(source_vt, vt_excl):
            if own > excl:
                return True  # concurrent -> live (condition 1)
        groups = self._notices[location]
        for group in groups.values():
            if group.excludes(source, source_vt, vt_excl):
                return False
        return True

    def _touch_location(self, location: str) -> None:
        """Materialise the location: init candidate plus its notice list.

        The notice list persists (possibly empty) once created so the
        processing paths can index it directly instead of paying a
        ``setdefault`` with a fresh-list allocation per op.
        """
        if location not in self._candidates:
            self._candidates[location] = {}
            self._notices[location] = {}
            if location not in self._init_killed:
                self._candidates[location][("init", location)] = (
                    (0,) * self.n_procs
                )
                self._window += 1

    def _notice_group(self, location: str, proc: int) -> _NoticeGroup:
        groups = self._notices[location]
        group = groups.get(proc)
        if group is None:
            group = groups[proc] = _NoticeGroup()
        return group

    # ------------------------------------------------------------------
    # Windowed live sets (Definition 1 over the window, memoised)
    # ------------------------------------------------------------------
    def _live_positions(
        self, location: str, vt_excl: Tuple[int, ...]
    ) -> Tuple[int, ...]:
        candidates = self._candidates.get(location) or {}
        groups = self._notices.get(location) or {}
        key = (
            location,
            vt_excl,
            tuple(candidates.items()),
            tuple(
                (proc, group.fingerprint())
                for proc, group in sorted(groups.items())
            ),
        )
        table = self.live_cache._table
        positions = table.get(key)
        if positions is not None:
            self.live_cache.hits += 1
            return positions
        self.live_cache.misses += 1
        live: List[int] = []
        for position, (write_id, write_vt) in enumerate(candidates.items()):
            if not _leq(write_vt, vt_excl):
                live.append(position)  # concurrent -> live (condition 1)
                continue
            # Condition 2: any notice strictly between write and read
            # carrying a different write's value kills liveness.  The
            # leq tests are effectively strict: timestamps are unique,
            # the write's own notice is excluded by the source check,
            # and no processed op's timestamp can equal vt_excl (it
            # bumps a component no processed op has reached).
            excluded = any(
                group.excludes(write_id, write_vt, vt_excl)
                for group in groups.values()
            )
            if not excluded:
                live.append(position)
        positions = tuple(live)
        if len(table) >= self.cache_limit:
            self.live_cache.clear()
        table[key] = positions
        return positions

    def windowed_live_set(
        self, location: str, vt_excl: Tuple[int, ...]
    ) -> Tuple[Tuple, ...]:
        """The window's live write identities for an exclusion timestamp."""
        candidates = self._candidates.get(location)
        if not candidates:
            return ()
        ids = list(candidates.keys())
        return tuple(
            ids[p] for p in self._live_positions(location, vt_excl)
        )

    def _causal_past(self, vt: Tuple[int, ...]) -> Tuple[Tuple, ...]:
        """Window writes causally at-or-below ``vt`` (violation evidence)."""
        past = []
        for location, candidates in self._candidates.items():
            for write_id, write_vt in candidates.items():
                if _leq(write_vt, vt):
                    past.append((location, write_id, write_vt))
        return tuple(past)

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
        min_frontier = tuple(
            min(vt[c] for vt in self.frontier)
            for c in range(self.n_procs)
        )
        retired = 0
        for location, groups in self._notices.items():
            # Within each group the retirable notices (vt <= minf) are a
            # prefix; its length is one binary search.
            boundaries = {
                proc: boundary
                for proc, group in groups.items()
                if (boundary := group.count_leq(min_frontier))
            }
            if not boundaries:
                continue
            # A candidate killed by a retirable notice is itself below
            # the min-frontier (w <= n <= minf), so only frontier-
            # dominated candidates need the exclusion query at all.
            candidates = self._candidates.get(location)
            if candidates:
                dominated = [
                    (write_id, write_vt)
                    for write_id, write_vt in candidates.items()
                    if _leq(write_vt, min_frontier)
                ]
                for write_id, write_vt in dominated:
                    if any(
                        groups[proc].excludes(
                            write_id, write_vt, min_frontier, hi=boundary
                        )
                        for proc, boundary in boundaries.items()
                    ):
                        del candidates[write_id]
                        if write_id[0] == "init":
                            self._init_killed.add(location)
                        elif not _is_stamped(write_id):
                            self._killed_odd.add(write_id)
                        retired += 1
            for proc, boundary in boundaries.items():
                groups[proc].drop_prefix(boundary)
                retired += boundary
            for proc in [p for p, g in groups.items() if not g.vts]:
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
            cache_hits=self.live_cache.hits,
            cache_misses=self.live_cache.misses,
        )
