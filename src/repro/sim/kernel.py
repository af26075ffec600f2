"""The discrete-event simulation kernel.

The kernel is intentionally tiny: a clock, a priority queue of timestamped
callbacks, and a seeded random number generator.  Determinism is the load-
bearing property — two runs with the same seed execute the same events in
the same order, which makes every experiment in the reproduction exactly
repeatable (the paper's arguments are about orderings and counts, so the
measurement instrument must not itself be a source of noise).

Ties in time are broken by a monotonically increasing sequence number, so
insertion order decides between simultaneous events.

Performance notes:

* Cancelled events stay in the heap (O(1) cancellation) but the kernel
  keeps a live count, so :attr:`Simulator.pending_events` is O(1) instead
  of a full queue scan — deadlock detection polls it after every task
  step.
* When cancelled corpses outnumber live events the heap is compacted in
  one O(n) pass; compaction only drops cancelled entries, so the
  ``(time, seq)`` pop order — and hence determinism — is unchanged.
* The skip-cancelled logic lives in one place (:meth:`Simulator._peek`
  drains cancelled heads, ``step``/``run`` pop the live head directly),
  so no event is popped twice and cancelled skips never count as
  processed events.
* The heap holds plain ``(time, seq, event)`` tuples: ``seq`` is unique,
  so ``heapq`` resolves every comparison on the first two elements at C
  speed and never calls a Python-level ``__lt__``.

Controlled scheduling (the model-checking hook):

* Every event may carry a ``tag`` — a small tuple describing *what* the
  event is (a message delivery, a task resumption, a fault action) —
  set by the scheduling site and never interpreted by the kernel.
* :meth:`Simulator.enabled_events` exposes the live pending events and
  :meth:`Simulator.execute_event` runs a chosen one regardless of its
  position in the time order; together they let an external explorer
  (:mod:`repro.mc`) enumerate message-delivery interleavings instead of
  following wall-clock order.  Executing an event "early" only ever
  advances the clock (``now`` never moves backwards), which models a
  different — but still legal — latency assignment for the remaining
  messages.
"""

from __future__ import annotations

import heapq
import random
from heapq import heappop, heappush
from typing import Callable, Optional

from repro.errors import SimulationError

__all__ = ["Simulator", "ScheduledEvent", "NO_ARG"]

#: Compact the heap when it holds more than this many cancelled events
#: and they outnumber the live ones (small queues are not worth the pass).
_COMPACT_MIN_CANCELLED = 64


class _NoArg:
    """Sentinel distinguishing "no argument" from an argument of None."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NO_ARG>"


#: Events whose ``arg`` is this sentinel run ``callback()``; any other
#: value (including None) runs ``callback(arg)``.  Passing a preallocated
#: record as ``arg`` lets hot schedulers (message delivery, task resume)
#: reuse one bound method instead of allocating a closure per event.
NO_ARG = _NoArg()


class ScheduledEvent:
    """A callback scheduled at a point in simulated time.

    The heap orders events by ``(time, seq)``; insertion order decides
    between simultaneous events.  ``cancelled`` supports O(1)
    cancellation: the event stays in the heap but is skipped when popped
    (or dropped by a compaction).

    ``arg`` carries an optional single argument for the callback (see
    :data:`NO_ARG`): the run loops invoke ``callback(arg)`` when it is
    set, so a shared bound method plus a per-event record replaces a
    per-event closure on the hot scheduling paths.
    """

    __slots__ = (
        "time", "seq", "callback", "cancelled", "tag", "arg",
        "_sim", "_in_heap",
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        cancelled: bool = False,
        _sim: Optional["Simulator"] = None,
        _in_heap: bool = False,
        tag: Optional[tuple] = None,
        arg: object = NO_ARG,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = cancelled
        self.tag = tag
        self.arg = arg
        self._sim = _sim
        self._in_heap = _in_heap

    def execute(self) -> None:
        """Invoke the callback (with its carried ``arg`` when present)."""
        arg = self.arg
        if arg is NO_ARG:
            self.callback()
        else:
            self.callback(arg)

    def __repr__(self) -> str:
        return (
            f"ScheduledEvent(time={self.time!r}, seq={self.seq!r}, "
            f"callback={self.callback!r}, cancelled={self.cancelled!r}, "
            f"tag={self.tag!r})"
        )

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._in_heap and self._sim is not None:
            self._sim._note_cancelled()


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  All randomness
        in a simulation (latency jitter, workload choices) must come from
        :attr:`rng` or a generator derived from :meth:`derived_rng` so runs
        are reproducible.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> handle = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._seed = seed
        self._queue: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = 0
        self._events_processed = 0
        self._batched_callbacks = 0
        self._cancelled_in_queue = 0
        self._cancelled_skips = 0
        self._compactions = 0
        self._running = False
        #: True only inside ``run()``'s bare fast path (see may_continue).
        self._free_running = False
        #: Attached TraceCollector, or None.  The bare ``run()`` fast
        #: path branches on this ONCE before its loop, so a detached run
        #: executes byte-identical bytecode to the pre-obs kernel.
        self.obs = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _push_event(
        self,
        time: float,
        callback: Callable[..., None],
        tag: Optional[tuple],
        arg: object = NO_ARG,
    ) -> ScheduledEvent:
        """The single event-construction path.

        Every scheduling front-end (``schedule``, ``schedule_at``,
        ``schedule_batch``, ``schedule_fanout_at``) funnels through here,
        so the ``(time, seq)`` tie-breaking order cannot drift between
        batch and non-batch deliveries.
        """
        self._seq = seq = self._seq + 1
        event = ScheduledEvent(time, seq, callback, False, self, True, tag, arg)
        heappush(self._queue, (time, seq, event))
        return event

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        tag: Optional[tuple] = None,
        arg: object = NO_ARG,
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` time units from now.

        ``arg``, when given, is passed to the callback at execution time
        (``callback(arg)``) — see :data:`NO_ARG`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._push_event(self.now + delay, callback, tag, arg)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        tag: Optional[tuple] = None,
        arg: object = NO_ARG,
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        return self._push_event(time, callback, tag, arg)

    def call_soon(
        self,
        callback: Callable[..., None],
        tag: Optional[tuple] = None,
        arg: object = NO_ARG,
    ) -> ScheduledEvent:
        """Schedule ``callback`` at the current time (after pending events)."""
        return self._push_event(self.now, callback, tag, arg)

    def schedule_batch(
        self,
        delay: float,
        callbacks,
        tag: Optional[tuple] = None,
    ) -> ScheduledEvent:
        """Schedule several callbacks as ONE heap entry at one instant.

        The callbacks run back-to-back, in the given order, when the
        entry's time arrives — amortising the per-event heap push/pop
        and trace emission across the whole group.  Because
        consecutively scheduled events carry consecutive sequence numbers,
        a batch executes in exactly the order the same callbacks would
        have executed if scheduled individually at the same instant (no
        foreign event's ``(time, seq)`` can fall between them), so the
        two schedulings are event-order equivalent.

        Cancelling the returned event cancels the *whole* batch.
        ``batched_callbacks`` counts callbacks run through batches;
        ``events_processed`` counts a batch as the single event it is.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._schedule_batch(self.now + delay, callbacks, tag)

    def schedule_batch_at(
        self,
        time: float,
        callbacks,
        tag: Optional[tuple] = None,
    ) -> ScheduledEvent:
        """:meth:`schedule_batch` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        return self._schedule_batch(time, callbacks, tag)

    def _schedule_batch(self, time, callbacks, tag) -> ScheduledEvent:
        callbacks = tuple(callbacks)
        if len(callbacks) == 1:
            # A batch of one is a plain event — no closure overhead.
            return self._push_event(time, callbacks[0], tag)

        def run_batch() -> None:
            self._batched_callbacks += len(callbacks)
            for callback in callbacks:
                callback()

        return self._push_event(time, run_batch, tag)

    def schedule_fanout_at(
        self,
        time: float,
        callback: Callable[[object], None],
        args,
        tag: Optional[tuple] = None,
    ) -> ScheduledEvent:
        """Schedule ``callback(arg)`` for each of ``args`` as ONE heap entry.

        The arg-carrying twin of :meth:`schedule_batch_at`: one shared
        callback applied to a sequence of preallocated records (the
        network's fan-out deliveries), with the same event-order
        equivalence argument and the same batch accounting.  A group of
        one degenerates to a plain arg-carrying event.

        Cancelling the returned event cancels the whole group.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        args = tuple(args)
        if len(args) == 1:
            return self._push_event(time, callback, tag, args[0])

        def run_group() -> None:
            self._batched_callbacks += len(args)
            for arg in args:
                callback(arg)

        return self._push_event(time, run_group, tag)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def seed(self) -> int:
        """The seed this simulator was constructed with."""
        return self._seed

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return len(self._queue) - self._cancelled_in_queue

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far.

        Cancelled events are skipped, never executed, and do not count
        here — see :attr:`cancelled_skips`.
        """
        return self._events_processed

    @property
    def batched_callbacks(self) -> int:
        """Callbacks executed through :meth:`schedule_batch` groups of >1."""
        return self._batched_callbacks

    @property
    def cancelled_skips(self) -> int:
        """Cancelled events discarded from the heap without executing."""
        return self._cancelled_skips

    @property
    def heap_compactions(self) -> int:
        """Times the heap was rebuilt to evict cancelled corpses."""
        return self._compactions

    def may_continue(self) -> bool:
        """True when an event scheduled now would be the next one run:
        in ``run()``'s bare fast path with nothing queued due by ``now``,
        so a task may resume inline on an already resolved future."""
        queue = self._queue
        return self._free_running and (not queue or queue[0][0] > self.now)

    def derived_rng(self, label: str) -> random.Random:
        """A new RNG deterministically derived from the seed and ``label``.

        Use one derived RNG per independent random stream (e.g. one per
        workload process) so adding a stream does not perturb the others.
        """
        return random.Random(f"{self._seed}/{label}")

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single next event.  Returns False if the queue is empty."""
        event = self._peek()
        if event is None:
            return False
        self._execute_head(event)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the queue drains, ``until`` passes, or a budget.

        Parameters
        ----------
        until:
            Stop (without executing) the first event strictly after this
            time; the clock is advanced to ``until``.
        max_events:
            Execute at most this many events — a safety net against
            accidental livelock in tests.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed = 0
        queue = self._queue
        try:
            if until is None and max_events is None:
                obs = self.obs
                if obs is None:
                    # Fast path for the by-far common bare ``run()``: no
                    # budget or horizon checks inside the event loop, and
                    # — the zero-overhead-when-disabled guarantee — no
                    # per-event obs test either.
                    no_arg = NO_ARG
                    self._free_running = True
                    while queue:
                        time, _, event = heappop(queue)
                        event._in_heap = False
                        if event.cancelled:
                            self._cancelled_in_queue -= 1
                            self._cancelled_skips += 1
                            continue
                        if time < self.now:
                            raise SimulationError(
                                "event queue produced a time in the past"
                            )
                        self.now = time
                        self._events_processed += 1
                        arg = event.arg
                        if arg is no_arg:
                            event.callback()
                        else:
                            event.callback(arg)
                    return
                # Instrumented twin of the loop above: identical
                # semantics, plus a scheduling-decision event for every
                # tagged (externally meaningful) event executed.
                while queue:
                    time, _, event = heappop(queue)
                    event._in_heap = False
                    if event.cancelled:
                        self._cancelled_in_queue -= 1
                        self._cancelled_skips += 1
                        continue
                    if time < self.now:
                        raise SimulationError(
                            "event queue produced a time in the past"
                        )
                    self.now = time
                    self._events_processed += 1
                    if event.tag is not None and obs.wants("kernel", "execute"):
                        obs.emit("kernel", "execute", time=time, tag=event.tag)
                    event.execute()
                return
            while queue:
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        f"event budget of {max_events} exhausted at t={self.now}"
                    )
                time, _, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    event._in_heap = False
                    self._cancelled_in_queue -= 1
                    self._cancelled_skips += 1
                    continue
                if until is not None and time > until:
                    self.now = until
                    return
                heappop(queue)
                event._in_heap = False
                if time < self.now:
                    raise SimulationError("event queue produced a time in the past")
                self.now = time
                self._events_processed += 1
                if (
                    self.obs is not None
                    and event.tag is not None
                    and self.obs.wants("kernel", "execute")
                ):
                    self.obs.emit("kernel", "execute", time=time, tag=event.tag)
                event.execute()
                executed += 1
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = self._free_running = False

    # ------------------------------------------------------------------
    # Controlled scheduling (the repro.mc explorer hook)
    # ------------------------------------------------------------------
    def enabled_events(self) -> list[ScheduledEvent]:
        """All live pending events, sorted by ``(time, seq)``.

        This is the *enabled set* an external explorer chooses from.  The
        returned order is deterministic (the same order ``run`` would pop
        them in), which keeps explorer traces replayable.  Cancelled
        corpses are filtered but deliberately left in the heap — the
        normal pop paths account for them.
        """
        live = [entry[2] for entry in self._queue if not entry[2].cancelled]
        live.sort(key=lambda event: (event.time, event.seq))
        return live

    def execute_event(self, event: ScheduledEvent) -> None:
        """Execute one chosen pending event, out of time order if need be.

        The explorer's counterpart to :meth:`step`: the event is removed
        from the queue and run, and the clock advances to its timestamp
        if that lies in the future (choosing a "late" event first models
        a latency assignment under which it arrived earlier; the clock
        never moves backwards).  Counters are maintained exactly as for a
        normally popped event.  O(n) per call — controlled runs are small
        by construction, and the normal ``run`` path is untouched.
        """
        if event.cancelled or not event._in_heap:
            raise SimulationError(f"cannot execute {event!r}: not pending")
        try:
            self._queue.remove((event.time, event.seq, event))
        except ValueError:  # pragma: no cover - _in_heap guards this
            raise SimulationError(f"{event!r} is not in this simulator's queue")
        heapq.heapify(self._queue)
        event._in_heap = False
        if event.time > self.now:
            self.now = event.time
        self._events_processed += 1
        if self.obs is not None and self.obs.wants("kernel", "choose"):
            self.obs.emit(
                "kernel", "choose", time=self.now,
                tag=event.tag, scheduled_at=event.time,
            )
        event.execute()

    # ------------------------------------------------------------------
    # Queue internals (the one place cancelled events are skipped)
    # ------------------------------------------------------------------
    def _peek(self) -> Optional[ScheduledEvent]:
        """Return the next live event without popping it, or None.

        Cancelled heads are discarded on the way (counted as skips, never
        as processed events).
        """
        queue = self._queue
        while queue:
            head = queue[0][2]
            if head.cancelled:
                heappop(queue)
                head._in_heap = False
                self._cancelled_in_queue -= 1
                self._cancelled_skips += 1
                continue
            return head
        return None

    def _execute_head(self, head: ScheduledEvent) -> None:
        """Pop ``head`` (known live, at the top of the heap) and run it."""
        heappop(self._queue)
        head._in_heap = False
        if head.time < self.now:
            raise SimulationError("event queue produced a time in the past")
        self.now = head.time
        self._events_processed += 1
        if (
            self.obs is not None
            and head.tag is not None
            and self.obs.wants("kernel", "execute")
        ):
            self.obs.emit("kernel", "execute", time=head.time, tag=head.tag)
        head.execute()

    def _note_cancelled(self) -> None:
        self._cancelled_in_queue += 1
        if (
            self._cancelled_in_queue > _COMPACT_MIN_CANCELLED
            and self._cancelled_in_queue * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events and re-heapify (order-preserving).

        The list is mutated in place so aliases held by a running
        ``run()`` loop stay valid.
        """
        live = []
        for entry in self._queue:
            event = entry[2]
            if event.cancelled:
                event._in_heap = False
                self._cancelled_skips += 1
            else:
                live.append(entry)
        self._queue[:] = live
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0
        self._compactions += 1
