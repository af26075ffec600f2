"""The :class:`TraceCollector` — the single sink all emit sites feed.

The three-level cost contract (DESIGN.md §4.7):

* **detached** — every instrumented component (simulator, network,
  protocol nodes, stores, the codec, the checker) carries an ``obs``
  attribute that is **None by default**, and every emit site is guarded
  by ``if self.obs is not None and self.obs.wants(category, name):`` —
  one attribute load and an identity test, nothing allocated;
* **attached, unwanted** — :meth:`TraceCollector.wants` runs *before*
  the site evaluates its kwargs.  A kind nobody will read costs one
  plan lookup and a counter increment (``metrics.count_of`` stays exact
  on every collector); no kwargs dict, clock tuple or event is built;
* **wanted** — :meth:`TraceCollector.emit`, the one place events are
  built, stamps the record with the simulated time (from the bound
  simulator unless overridden) and a collector-wide sequence number.

A ``(category, name)`` kind is *wanted* iff something will read the
event: the event list (``keep_events=True``) or a subscriber whose
filter matches.  Demand is derived from what is attached, never
configured, and resolved once per kind into a cached plan that
:meth:`~TraceCollector.subscribe` / :meth:`~TraceCollector.unsubscribe`
invalidate.  :meth:`repro.protocols.base.DSMCluster.attach_obs` binds
one collector to every component of a cluster in one call.

Subscribers (the online-monitor hook) receive every matching event *as
it is emitted*, in emission order, before ``emit`` returns.  They must
not emit back into the collector (that would reenter the event list
mid-append).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.events import TraceEvent
from repro.obs.metrics import MetricsRegistry

__all__ = ["TraceCollector"]


class TraceCollector:
    """Receives typed trace events and aggregates metrics.

    Parameters
    ----------
    metrics:
        Registry to aggregate into; a fresh one is created by default.
    keep_events:
        With False, only metrics accumulate (long benchmark runs that
        want counters without an unbounded event list).
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        keep_events: bool = True,
    ):
        self.events: List[TraceEvent] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.keep_events = keep_events
        self._seq = 0
        self._sim = None
        self._wall: Optional[Callable[[], float]] = None
        #: (callback, category filter, name filter) triples; None matches
        #: everything.
        self._subscribers: List[
            Tuple[Callable[[TraceEvent], None], Optional[str], Optional[str]]
        ] = []
        #: (category, name) -> (counter, matching subscribers); the
        #: latter is None when nothing will read the event.
        self._plans: Dict[Tuple[str, str], tuple] = {}

    def bind(self, sim) -> None:
        """Use ``sim.now`` as the default timestamp for emits."""
        self._sim = sim

    def bind_wall(self, source: Optional[Callable[[], float]]) -> None:
        """Stamp every future event's ``wall`` field from ``source()``.

        The live runtime binds ``time.monotonic`` here so spans carry
        real timestamps alongside the (wall-derived) runtime clock;
        simulator runs may bind it too to correlate virtual time with
        elapsed real time.  Pass None to stop stamping.
        """
        self._wall = source

    # ------------------------------------------------------------------
    # Streaming subscribers (the online-monitor hook)
    # ------------------------------------------------------------------
    def subscribe(
        self,
        callback: Callable[[TraceEvent], None],
        category: Optional[str] = None,
        name: Optional[str] = None,
    ) -> Callable[[TraceEvent], None]:
        """Deliver every future matching event to ``callback``.

        Returns ``callback`` so the registration reads as an expression.
        Subscribers see events in emission order, synchronously, before
        :meth:`emit` returns — this is how the streaming consistency
        monitor (:mod:`repro.monitor`) observes a run *while it runs*.

        ``category``/``name`` filter delivery (None matches everything)
        and define demand: on a ``keep_events=False`` collector only the
        kinds some filter matches are built at all, so a monitor that
        subscribes to ``proto.op.commit`` rides along at one event per
        operation instead of ten.
        """
        self._subscribers.append((callback, category, name))
        self._plans.clear()
        return callback

    def unsubscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Remove one previously registered subscriber.

        Matches by equality, not identity: every ``monitor.observe``
        attribute access builds a fresh bound method, and bound methods
        compare equal iff they share the function and the instance.
        """
        for index, entry in enumerate(self._subscribers):
            if entry[0] == callback:
                del self._subscribers[index]
                self._plans.clear()
                return
        raise ValueError(f"{callback!r} is not a subscriber")

    # ------------------------------------------------------------------
    # The emit path (called only from behind ``obs is not None`` guards)
    # ------------------------------------------------------------------
    def _plan(self, category: str, name: str) -> tuple:
        """Resolve and cache one kind's counter and readers."""
        readers = tuple(
            callback
            for callback, category_filter, name_filter in self._subscribers
            if (category_filter is None or category_filter == category)
            and (name_filter is None or name_filter == name)
        )
        plan = self._plans[category, name] = (
            self.metrics.counter(f"{category}.{name}"),
            readers if readers or self.keep_events else None,
        )
        return plan

    def wants(self, category: str, name: str) -> bool:
        """Will anything read a ``category.name`` event?

        Emit sites ask this *before* evaluating their kwargs.  True: the
        site goes on to :meth:`emit`, which counts and builds the event.
        False: the occurrence is counted here and nothing is built.
        """
        plan = self._plans.get((category, name)) or self._plan(category, name)
        if plan[1] is None:
            plan[0].value += 1
            return False
        return True

    def emit(
        self,
        category: str,
        name: str,
        *,
        node: Optional[int] = None,
        clock: Optional[object] = None,
        time: Optional[float] = None,
        dur: float = 0.0,
        **args: Any,
    ) -> Optional[TraceEvent]:
        """Count one event and, if its kind is wanted, build and return it.

        Returns None for a kind nothing reads (see :meth:`wants`).
        ``clock`` accepts a :class:`~repro.clocks.VectorClock` or a bare
        component tuple; it is normalised to a tuple so events compare
        and serialise without importing the clocks package.
        """
        plan = self._plans.get((category, name)) or self._plan(category, name)
        plan[0].value += 1
        if plan[1] is None:
            return None
        if time is None:
            time = self._sim.now if self._sim is not None else 0.0
        if clock is not None:
            clock = tuple(getattr(clock, "components", clock))
        self._seq += 1
        return self._deliver(
            TraceEvent(
                seq=self._seq,
                time=time,
                category=category,
                name=name,
                node=node,
                clock=clock,
                dur=dur,
                args=args,
                wall=self._wall() if self._wall is not None else None,
            ),
            plan[1],
        )

    def _deliver(self, event: TraceEvent, readers: tuple) -> TraceEvent:
        """Keep a freshly built event and hand it to its readers."""
        if self.keep_events:
            self.events.append(event)
        for callback in readers:
            callback(event)
        return event

    def ingest(self, event: TraceEvent) -> Optional[TraceEvent]:
        """Accept a *preformed* event from another collector's stream.

        The telemetry aggregator (:mod:`repro.obs.plane`) merges
        per-node shard streams and replays each merged event into an
        ordinary collector through this method, so exporters and monitor
        subscribers downstream see exactly what :meth:`emit` would have
        produced (None, after counting, for a kind nothing reads).  The
        event is re-sequenced into *this* collector's emission order
        (the original per-shard ``seq`` lives on in ``args`` if the
        producer chose to keep it); every other field — time, clock,
        wall, payload — passes through untouched.
        """
        category, name = event.category, event.name
        plan = self._plans.get((category, name)) or self._plan(category, name)
        plan[0].value += 1
        if plan[1] is None:
            return None
        self._seq += 1
        return self._deliver(
            TraceEvent(
                seq=self._seq,
                time=event.time,
                category=category,
                name=name,
                node=event.node,
                clock=event.clock,
                dur=event.dur,
                args=event.args,
                wall=event.wall,
            ),
            plan[1],
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def select(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        node: Optional[int] = None,
    ) -> List[TraceEvent]:
        """Events matching every given filter, in emission order."""
        return [
            event
            for event in self.events
            if (category is None or event.category == category)
            and (name is None or event.name == name)
            and (node is None or event.node == node)
        ]

    def causal_events(self) -> List[TraceEvent]:
        """The clock-bearing events — the causal DAG's vertex set."""
        return [event for event in self.events if event.clock is not None]

    def counts(self) -> Dict[Tuple[str, str], int]:
        """(category, name) -> occurrence count."""
        out: Dict[Tuple[str, str], int] = {}
        for event in self.events:
            key = (event.category, event.name)
            out[key] = out.get(key, 0) + 1
        return out

    def to_jsonable(self) -> List[Dict[str, Any]]:
        """Every event as a plain dict, in emission order."""
        return [event.to_jsonable() for event in self.events]

    @classmethod
    def from_jsonable(cls, payload: Iterable[Dict[str, Any]]) -> "TraceCollector":
        """Rebuild a collector (events only) from serialised records."""
        collector = cls()
        collector.events = [TraceEvent.from_jsonable(item) for item in payload]
        if collector.events:
            collector._seq = max(event.seq for event in collector.events)
        return collector

    def clear(self) -> None:
        """Drop events (metrics keep accumulating)."""
        self.events.clear()
