"""Per-layer timing from outside: wrappers on each layer's public callables.

``Tracer.install()`` replaces the public methods listed in ``TARGETS``
with timing wrappers *on their classes*, so it must run before a
cluster is built (engines and the sim runtime bind hot methods at
construction).  Wrappers keep one span stack: a span's self time is its
duration minus what its child spans cover, so self times of all spans
sum exactly to the time covered by root spans, and whatever part of the
traced wall no root span covers is reported as unattributed instead of
guessed.  Work a layer inlines (tuple compares instead of
``VectorClock`` calls, the kernel's delivery dispatch) lands in the
caller's self time.

Raw spans (name, start, end, parent, trace) are kept in memory for the
first ``keep_ops`` application ops and written out by the caller at
exit.  Spans of one op share a trace id: ``origin:request_id`` where a
message argument carries a request id, else the enclosing span's.
"""

from __future__ import annotations

import importlib
from collections import defaultdict, deque
from time import perf_counter
from typing import Any, Callable, Deque, Dict, List, Tuple

#: layer -> [(module, class or None for a module function, names)].
TARGETS: Dict[str, List[Tuple[str, Any, Tuple[str, ...]]]] = {
    "engine": [(
        "repro.protocols.causal_owner", "CausalOwnerNode",
        ("read", "write", "discard", "handle_message"),
    )],
    "store": [(
        "repro.memory.local_store", "LocalStore",
        ("get", "put", "restamp", "invalidate", "invalidate_older_than",
         "discard"),
    )],
    "clocks": [(
        "repro.clocks.vector_clock", "VectorClock",
        ("increment", "update", "compare", "strictly_less"),
    )],
    "wire": [("repro.protocols.wire", "WireCodec", ("encode", "decode"))],
    "network": [("repro.sim.network", "Network", ("send", "send_fanout"))],
    "kernel": [(
        "repro.sim.kernel", "Simulator",
        ("schedule", "schedule_at", "call_soon", "schedule_batch",
         "schedule_batch_at", "schedule_fanout_at", "run"),
    )],
    "live": [(
        "repro.runtime.live", "AsyncioRuntime", ("send", "send_fanout"),
    )],
    "history": [(
        "repro.checker.history", "HistoryRecorder",
        ("record_read", "record_write"),
    )],
    "obs": [("repro.obs.collector", "TraceCollector", ("emit",))],
    "monitor": [(
        "repro.monitor.monitor", "CausalStreamMonitor", ("observe", "feed_op"),
    )],
    "checker": [("repro.checker", None, ("check_causal",))],
}

#: Spans whose individual durations are kept (for percentiles).
SAMPLED = ("monitor.observe",)


def _trace_of(receiver, args) -> str:
    """``origin:request_id`` if the last argument is a message with a
    request id: ``(src, dst, message)`` for send/encode, ``(src,
    message)`` for a handler on the receiving node.  Request ids are
    node-local, so the requester (a reply's destination) qualifies them.
    """
    if len(args) not in (2, 3):
        return ""
    message = args[-1]
    request_id = getattr(message, "request_id", None)
    if request_id is None:
        return ""
    src = args[0]
    dst = args[1] if len(args) == 3 else getattr(receiver, "node_id", None)
    origin = dst if "REPLY" in getattr(message, "kind", "") else src
    return f"{origin}:{request_id}"


class Tracer:
    def __init__(self, keep_ops: int = 200):
        #: span name -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        self.samples: Dict[str, List[float]] = {name: [] for name in SAMPLED}
        #: Seconds covered by root spans.
        self.root_s = 0.0
        self.keep_ops = keep_ops
        self.ops_seen = 0
        self.spans: List[dict] = []
        self.parked_feeds = 0
        self.transit_s: List[float] = []
        self._in_flight: Dict[Tuple[int, int], Deque[float]] = defaultdict(deque)
        self._children: List[float] = []  # child time of each open span
        self._open: List[Tuple[int, str]] = []  # (span id, trace) of each
        self._next_id = 0
        self._epoch = perf_counter()
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # The wrapper
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, bound: bool = True) -> Callable:
        """``fn`` timed as span ``name``.  ``bound``: first arg is ``self``."""
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        samples = self.samples.get(name)
        children = self._children
        open_spans = self._open
        counts_op = name in ("engine.read", "engine.write")
        tracer = self

        def traced(*args, **kwargs):
            if counts_op:
                tracer.ops_seen += 1
            recording = tracer.ops_seen <= tracer.keep_ops
            if recording:
                tracer._next_id += 1
                trace = _trace_of(
                    args[0] if bound else None, args[1:] if bound else args
                )
                if not trace:
                    trace = (
                        open_spans[-1][1] if open_spans
                        else f"root-{tracer._next_id}"
                    )
                open_spans.append((tracer._next_id, trace))
            else:
                open_spans.append((0, ""))
            children.append(0.0)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                duration = ended - started
                total[0] += 1
                total[1] += duration
                total[2] += duration - children.pop()
                span_id, trace = open_spans.pop()
                if children:
                    children[-1] += duration
                else:
                    tracer.root_s += duration
                if samples is not None:
                    samples.append(duration)
                if span_id:
                    tracer.spans.append({
                        "id": span_id,
                        "parent": open_spans[-1][0] if open_spans else 0,
                        "trace": trace,
                        "name": name,
                        "start_us": (started - tracer._epoch) * 1e6,
                        "end_us": (ended - tracer._epoch) * 1e6,
                    })

        return traced

    # ------------------------------------------------------------------
    # Layer-specific hooks around the generic wrapper
    # ------------------------------------------------------------------
    def _traced_generator(self, gen):
        """Drive ``gen`` with every resume timed as ``apps.gen.step``.

        An exception thrown into the proxy closes ``gen`` instead of
        being forwarded; the benchmark workloads never fail a future.
        """
        step = self.wrap("apps.gen.step", gen.send, bound=False)
        try:
            value = None
            while True:
                try:
                    yielded = step(value)
                except StopIteration as stop:
                    return stop.value
                value = yield yielded
        finally:
            gen.close()

    def _wrap_spawn(self, spawn: Callable) -> Callable:
        def traced_spawn(scheduler, gen, name: str = ""):
            return spawn(scheduler, self._traced_generator(gen), name=name)

        return traced_spawn

    def _wrap_live_send(self, send: Callable) -> Callable:
        in_flight = self._in_flight

        def timed_send(runtime, src, dst, message):
            in_flight[(src, dst)].append(perf_counter())
            return send(runtime, src, dst, message)

        return timed_send

    def _wrap_handler(self, handle: Callable) -> Callable:
        """Transit = send() call to handler entry, FIFO-matched per channel."""
        in_flight = self._in_flight
        transit = self.transit_s

        def timed_handle(node, src, message):
            queue = in_flight.get((src, node.node_id))
            if queue:
                transit.append(perf_counter() - queue.popleft())
            return handle(node, src, message)

        return timed_handle

    def _wrap_feed(self, feed_op: Callable) -> Callable:
        def counted_feed(monitor, *args, **kwargs):
            before = monitor.ops_processed
            feed_op(monitor, *args, **kwargs)
            if monitor.ops_processed == before:
                self.parked_feeds += 1

        return counted_feed

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for layer, targets in TARGETS.items():
            for module_name, class_name, names in targets:
                module = importlib.import_module(module_name)
                owner = module if class_name is None else getattr(module, class_name)
                for attr in names:
                    wrapped = self.wrap(
                        f"{layer}.{attr}", owner.__dict__[attr],
                        bound=class_name is not None,
                    )
                    if (layer, attr) == ("live", "send"):
                        wrapped = self._wrap_live_send(wrapped)
                    elif (layer, attr) == ("engine", "handle_message"):
                        wrapped = self._wrap_handler(wrapped)
                    elif (layer, attr) == ("monitor", "feed_op"):
                        wrapped = self._wrap_feed(wrapped)
                    self._patch(owner, attr, wrapped)
        from repro.runtime.live import AsyncioRuntime
        from repro.sim.tasks import TaskScheduler

        for scheduler in (TaskScheduler, AsyncioRuntime):
            self._patch(
                scheduler, "spawn", self._wrap_spawn(scheduler.__dict__["spawn"])
            )

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def calls(self, *names: str) -> float:
        return sum(self.totals[n][0] for n in names if n in self.totals)

    def inclusive_s(self, *names: str) -> float:
        return sum(self.totals[n][1] for n in names if n in self.totals)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t[2] for n, t in self.totals.items() if n.startswith(prefix))

    def layer_calls(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t[0] for n, t in self.totals.items() if n.startswith(prefix))

    def self_total_s(self) -> float:
        return sum(t[2] for t in self.totals.values())
