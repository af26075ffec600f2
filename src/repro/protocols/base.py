"""Common machinery shared by all DSM protocol engines.

A :class:`DSMNode` is one processor: it owns a slice of the namespace,
holds a :class:`~repro.memory.local_store.LocalStore`, and exposes the
blocking operations the paper's programs use — ``read`` and ``write``
return futures that application generators yield on.

A :class:`DSMCluster` wires ``n`` nodes of a chosen protocol onto one
simulator and network, spawns application processes, and exposes the
measurement surfaces (message statistics, per-node operation statistics,
and the recorded operation history that the consistency checkers consume).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.checker.history import HistoryRecorder
from repro.errors import ProtocolError, SimulationError
from repro.memory import LocalStore, Namespace
from repro.memory.local_store import INITIAL_WRITER, MemoryEntry
from repro.protocols.wire import WireCodec
from repro.sim import Future, Network, Simulator, TaskScheduler
from repro.sim.latency import LatencyModel

__all__ = ["WriteOutcome", "OpStats", "DSMNode", "DSMCluster"]


@dataclass(frozen=True)
class WriteOutcome:
    """Result of a completed write operation.

    ``applied`` is False only when a rejecting conflict policy (the
    dictionary's owner-favoured policy) declined the write at the owner.
    """

    location: str
    value: Any
    applied: bool = True


@dataclass
class OpStats:
    """Per-node operation counters consumed by experiment reports."""

    reads: int = 0
    writes: int = 0
    local_read_hits: int = 0
    remote_reads: int = 0
    local_writes: int = 0
    remote_writes: int = 0
    rejected_writes: int = 0
    blocked_time: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for table rendering."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "local_read_hits": self.local_read_hits,
            "remote_reads": self.remote_reads,
            "local_writes": self.local_writes,
            "remote_writes": self.remote_writes,
            "rejected_writes": self.rejected_writes,
            "blocked_time": self.blocked_time,
        }


class DSMNode:
    """Base class for one processor's protocol engine.

    Subclasses implement :meth:`read`, :meth:`write` and the message
    handler :meth:`handle_message`; the base class provides request ids,
    watcher notification (the oracle-polling instrument used by the solver
    harness), history recording hooks and statistics.
    """

    def __init__(
        self,
        node_id: int,
        runtime,
        namespace: Namespace,
        n_nodes: int,
        recorder: Optional[HistoryRecorder] = None,
        initial_value: Any = 0,
    ):
        self.runtime = runtime
        self.node_id = node_id
        # Back-compat views: harnesses and tests reach the kernel and
        # network through the node.  Under the live driver both resolve
        # to the runtime itself (it implements both surfaces).
        self.sim = runtime.sim
        self.network = runtime.network
        self.namespace = namespace
        self.n_nodes = n_nodes
        self.recorder = recorder
        self.store = LocalStore(
            node_id, namespace, n_nodes, initial_value=initial_value
        )
        self.stats = OpStats()
        self._request_ids = itertools.count(1)
        self._watchers: Dict[str, List[Tuple[Callable[[Any], bool], Future]]] = {}
        #: Attached TraceCollector, or None (all emits are guarded).
        self.obs = None
        runtime.register(node_id, self.handle_message)

    # ------------------------------------------------------------------
    # The application-facing API (paper Section 3.1 semantics)
    # ------------------------------------------------------------------
    def read(self, location: str) -> Future:
        """Begin ``r_i(x)``; the future resolves with the value read."""
        raise NotImplementedError

    def write(self, location: str, value: Any) -> Future:
        """Begin ``w_i(x)v``; the future resolves with a WriteOutcome."""
        raise NotImplementedError

    def discard(self, location: str) -> bool:
        """The paper's ``discard``: drop one cached copy, if present."""
        if self.store.owns(location):
            return False
        return self.store.discard(location)

    def discard_all(self) -> int:
        """Drop the entire cache (replacement-policy extreme)."""
        return self.store.discard_all()

    def handle_message(self, src: int, message: object) -> None:
        """Dispatch one delivered message; runs atomically."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Watchers (oracle polling — a scheduler hint, not a protocol message)
    # ------------------------------------------------------------------
    def watch(self, location: str, predicate: Callable[[Any], bool]) -> Future:
        """A future resolving when this node's copy satisfies ``predicate``.

        Zero messages are exchanged: this is the idealised scheduler used
        to reproduce the paper's message counting, which assumes each
        handshake read happens exactly once (see DESIGN.md Section 2).
        The predicate is checked immediately and then after every local
        install to ``location``.
        """
        future = Future(label=f"watch:{self.node_id}:{location}")
        entry = self.store.get(location) if self.store.is_valid(location) else None
        if entry is not None and predicate(entry.value):
            future.resolve(entry.value)
            return future
        self._watchers.setdefault(location, []).append((predicate, future))
        return future

    def _notify_watchers(self, location: str, value: Any) -> None:
        waiting = self._watchers.get(location)
        if not waiting:
            return
        still_waiting = []
        for predicate, future in waiting:
            if predicate(value):
                future.resolve(value)
            else:
                still_waiting.append((predicate, future))
        if still_waiting:
            self._watchers[location] = still_waiting
        else:
            del self._watchers[location]

    # ------------------------------------------------------------------
    # History recording (feeds the consistency checkers)
    # ------------------------------------------------------------------
    def _record_read(self, location: str, entry: MemoryEntry) -> None:
        source = _write_identity(location, entry)
        if self.recorder is not None:
            self.recorder.record_read(
                proc=self.node_id,
                location=location,
                value=entry.value,
                read_from=source,
            )
        if self.obs is not None and self.obs.wants("proto", "op.commit"):
            self.obs.emit(
                "proto", "op.commit",
                node=self.node_id,
                clock=getattr(self, "vt", None),
                kind="r",
                location=location,
                value=entry.value,
                source=source,
            )

    def _record_write(self, location: str, value: Any, entry: MemoryEntry) -> None:
        source = _write_identity(location, entry)
        if self.recorder is not None:
            self.recorder.record_write(
                proc=self.node_id,
                location=location,
                value=value,
                write_id=source,
            )
        if self.obs is not None and self.obs.wants("proto", "op.commit"):
            self.obs.emit(
                "proto", "op.commit",
                node=self.node_id,
                clock=getattr(self, "vt", None),
                kind="w",
                location=location,
                value=value,
                source=source,
            )

    # ------------------------------------------------------------------
    # Misc helpers
    # ------------------------------------------------------------------
    def next_request_id(self) -> int:
        """A node-locally unique id for matching replies to requests."""
        return next(self._request_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} node={self.node_id}>"


def _write_identity(location: str, entry: MemoryEntry) -> Tuple:
    """A globally unique identity for the write that produced ``entry``.

    Initial writes are identified per location; real writes by
    ``(writer, stamp[writer])`` — every write increments the writer's
    own vector component exactly once, so that component alone
    identifies the write, and it is invariant across the two copies of
    a certified write (the writer's and the owner's) even when their
    merged stamps differ.
    """
    if entry.writer == INITIAL_WRITER:
        return ("init", location)
    return (entry.writer, entry.stamp[entry.writer])


class DSMCluster:
    """``n`` processors running one DSM protocol over one simulated network.

    Parameters
    ----------
    n_nodes:
        Number of application processors (node ids ``0..n_nodes-1``).
    protocol:
        ``"causal"`` (Figure 4), ``"atomic"`` (copyset-invalidation
        baseline), ``"central"`` (central server), or ``"broadcast"``
        (ISIS-style causal broadcast memory).
    namespace:
        Ownership map; defaults to :meth:`Namespace.hashed`.
    policy:
        Concurrent-write resolution policy (causal protocol only).
    no_cache:
        Causal protocol only: disable caching of remote reads, which per
        Section 3.2 "results in a memory that satisfies atomic
        correctness".
    record_history:
        Record every application-level operation for the checkers.
    delta_stamps:
        Install a :class:`~repro.protocols.wire.WireCodec` on the
        network: every message crosses it as its encoded byte frame,
        vector-clock fields delta-encoded per channel (message contents
        round-trip exactly).
    batch_delivery:
        Schedule each broadcast fan-out's same-instant deliveries as one
        kernel heap entry (:meth:`~repro.sim.kernel.Simulator.schedule_batch_at`).
        Event-order equivalent to individual scheduling; opt-in because
        it coarsens the explorer's interleaving granularity.

    Examples
    --------
    >>> cluster = DSMCluster(2, protocol="causal", seed=7)
    >>> def writer(api):
    ...     yield api.write("x", 41)
    ...     value = yield api.read("x")
    ...     return value
    >>> task = cluster.spawn(0, writer)
    >>> cluster.run()
    >>> task.result()
    41
    """

    def __init__(
        self,
        n_nodes: int,
        protocol: str = "causal",
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        namespace: Optional[Namespace] = None,
        policy: Optional[object] = None,
        initial_value: Any = 0,
        trace_messages: bool = False,
        record_history: bool = True,
        no_cache: bool = False,
        unsafe_write_behind: bool = False,
        delta_stamps: bool = False,
        batch_delivery: bool = False,
    ):
        self.sim = Simulator(seed=seed)
        self.network = Network(
            self.sim,
            latency=latency,
            trace_messages=trace_messages,
            codec=WireCodec() if delta_stamps else None,
            batch_delivery=batch_delivery,
        )
        self.scheduler = TaskScheduler(self.sim)
        from repro.runtime.base import SimRuntime

        #: The driver handle every node holds (see repro.runtime).
        self.runtime = SimRuntime(self.sim, self.network, self.scheduler)
        self._assemble(
            n_nodes, protocol, namespace, policy, initial_value,
            record_history, no_cache, unsafe_write_behind, delta_stamps,
        )

    def _assemble(
        self,
        n_nodes: int,
        protocol: str = "causal",
        namespace: Optional[Namespace] = None,
        policy: Optional[object] = None,
        initial_value: Any = 0,
        record_history: bool = True,
        no_cache: bool = False,
        unsafe_write_behind: bool = False,
        delta_stamps: bool = False,
    ) -> None:
        """Build the cluster onto ``self.runtime`` — any driver's."""
        if n_nodes <= 0:
            raise ProtocolError(f"need at least one node, got {n_nodes}")
        self.n_nodes = n_nodes
        self.protocol = protocol
        self.delta_stamps = delta_stamps
        self.namespace = namespace or Namespace.hashed(n_nodes)
        self.recorder = HistoryRecorder() if record_history else None
        #: The collector bound by attach_obs (None until attached).
        self._obs = None
        self.server: Optional[DSMNode] = None
        self.nodes: List[DSMNode] = self._build_nodes(
            policy, initial_value, no_cache, unsafe_write_behind
        )

    def _build_nodes(
        self,
        policy: Optional[object],
        initial_value: Any,
        no_cache: bool,
        unsafe_write_behind: bool,
    ) -> List[DSMNode]:
        protocol = self.protocol
        # Local imports: the concrete engines subclass DSMNode from this
        # module, so importing them at module load would be circular.
        from repro.protocols.atomic_owner import AtomicOwnerNode
        from repro.protocols.causal_broadcast import CausalBroadcastNode
        from repro.protocols.causal_owner import CausalOwnerNode
        from repro.protocols.central_server import (
            CentralServerClient,
            CentralServerNode,
        )

        common = dict(
            runtime=self.runtime,
            namespace=self.namespace,
            n_nodes=self.n_nodes,
            recorder=self.recorder,
            initial_value=initial_value,
        )
        if protocol == "causal":
            return [
                CausalOwnerNode(
                    i,
                    policy=policy,
                    no_cache=no_cache,
                    unsafe_write_behind=unsafe_write_behind,
                    **common,
                )
                for i in range(self.n_nodes)
            ]
        if no_cache or unsafe_write_behind:
            raise ProtocolError(
                "no_cache/unsafe_write_behind apply to the causal protocol only"
            )
        if policy is not None:
            raise ProtocolError(
                "conflict policies apply to the causal protocol only"
            )
        if protocol == "atomic":
            return [AtomicOwnerNode(i, **common) for i in range(self.n_nodes)]
        if protocol == "li":
            from repro.protocols.li_hudak import LiHudakNode

            return [LiHudakNode(i, **common) for i in range(self.n_nodes)]
        if protocol == "central":
            self.server = CentralServerNode(
                self.n_nodes,
                runtime=self.runtime,
                namespace=self.namespace,
                n_nodes=self.n_nodes,
                recorder=None,
                initial_value=initial_value,
            )
            return [
                CentralServerClient(i, server_id=self.n_nodes, **common)
                for i in range(self.n_nodes)
            ]
        if protocol == "broadcast":
            return [
                CausalBroadcastNode(i, **common) for i in range(self.n_nodes)
            ]
        raise ProtocolError(f"unknown protocol {protocol!r}")

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def obs(self):
        """The attached TraceCollector, or None when detached."""
        return self._obs

    def attach_obs(self, collector) -> None:
        """Attach one TraceCollector to every layer of this cluster.

        Binds the collector to the kernel clock and sets the ``obs``
        attribute on the kernel, the network (and its codec, if any),
        every node and its store, and the central server when present.
        Detached components keep ``obs = None`` and pay nothing — see
        DESIGN.md Section 4.7.

        Attaching is idempotent for the *same* collector (a no-op, so
        composed harnesses may attach defensively) and raises
        :class:`~repro.errors.ProtocolError` for a *different* one:
        silently rebinding would leave two collectors each believing
        they own the stream, and re-running attach used to double-emit
        spans through stale bindings.
        """
        if self._obs is not None:
            if self._obs is collector:
                return
            raise ProtocolError(
                "cluster already has a TraceCollector attached; "
                "attach_obs is one-shot per cluster"
            )
        self._obs = collector
        collector.bind(self.sim)
        self.sim.obs = collector
        self.network.obs = collector
        if self.network.codec is not None:
            self.network.codec.obs = collector
        for node in self.nodes:
            node.obs = collector
            node.store.obs = collector
        if self.server is not None:
            self.server.obs = collector
            self.server.store.obs = collector

    # ------------------------------------------------------------------
    # Running applications
    # ------------------------------------------------------------------
    def spawn(self, node_id: int, process: Callable, *args: Any, name: str = ""):
        """Start an application process on node ``node_id``.

        ``process`` is a generator function taking the node's API object
        first: ``process(api, *args)``.
        """
        api = self.nodes[node_id]
        gen = process(api, *args)
        return self.scheduler.spawn(
            gen, name=name or f"{process.__name__}@{node_id}"
        )

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        check_deadlock: bool = True,
    ) -> None:
        """Run the simulation to completion (or to ``until``)."""
        self.scheduler.run_all(
            until=until, max_events=max_events, check_deadlock=check_deadlock
        )

    # ------------------------------------------------------------------
    # Measurement surfaces
    # ------------------------------------------------------------------
    @property
    def stats(self):
        """Network-level message statistics."""
        return self.network.stats

    def node_stats(self) -> Dict[int, OpStats]:
        """Per-node operation statistics."""
        return {node.node_id: node.stats for node in self.nodes}

    def history(self):
        """The recorded operation history, as a checker-ready History."""
        if self.recorder is None:
            raise SimulationError("cluster was built with record_history=False")
        return self.recorder.build(n_procs=self.n_nodes)

    def watch(self, location: str, predicate: Callable[[Any], bool]) -> Future:
        """Watch the authoritative copy of ``location`` (see DSMNode.watch).

        For owner protocols the authoritative copy lives at the owner; for
        the central server, at the server; broadcast memory has no single
        authority, so callers should watch a specific node directly.
        """
        if self.protocol == "central":
            assert self.server is not None
            return self.server.watch(location, predicate)
        if self.protocol in ("broadcast", "li"):
            raise ProtocolError(
                f"{self.protocol!r} memory has no fixed authoritative node; "
                "use cluster.nodes[i].watch(...)"
            )
        owner = self.namespace.owner(location)
        return self.nodes[owner].watch(location, predicate)
