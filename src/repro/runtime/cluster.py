"""A DSM cluster on the live asyncio driver.

:class:`LiveCluster` mirrors :class:`~repro.protocols.base.DSMCluster`'s
construction surface but wires the nodes onto an
:class:`~repro.runtime.live.AsyncioRuntime` instead of a simulator.  The
protocol dispatch is *inherited*, not copied: ``_assemble`` (and
``spawn``/``attach_obs``/``history``/``stats``/``watch``) run unchanged
against the live runtime, because they only touch the driver through
the handle.  Zero protocol-engine forks.
"""

from __future__ import annotations

import time
from typing import Any, Optional

from repro.errors import ProtocolError
from repro.protocols.base import DSMCluster
from repro.protocols.wire import WireCodec
from repro.runtime.live import AsyncioRuntime

__all__ = ["LiveCluster", "LiveOutcome"]


class LiveCluster(DSMCluster):
    """``n`` processors running one DSM protocol over real sockets.

    Accepts the live driver's options — ``transport``
    (``"uds"``/``"tcp"``), ``link_delay`` (float or ``{(src, dst):
    seconds}``), ``settle`` (post-completion drain), and ``timeout``
    (wall-clock deadline for :meth:`run` — the live analogue of deadlock
    detection) — and passes every other keyword (``protocol``,
    ``namespace``, ``policy``, ``initial_value``, ``record_history``,
    ``no_cache``) to the assembly :class:`DSMCluster` shares.

    ``seed`` feeds :meth:`~repro.runtime.base.Runtime.derived_rng`
    exactly as the simulator's does, so a seeded workload issues the
    identical operation sequence under both drivers; only the message
    interleavings differ.
    """

    def __init__(
        self,
        n_nodes: int,
        seed: int = 0,
        delta_stamps: bool = False,
        transport: str = "uds",
        link_delay=None,
        settle: float = 0.05,
        timeout: float = 30.0,
        **protocol_knobs: Any,
    ):
        self.timeout = timeout
        self.runtime = AsyncioRuntime(
            n_nodes,
            transport=transport,
            codec=WireCodec(delta=delta_stamps),
            link_delay=link_delay,
            seed=seed,
            settle=settle,
        )
        # DSMCluster's methods reach the driver through these two names;
        # on the live runtime both resolve to the runtime itself.
        self.scheduler = self.runtime
        self._assemble(n_nodes, delta_stamps=delta_stamps, **protocol_knobs)

    # The inherited machinery addresses the kernel as ``self.sim`` and
    # the message layer as ``self.network``; both are the runtime here.
    @property
    def sim(self):
        return self.runtime

    @property
    def network(self):
        return self.runtime

    def attach_obs(self, collector) -> None:
        """Attach a collector; live traces also carry wall timestamps."""
        super().attach_obs(collector)
        collector.bind_wall(time.monotonic)

    def attach_plane(self, plane=None):
        """Attach a sharded telemetry plane instead of one collector.

        Every node gets its own ring-buffered shard streaming over the
        runtime's telemetry sideband; ``cluster.obs`` becomes the
        aggregator's merged collector (so ``attach_monitor`` and the
        exporters ride the aggregated stream).  Mutually exclusive with
        :meth:`attach_obs`.  Returns the plane.
        """
        from repro.obs.plane import TelemetryPlane

        if plane is None:
            plane = TelemetryPlane()
        plane.attach(self)
        return plane

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        check_deadlock: bool = True,
        timeout: Optional[float] = None,
    ) -> None:
        """Run the mesh to completion (bounded by the wall-clock timeout).

        ``until``/``max_events`` are simulator concepts and are not
        accepted here; ``check_deadlock`` is subsumed by the timeout.
        """
        if until is not None or max_events is not None:
            raise ProtocolError(
                "until/max_events are simulator-only; use timeout= live"
            )
        self.runtime.run(timeout=timeout if timeout is not None else self.timeout)


class LiveOutcome:
    """A finished live execution, ready for checking and benchmarking."""

    def __init__(self, cluster: LiveCluster, history, monitor_result=None,
                 online_verdicts=None, latencies=None):
        self.cluster = cluster
        self.history = history
        self.monitor_result = monitor_result
        self.online_verdicts = online_verdicts
        #: Per-operation completion latencies (seconds), when sampled.
        self.latencies = latencies or []
        runtime = cluster.runtime
        self.elapsed = runtime.elapsed
        self.total_messages = runtime.stats.total
        self.dropped_messages = runtime.stats.dropped
        self.model_bytes = runtime.stats.bytes_total
        self.socket_bytes = runtime.socket_bytes
        #: ``transport.write`` calls that carried them.
        self.socket_writes = runtime.socket_writes
        self.resyncs = runtime.resyncs
        self.frames_rejected = runtime.frames_rejected
        #: Per-directed-channel accounting at teardown.
        self.link_stats = runtime.link_stats()
        #: Telemetry-plane summary (merge/loss/skew/sideband bytes),
        #: None for unobserved runs.
        self.telemetry = (
            runtime.plane.stats() if runtime.plane is not None else None
        )
