"""A central-server atomic memory.

The simplest strongly consistent DSM: one server holds every location and
every read or write is a blocking RPC (2 messages, always).  The paper
dismisses this design for the dictionary ("an atomic shared memory
solution that maintains a single common copy ... is not interesting")
because it forgoes caching entirely; it is included here as the
floor-of-the-design-space baseline for the message-count experiments and
as a trivially correct memory for differential testing (its executions
are sequentially consistent by construction, since the server applies
operations in a single total order and clients block per operation).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.clocks import VectorClock
from repro.errors import ProtocolError
from repro.memory.namespace import Namespace
from repro.memory.local_store import MemoryEntry
from repro.protocols.base import DSMNode, WriteOutcome
from repro.protocols.messages import CentralRead, CentralReply, CentralWrite
from repro.sim import Future

__all__ = ["CentralServerNode", "CentralServerClient"]


def _identity_stamp(n_nodes: int, writer: int, seq: int) -> VectorClock:
    components = [0] * n_nodes
    components[writer] = seq
    return VectorClock(components)


class CentralServerNode(DSMNode):
    """The server: owns every location, applies RPCs in arrival order."""

    def __init__(self, node_id: int, *, namespace: Namespace, **kwargs: Any):
        # The server owns everything; clients' namespace is irrelevant here.
        owns_all = Namespace(node_id + 1, owner_fn=lambda unit: node_id)
        super().__init__(node_id, namespace=owns_all, **kwargs)

    def read(self, location: str) -> Future:  # pragma: no cover - not an app node
        raise ProtocolError("the central server hosts no application process")

    def write(self, location: str, value: Any) -> Future:  # pragma: no cover
        raise ProtocolError("the central server hosts no application process")

    def handle_message(self, src: int, message: object) -> None:
        """Serve one RPC."""
        if isinstance(message, CentralRead):
            entry = self.store.get(message.location)
            assert entry is not None
            if self.obs is not None and self.obs.wants("proto", "serve.read"):
                self.obs.emit(
                    "proto", "serve.read", node=self.node_id,
                    clock=entry.stamp, location=message.location,
                    requester=src,
                )
            self.runtime.send(
                self.node_id,
                src,
                CentralReply(
                    request_id=message.request_id,
                    location=message.location,
                    value=entry.value,
                    stamp=entry.stamp,
                    writer=entry.writer,
                ),
            )
        elif isinstance(message, CentralWrite):
            entry = MemoryEntry(
                value=message.value,
                stamp=_identity_stamp(self.n_nodes, src, message.seq),
                writer=src,
            )
            self.store.put(message.location, entry)
            self._notify_watchers(message.location, message.value)
            if self.obs is not None and self.obs.wants("proto", "serve.write"):
                self.obs.emit(
                    "proto", "serve.write", node=self.node_id,
                    clock=entry.stamp, location=message.location, writer=src,
                )
            self.runtime.send(
                self.node_id,
                src,
                CentralReply(
                    request_id=message.request_id,
                    location=message.location,
                    value=message.value,
                    stamp=entry.stamp,
                    writer=entry.writer,
                ),
            )
        else:
            raise ProtocolError(f"central server got unexpected {message!r}")


class CentralServerClient(DSMNode):
    """A client: every operation is a blocking round trip to the server."""

    def __init__(self, node_id: int, *, server_id: int, **kwargs: Any):
        super().__init__(node_id, **kwargs)
        self.server_id = server_id
        self._write_seq = 0
        self._pending: Dict[int, Tuple[Future, str, Any, bool, float]] = {}

    def read(self, location: str) -> Future:
        """Read RPC (2 messages, unconditionally)."""
        self.stats.reads += 1
        self.stats.remote_reads += 1
        if self.obs is not None and self.obs.wants("proto", "op.read"):
            self.obs.emit(
                "proto", "op.read", node=self.node_id,
                location=location, hit=False,
            )
        future = Future(label=f"csread:{self.node_id}:{location}")
        request_id = self.next_request_id()
        self._pending[request_id] = (future, location, None, True, self.runtime.now)
        self.runtime.send(
            self.node_id,
            self.server_id,
            CentralRead(request_id=request_id, location=location),
        )
        return future

    def write(self, location: str, value: Any) -> Future:
        """Write RPC (2 messages, unconditionally)."""
        self.stats.writes += 1
        self.stats.remote_writes += 1
        self._write_seq += 1
        if self.obs is not None and self.obs.wants("proto", "op.write"):
            self.obs.emit(
                "proto", "op.write", node=self.node_id,
                clock=_identity_stamp(self.n_nodes, self.node_id, self._write_seq),
                location=location, mode="rpc",
            )
        future = Future(label=f"cswrite:{self.node_id}:{location}")
        request_id = self.next_request_id()
        self._pending[request_id] = (future, location, value, False, self.runtime.now)
        self.runtime.send(
            self.node_id,
            self.server_id,
            CentralWrite(
                request_id=request_id,
                location=location,
                value=value,
                seq=self._write_seq,
            ),
        )
        return future

    def discard(self, location: str) -> bool:
        """Clients hold no cache; discard is a no-op."""
        return False

    def handle_message(self, src: int, message: object) -> None:
        """Absorb an RPC reply."""
        if not isinstance(message, CentralReply):
            raise ProtocolError(
                f"central client {self.node_id} got unexpected {message!r}"
            )
        future, location, value, is_read, started = self._pending.pop(
            message.request_id
        )
        self.stats.blocked_time += self.runtime.now - started
        entry = MemoryEntry(
            value=message.value, stamp=message.stamp, writer=message.writer
        )
        if is_read:
            self._record_read(location, entry)
            future.resolve(message.value)
        else:
            self._record_write(location, value, entry)
            future.resolve(WriteOutcome(location=location, value=value))
