"""The driver-facing runtime interface and its simulator driver.

Everything a protocol engine may ask of its execution environment is
collected here.  The surface was extracted *descriptively*: it is the
grep-verified closure of what the engines actually call on the
simulator and network (``now``, ``call_soon``, ``send``,
``send_fanout``, plus ``register`` from the :class:`DSMNode` base
constructor), with ``schedule``/``sleep``/``spawn``/``derived_rng``
added for application programs and harnesses.  Engines hold a single
``self.runtime`` handle; which driver sits behind it decides whether an
execution is a deterministic simulation or a real multi-socket run.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional, Sequence

from repro.sim.kernel import NO_ARG, Simulator
from repro.sim.network import Network

__all__ = ["Runtime", "SimRuntime"]


class Runtime:
    """Abstract driver interface for protocol engines and programs.

    Concrete drivers (:class:`SimRuntime`, :class:`AsyncioRuntime`)
    provide these as plain attributes or methods; the class exists to
    document the contract, not to dispatch.  The contract the engines
    rely on:

    * **Handler atomicity** — a registered message handler runs to
      completion before any other handler or callback runs.
    * **Per-channel FIFO** — messages between one ordered pair of nodes
      are delivered in send order (the wire codec's delta-stamp chain
      depends on this).
    * **Monotone time** — ``now`` never decreases.
    """

    def call_soon(self, callback: Callable, tag=None, arg=NO_ARG):
        """Run ``callback`` (optionally with ``arg``) as soon as possible."""
        raise NotImplementedError

    def schedule(self, delay: float, callback: Callable, tag=None, arg=NO_ARG):
        """Run ``callback`` after ``delay`` seconds of runtime time."""
        raise NotImplementedError

    def send(self, src: int, dst: int, message: object) -> None:
        """Send one protocol message over the (src, dst) channel."""
        raise NotImplementedError

    def send_fanout(self, src: int, dsts: Sequence[int], message: object) -> None:
        """Send one message to several destinations."""
        raise NotImplementedError

    def register(self, node_id: int, handler: Callable[[int, object], None]) -> None:
        """Bind ``handler(src, message)`` as ``node_id``'s delivery target."""
        raise NotImplementedError

    def derived_rng(self, label: str) -> random.Random:
        """A deterministically seeded RNG stream named ``label``."""
        raise NotImplementedError

    def sleep(self, duration: float):
        """A future that resolves after ``duration`` runtime seconds."""
        raise NotImplementedError

    def spawn(self, gen, name: str = ""):
        """Drive an application generator as a runtime task."""
        raise NotImplementedError

    @property
    def now(self) -> float:
        """Current runtime time in seconds (virtual or wall-clock)."""
        raise NotImplementedError


class SimRuntime(Runtime):
    """The deterministic simulator behind the :class:`Runtime` handle.

    Pure forwarding: the hot-path members (``call_soon``, ``send``,
    ``send_fanout``) are the simulator's and network's own bound methods
    assigned as instance attributes, so an engine call through the
    handle costs the same attribute lookup it always did — the PR 8
    allocation-free message path is untouched.  Only ``now`` needs a
    property (the kernel mutates it in place).
    """

    def __init__(self, sim: Simulator, network: Network, scheduler):
        self.sim = sim
        self.network = network
        self.scheduler = scheduler
        # Hot-path fast lanes: engine calls hit the kernel directly.
        self.call_soon = sim.call_soon
        self.schedule = sim.schedule
        self.send = network.send
        self.send_fanout = network.send_fanout
        self.register = network.register
        self.derived_rng = sim.derived_rng

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def stats(self):
        """Network-level message statistics."""
        return self.network.stats

    def sleep(self, duration: float):
        from repro.sim.tasks import sleep as sim_sleep

        return sim_sleep(self.sim, duration)

    def spawn(self, gen, name: str = ""):
        return self.scheduler.spawn(gen, name=name)
