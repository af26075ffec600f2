"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly or reached a bad state."""


class DeadlockError(SimulationError):
    """The simulator ran out of events while tasks were still blocked.

    This is the simulation-time analogue of a distributed deadlock: every
    process is waiting on a future that no pending event can resolve.
    """

    def __init__(self, blocked: list[str]):
        self.blocked = list(blocked)
        detail = ", ".join(blocked) or "<unknown>"
        super().__init__(f"simulation deadlock; blocked tasks: {detail}")


class NetworkError(SimulationError):
    """A message was sent to an unknown node or over a closed channel."""


class ClockError(ReproError):
    """Vector clocks of mismatched dimension were combined or compared."""


class MemoryError_(ReproError):
    """A local-memory (``M_i``) invariant was violated."""


class OwnershipError(MemoryError_):
    """An operation assumed the wrong owner for a location."""


class ProtocolError(ReproError):
    """A DSM protocol engine received an impossible message or state."""


class HistoryError(ReproError):
    """An operation history is malformed (e.g. duplicate writes)."""


class CheckError(ReproError):
    """A consistency checker was invoked on an unsupported history."""
