"""Futures and generator-based processes for the simulator.

The paper's memory operations *block*: a read miss "blocks until a reply is
received" and a non-owned write "blocks until a reply is received and the
write is certified" (Section 3.1).  We model each application process as a
Python generator that yields :class:`Future` objects; the process is
suspended until the future resolves, exactly mirroring the blocking in the
paper while keeping the whole simulation single-threaded and deterministic.

A process may yield:

* a :class:`Future` — suspend until it resolves, receive its value (an
  already resolved one continues at once when nothing else is due);
* ``None`` — cooperative yield: resume after all currently pending events
  at the same simulated time (used by busy-wait loops).

Sub-procedures compose with ``yield from``: a helper generator's ``return``
value becomes the value of the ``yield from`` expression.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import DeadlockError, SimulationError
from repro.sim.kernel import Simulator

__all__ = ["Future", "Task", "TaskScheduler", "sleep", "gather"]

_PENDING = "pending"
_RESOLVED = "resolved"
_FAILED = "failed"

# Type alias for process bodies.
ProcessGen = Generator[Any, Any, Any]


class Future:
    """A one-shot container for a value produced later in simulated time.

    Futures are resolved exactly once (via :meth:`resolve` or :meth:`fail`);
    callbacks registered with :meth:`add_done_callback` run synchronously at
    resolution time, in registration order.
    """

    __slots__ = ("_state", "_value", "_exc", "_callbacks", "label")

    def __init__(self, label: str = ""):
        self._state = _PENDING
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: list[Callable[["Future"], None]] = []
        self.label = label

    @classmethod
    def completed(cls, value: Any, label: str = "") -> "Future":
        """A future born resolved with ``value``: no callback list to run."""
        future = cls.__new__(cls)
        future._state, future._value, future._exc = _RESOLVED, value, None
        future.label = label
        return future

    # -- state ----------------------------------------------------------
    @property
    def resolved(self) -> bool:
        """True once the future has a value or an exception."""
        return self._state != _PENDING

    @property
    def failed(self) -> bool:
        """True if the future carries an exception."""
        return self._state == _FAILED

    def result(self) -> Any:
        """The resolved value; raises the stored exception on failure."""
        if self._state == _PENDING:
            raise SimulationError(f"future {self.label!r} is not resolved yet")
        if self._state == _FAILED:
            assert self._exc is not None
            raise self._exc
        return self._value

    def exception(self) -> Optional[BaseException]:
        """The stored exception, or None."""
        return self._exc

    # -- resolution -------------------------------------------------------
    def resolve(self, value: Any = None) -> None:
        """Deliver ``value`` and run callbacks."""
        if self._state != _PENDING:
            raise SimulationError(f"future {self.label!r} resolved twice")
        self._state = _RESOLVED
        self._value = value
        self._run_callbacks()

    def fail(self, exc: BaseException) -> None:
        """Deliver an exception and run callbacks."""
        if self._state != _PENDING:
            raise SimulationError(f"future {self.label!r} resolved twice")
        self._state = _FAILED
        self._exc = exc
        self._run_callbacks()

    def add_done_callback(self, callback: Callable[["Future"], None]) -> None:
        """Run ``callback(self)`` at resolution (immediately if resolved)."""
        if self.resolved:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _run_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Future {self.label!r} {self._state}>"


class Task(Future):
    """A running process: a generator driven by a :class:`TaskScheduler`.

    A task is itself a future that resolves with the generator's return
    value, so tasks can wait on each other (``result = yield other_task``).
    """

    __slots__ = ("_scheduler", "_gen", "name", "_finished_hook", "_tag")

    def __init__(self, scheduler: "TaskScheduler", gen: ProcessGen, name: str):
        super().__init__(label=f"task:{name}")
        self._scheduler = scheduler
        self._gen = gen
        self.name = name
        # Every resume event shares this one tag tuple; the kernel's
        # arg-carrying events let ``_step`` itself be the callback, so a
        # resume allocates no closure.
        self._tag = ("task", name)

    def kill(self) -> None:
        """Terminate the task (used by fault-injection tests)."""
        if self.resolved:
            return
        self._gen.close()
        self.fail(SimulationError(f"task {self.name!r} was killed"))

    # -- driving the generator -------------------------------------------
    def _step(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        if self.resolved:
            return
        gen = self._gen
        while True:
            try:
                if exc is not None:
                    yielded = gen.throw(exc)
                else:
                    yielded = gen.send(value)
            except StopIteration as stop:
                self.resolve(stop.value)
                return
            except BaseException as error:  # noqa: BLE001 - propagate via future
                self.fail(error)
                return
            # A future already resolved (a read hit) continues in this
            # event when its resume event would run next anyway.
            if (
                isinstance(yielded, Future)
                and yielded._state is _RESOLVED
                and self._scheduler.sim.may_continue()
            ):
                value, exc = yielded._value, None
                continue
            self._handle_yield(yielded)
            return

    def _handle_yield(self, yielded: Any) -> None:
        sim = self._scheduler.sim
        if yielded is None:
            sim.call_soon(self._step, tag=self._tag, arg=None)
            return
        if isinstance(yielded, Future):
            yielded.add_done_callback(self._on_future_done)
            return
        self._step(
            exc=SimulationError(
                f"task {self.name!r} yielded {yielded!r}; expected Future or None"
            )
        )

    def _on_future_done(self, future: Future) -> None:
        # Resume on a fresh event so the resuming code never runs inside a
        # message handler (handlers must be atomic, per Section 3.1).
        sim = self._scheduler.sim
        if future.failed:
            exc = future.exception()
            assert exc is not None
            sim.call_soon(self._throw, tag=self._tag, arg=exc)
        else:
            sim.call_soon(self._step, tag=self._tag, arg=future.result())

    def _throw(self, exc: BaseException) -> None:
        self._step(exc=exc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.resolved else "running"
        return f"<Task {self.name!r} {state}>"


class TaskScheduler:
    """Creates and tracks :class:`Task` processes on a simulator."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.tasks: list[Task] = []

    def spawn(self, gen: ProcessGen, name: str = "") -> Task:
        """Start a process; its first step runs as a fresh event 'now'."""
        if not name:
            name = f"task-{len(self.tasks)}"
        task = Task(self, gen, name)
        self.tasks.append(task)
        self.sim.call_soon(task._step, tag=task._tag, arg=None)
        return task

    # -- bookkeeping -------------------------------------------------------
    def unfinished(self) -> list[Task]:
        """Tasks that have not yet resolved."""
        return [task for task in self.tasks if not task.resolved]

    def run_all(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        check_deadlock: bool = True,
    ) -> None:
        """Run the simulator; optionally raise if tasks remain blocked.

        Raises
        ------
        DeadlockError
            If the event queue drained while tasks are still suspended —
            the simulation analogue of a distributed deadlock.
        """
        self.sim.run(until=until, max_events=max_events)
        self.raise_failures()
        if check_deadlock and until is None:
            blocked = self.unfinished()
            if blocked:
                raise DeadlockError([task.name for task in blocked])

    def raise_failures(self) -> None:
        """Re-raise the first exception stored in any finished task."""
        for task in self.tasks:
            if task.resolved and task.failed:
                exc = task.exception()
                assert exc is not None
                raise exc


def sleep(sim: Simulator, duration: float) -> Future:
    """A future that resolves ``duration`` time units from now."""
    future = Future(label=f"sleep:{duration}")
    sim.schedule(duration, future.resolve, tag=("sleep", duration), arg=None)
    return future


def gather(futures: Iterable[Future]) -> Future:
    """A future resolving with the list of results of ``futures``.

    Fails as soon as any input fails (remaining results are discarded).
    """
    futures = list(futures)
    combined = Future(label=f"gather:{len(futures)}")
    if not futures:
        combined.resolve([])
        return combined
    remaining = [len(futures)]

    def on_done(_: Future) -> None:
        if combined.resolved:
            return
        remaining[0] -= 1
        failures = [f for f in futures if f.resolved and f.failed]
        if failures:
            exc = failures[0].exception()
            assert exc is not None
            combined.fail(exc)
        elif remaining[0] == 0:
            combined.resolve([f.result() for f in futures])

    for future in futures:
        future.add_done_callback(on_done)
    return combined
