"""Core discrete-event simulation primitives.

The design follows the classic event-loop architecture:

* :class:`Environment` owns the simulation clock and a priority queue of
  scheduled events.
* :class:`Event` is the base synchronisation primitive.  Events can be
  *succeeded* (optionally with a value) or *failed* (with an exception), and
  callbacks registered on them run when they fire.
* :class:`Process` wraps a generator.  The generator yields events; when a
  yielded event fires the process is resumed with the event's value (or the
  exception is thrown into it).
* :class:`Timeout` is an event that fires after a fixed simulated delay.

Only the features the reproduction needs are implemented, which keeps the
kernel small and easy to reason about, but the semantics intentionally mirror
SimPy so the agent/serving code reads like ordinary SimPy programs.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation kernel."""


_PENDING = object()


class Event:
    """A one-shot synchronisation primitive.

    An event starts *pending*; it can be triggered exactly once, either with
    :meth:`succeed` or :meth:`fail`.  Processes wait on events by yielding
    them.

    Events are the hottest allocation in the simulator, so the class is
    slotted and callback lists are recycled through the environment's pool
    (a processed event hands its emptied list back; the next event reuses
    it instead of allocating).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        pool = env._callback_pool
        self.callbacks: list[Callable[["Event"], None]] = pool.pop() if pool else []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has been given a value (it may not have fired yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already been executed."""
        return self.callbacks is None  # type: ignore[return-value]

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self.triggered:
            raise SimulationError("event already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (callback helper)."""
        if event.ok:
            self.succeed(event.value)
        else:
            self.fail(event.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at t={self.env.now:.6f}>"


class Timeout(Event):
    """Event that fires automatically after ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)


class _Start:
    """Minimal one-shot stub that kicks off a freshly created process.

    Replaces the old ``Initialize`` Event subclass on the hot path: it only
    carries the five attributes :meth:`Environment.step` touches, with no
    environment back-reference or pending-value machinery.
    """

    __slots__ = ("callbacks", "_ok", "_value", "_scheduled", "_defused")

    def __init__(self, env: "Environment", process: "Process"):
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        self._scheduled = False
        self._defused = False
        env._schedule(self)


class Process(Event):
    """Wraps a generator so it can be driven by the event loop.

    A ``Process`` is itself an event that fires when the generator finishes
    (with its return value) or raises (with the exception), so processes can
    wait for each other simply by yielding them.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise SimulationError("Process requires a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        _Start(env, self)

    def retarget(self, event: Event) -> None:
        """Make the waiting process resume on ``event`` instead of its target.

        The process stops waiting on the event it yielded and waits on
        ``event`` instead; the old target still fires, but no longer
        resumes this process.  Lets the owner of a sleeping process move its
        wake-up (the engine shortens an in-flight decode run this way when a
        request arrives).
        """
        target = self._target
        if target is None or target.processed:
            raise SimulationError("retarget() needs a process waiting on an event")
        if event.processed:
            raise SimulationError("cannot retarget onto an already processed event")
        target.callbacks.remove(self._resume)
        event.callbacks.append(self._resume)
        self._target = event

    def close(self) -> None:
        """Stop the process for good: detach it from the event it waits on,
        then close its generator.  The process itself never fires."""
        target = self._target
        if target is not None and not target.processed:
            target.callbacks.remove(self._resume)
        self._target = None
        self._generator.close()

    # -- driving ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                self.env._schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.env._schedule(self)
                break

            if not isinstance(next_event, Event):
                raise SimulationError(
                    f"process yielded a non-event: {next_event!r}"
                )
            if next_event.processed:
                # Already fired: resume immediately with its value.
                event = next_event
                continue
            next_event.callbacks.append(self._resume)
            self._target = next_event
            break
        self.env._active_process = None


class AllOf(Event):
    """Fires when all child events have fired, with ``{index: value}``.

    A child that fails fails the composite with the child's exception.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self.triggered and self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:
        return all(event.triggered and event.ok for event in self._events)

    def _collect(self) -> dict:
        return {
            index: event.value
            for index, event in enumerate(self._events)
            if event.triggered and event.ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event.value)
            return
        if self._satisfied():
            self.succeed(self._collect())


class Environment:
    """Simulation environment: clock plus event queue."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = itertools.count()
        self._active_process: Optional[Process] = None
        self._events_processed = 0
        self._callback_pool: list[list] = []
        self._horizon = float("inf")

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events popped and executed by :meth:`step` so far."""
        return self._events_processed

    @property
    def run_horizon(self) -> float:
        """The numeric ``until`` of the active :meth:`run` call (``inf`` otherwise).

        Lets cooperating components avoid scheduling internal state changes
        past the point where the caller will observe the simulation.  The
        engine's decode fast-forward bounds each run by it, next to the
        engine's own completions, KV budget and arrivals, so every run
        started inside ``run(until=t)`` has been applied when the call
        returns.
        """
        return self._horizon

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """Event that fires at absolute simulated time ``when``.

        Equivalent to ``timeout(when - now)`` but schedules at the exact
        absolute time, avoiding the float round-trip of ``now + (when - now)``
        — required when a precomputed sequence of absolute times must be
        reproduced bit-for-bit.
        """
        if when < self._now:
            raise SimulationError(f"timeout_at lies in the past: {when} < {self._now}")
        event = Event(self)
        event._ok = True
        event._value = value
        event._scheduled = True
        heapq.heappush(self._queue, (when, 1, next(self._eid), event))
        return event

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        heapq.heappush(self._queue, (self._now + delay, 1, next(self._eid), event))

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` when the queue is empty)."""
        return self._queue[0][0] if self._queue else float("inf")

    def pending_events(self) -> list[Event]:
        """The currently scheduled events (unordered); for liveness checks."""
        return [event for _, _, _, event in self._queue]

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        when, _priority, _eid, event = heapq.heappop(self._queue)
        self._now = when
        self._events_processed += 1
        callbacks, event.callbacks = event.callbacks, None  # type: ignore[assignment]
        for callback in callbacks:
            callback(event)
        callbacks.clear()
        self._callback_pool.append(callbacks)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time), or an :class:`Event` (run until it
        fires, returning its value).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError("until lies in the past")

        prev_horizon = self._horizon
        self._horizon = stop_time
        try:
            while self._queue:
                if stop_event is not None and stop_event.processed:
                    break
                if self.peek() > stop_time:
                    self._now = stop_time
                    return None
                self.step()
        finally:
            self._horizon = prev_horizon

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError("run() finished before the until-event fired")
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        if stop_time != float("inf"):
            # The queue drained before the numeric horizon: the caller asked
            # for time ``until``, so the clock lands exactly there.
            self._now = stop_time
        return None
