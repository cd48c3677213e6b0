"""Generator-based discrete-event simulation engine.

The design follows the classic event-queue/process-coroutine structure
(cf. SimPy) but is self-contained and minimal: an :class:`Environment`
owns a heap of ``(time, seq, event)`` entries; a :class:`Process` wraps a
generator that *yields* events and is resumed with the value of each
event when it fires.

Determinism: ties in time are broken by a monotonically increasing
sequence number, so two runs of the same model produce identical
schedules.  Nothing in the engine reads the wall clock.
"""

from __future__ import annotations

import heapq
from collections import deque
from sys import getrefcount as _getrefcount
from typing import Any, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]


class SimulationError(Exception):
    """Raised for illegal engine operations (double trigger, bad yield...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupting cause is available as ``exc.cause``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Sentinel distinguishing "not yet set" from a legitimate ``None`` value.
_PENDING = object()

#: Upper bound on the per-environment Timeout free list.  Recycling
#: only pays while the pool fits comfortably in cache; past this the
#: allocator is no slower and the memory is better spent elsewhere.
_TIMEOUT_POOL_MAX = 4096


class Event:
    """A one-shot occurrence that processes can wait on.

    An event moves through three states: *pending* (created), *triggered*
    (``succeed``/``fail`` called, scheduled on the queue) and *processed*
    (callbacks have run).  Waiting processes are resumed with the event's
    value, or have its exception thrown into them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._processed = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (waiters resumed)."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event succeeded. Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value or failure exception of the event."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        for cb in callbacks:
            cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation.

    Construction is the single hottest allocation in the simulator (one
    per timed hop of every process), so it writes the event fields and
    schedules itself inline instead of chaining through
    ``Event.__init__`` and ``Environment._schedule``.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._processed = False
        self.delay = delay
        if delay == 0.0:
            env._immediate.append((env._seq, self))
        else:
            heapq.heappush(env._queue, (env.now + delay, env._seq, self))
        env._seq += 1


class Process(Event):
    """A running generator; itself an event that fires when it returns.

    The generator *yields* :class:`Event` instances.  When a yielded
    event succeeds the generator is resumed with ``event.value``; when it
    fails, the exception is thrown into the generator (so models can use
    ordinary ``try/except``).  The generator's ``return`` value becomes
    the process's event value.
    """

    __slots__ = ("_generator", "_waiting_on", "name", "_failure_observed")

    def __init__(self, env: "Environment", generator: Generator,
                 name: Optional[str] = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._failure_observed = False
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the process at the current simulation instant.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        The event the process was waiting on is abandoned (its callback
        unregistered); the process decides how to recover.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        carrier = Event(self.env)
        carrier.callbacks.append(self._resume)
        carrier.fail(Interrupt(cause))

    # -- internals ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        self.env._active_process = self
        try:
            if event._ok:
                target = self._generator.send(
                    event._value if event._value is not _PENDING else None)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.env._active_process = None
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        self.env._active_process = None

        if not isinstance(target, Event):
            err = SimulationError(
                f"process {self.name!r} yielded non-event {target!r}")
            # Throw back into the generator so the traceback points home.
            carrier = Event(self.env)
            carrier.callbacks.append(self._resume)
            carrier.fail(err)
            return
        if target.callbacks is None:
            # Already processed: resume immediately with its settled value.
            if isinstance(target, Process):
                target._failure_observed = True
            carrier = Event(self.env)
            carrier.callbacks.append(self._resume)
            if target._ok:
                carrier.succeed(target._value)
            else:
                carrier.fail(target._value)
            return
        self._waiting_on = target
        target.callbacks.append(self._resume)
        if isinstance(target, Process):
            # Someone is waiting on that process; its failure, if any,
            # will be delivered rather than lost.
            target._failure_observed = True


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._n_fired = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if isinstance(ev, Process):
                ev._failure_observed = True
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _collect(self) -> list:
        return [ev._value for ev in self.events if ev.triggered and ev._ok]

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every constituent event has fired; value is all values.

    If any constituent fails, the condition fails with that exception.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._n_fired += 1
        if self._n_fired == len(self.events):
            self.succeed([ev._value for ev in self.events])


class AnyOf(_Condition):
    """Fires as soon as one constituent fires; value is that event's value."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed(event._value)


class Environment:
    """Holds simulated time and the pending-event queue."""

    def __init__(self, initial_time: float = 0.0):
        #: Current simulated time in seconds: a plain attribute (read on
        #: every hop of every process) that only the run loop writes.
        self.now = float(initial_time)
        self._queue: list = []
        # Zero-delay events (gate releases, resource grants, process
        # completions) outnumber timed ones in RPC-heavy models; they
        # bypass the heap through this FIFO of ``(seq, event)`` pairs.
        # Every entry fires at the current instant, and the global
        # ``_seq`` totally orders same-time events across both queues,
        # so the schedule is identical to an all-heap engine.
        self._immediate: deque = deque()
        self._seq = 0
        self._active_process: Optional[Process] = None
        # Free list of fired Timeout objects eligible for reuse (only
        # ones provably unreferenced by model code; see run()).
        self._timeout_pool: list = []

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def events_scheduled(self) -> int:
        """Total events scheduled so far (wall-clock perf metric)."""
        return self._seq

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now.

        Timeout construction is the hottest allocation in the simulator
        (one per timed hop of every process), so fired timeouts that no
        model code still references are recycled through a free list
        (see the pool check in :meth:`run`) instead of round-tripping
        the allocator.  Pooling never changes the schedule: a recycled
        timeout consumes a fresh sequence number exactly like a new one.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay!r}")
            t = pool.pop()
            t.callbacks = []
            t._value = value
            t._processed = False
            t.delay = delay
            if delay == 0.0:
                self._immediate.append((self._seq, t))
            else:
                heapq.heappush(self._queue, (self.now + delay, self._seq, t))
            self._seq += 1
            return t
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """An event firing at the absolute instant ``when`` — for a
        caller that built it as ``(t0 + a) + b``, which ``timeout(when -
        now)`` would round a second time.  Pooled like :meth:`timeout`."""
        now = self.now
        if when < now:
            raise ValueError(f"timeout_at({when!r}) is in the past (now={now!r})")
        if self._timeout_pool:
            t = self._timeout_pool.pop()
        else:
            t = Timeout.__new__(Timeout)
            t.env, t._ok, t._scheduled = self, True, True
        t.callbacks = []
        t._value = value
        t._processed = False
        t.delay = when - now
        if when == now:
            self._immediate.append((self._seq, t))
        else:
            heapq.heappush(self._queue, (when, self._seq, t))
        self._seq += 1
        return t

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Register ``generator`` as a process starting at the current time."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        if delay == 0.0:
            self._immediate.append((self._seq, event))
        else:
            heapq.heappush(self._queue, (self.now + delay, self._seq, event))
        self._seq += 1

    def _next_event(self) -> Event:
        """Pop the globally next event (lowest ``(time, seq)``) and
        advance the clock to it."""
        immediate = self._immediate
        queue = self._queue
        if immediate:
            # Heap events at the current instant may predate (lower
            # seq) the oldest immediate event; everything later-timed
            # loses to the immediate queue.
            if queue:
                when, seq, event = queue[0]
                if when <= self.now and seq < immediate[0][0]:
                    heapq.heappop(queue)
                    return event
            return immediate.popleft()[1]
        when, _, event = heapq.heappop(queue)
        self.now = when
        return event

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if queue is empty."""
        if self._immediate:
            return self.now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event from the queue."""
        if not self._queue and not self._immediate:
            raise SimulationError("step() on empty queue")
        self._next_event()._run_callbacks()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``.

        Unhandled process failures propagate out of ``run`` so broken
        models fail loudly rather than silently losing work.
        """
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        immediate = self._immediate
        queue = self._queue
        pool = self._timeout_pool
        pop = heapq.heappop
        while immediate or queue:
            if immediate:
                # No local may keep a reference to the peeked heap
                # entry across iterations: a stale binding would
                # inflate the refcount check below and disable pooling.
                if (queue and queue[0][0] <= self.now
                        and queue[0][1] < immediate[0][0]):
                    event = pop(queue)[2]
                else:
                    event = immediate.popleft()[1]
            else:
                when = queue[0][0]
                if until is not None and when > until:
                    self.now = until
                    return
                self.now = when
                event = pop(queue)[2]
            # Inlined Event._run_callbacks: this dispatch runs once per
            # event processed, so the attribute traffic of a method call
            # is measurable at fleet scale.
            callbacks = event.callbacks
            event.callbacks = None
            event._processed = True
            for cb in callbacks:
                cb(event)
            if type(event) is Timeout:
                # Recycle the timeout if nothing outside this frame
                # still references it (refcount 2 = the local + the
                # getrefcount argument).  A timeout a process kept, or
                # one held by an AllOf/AnyOf ``events`` list, stays out
                # of the pool automatically.
                if len(pool) < _TIMEOUT_POOL_MAX and _getrefcount(event) == 2:
                    pool.append(event)
            elif (not event._ok and isinstance(event, Process)
                    and not event._failure_observed):
                # A failed process nobody was waiting on: a model bug.
                # Fail loudly instead of silently losing the exception.
                raise event._value
        if until is not None:
            self.now = until
