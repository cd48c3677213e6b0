"""Shared-resource primitives for the simulation kernel.

:class:`FifoResource` models a server with fixed capacity and a FIFO
queue — used for link serialization, disk arms and NFS daemon threads.
:class:`PriorityResource` adds a priority key.  :class:`Store` is an
unbounded producer/consumer queue used for message delivery between
hosts.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Optional

from repro.sim.engine import Environment, Event, SimulationError

__all__ = ["FifoResource", "PriorityResource", "Store"]


class _Request(Event):
    """Event granted when the resource has a free slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "FifoResource"):
        super().__init__(resource.env)
        self.resource = resource

    # Context-manager sugar so models can write
    #   with (yield res.request()):
    #       ...
    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, *exc) -> None:
        self.resource.release(self)


class FifoResource:
    """A capacity-limited resource with first-come-first-served queueing.

    Usage inside a process::

        req = resource.request()
        yield req
        try:
            ... hold the resource ...
        finally:
            resource.release(req)
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: set = set()
        self._waiting: deque = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> _Request:
        """Ask for a slot; the returned event fires when granted."""
        req = _Request(self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def try_acquire(self) -> Optional[object]:
        """Take a free slot at once, scheduling no event; returns the
        token to :meth:`release`, or None when the slots are full or
        anyone is waiting (a synchronous grant never jumps the queue)."""
        if self._waiting or len(self._users) >= self.capacity:
            return None
        token = object()
        self._users.add(token)
        return token

    def release(self, req: object) -> None:
        """Return a previously granted slot, admitting the next waiter."""
        if req in self._users:
            self._users.remove(req)
        elif req in self._waiting:
            # Released before being granted (e.g. on interrupt): just drop.
            self._waiting.remove(req)
            return
        else:
            raise SimulationError("release() of a request not held")
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            nxt.succeed(nxt)


class PriorityResource(FifoResource):
    """A resource whose queue is ordered by a numeric priority (low first).

    Ties are served in request order.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        super().__init__(env, capacity, name)
        self._waiting: list = []  # heap of (priority, seq, req)
        self._seq = 0

    def request(self, priority: float = 0.0) -> _Request:  # type: ignore[override]
        req = _Request(self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed(req)
        else:
            heapq.heappush(self._waiting, (priority, self._seq, req))
            self._seq += 1
        return req

    def release(self, req: object) -> None:
        if req in self._users:
            self._users.remove(req)
        else:
            for i, (_, _, waiting) in enumerate(self._waiting):
                if waiting is req:
                    del self._waiting[i]
                    heapq.heapify(self._waiting)
                    return
            raise SimulationError("release() of a request not held")
        while self._waiting and len(self._users) < self.capacity:
            _, _, nxt = heapq.heappop(self._waiting)
            self._users.add(nxt)
            nxt.succeed(nxt)


class Store:
    """Unbounded FIFO queue of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the
    next item, preserving both item order and getter order.
    """

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._items: deque = deque()
        self._getters: deque = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest waiting getter, if any."""
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered:  # cancelled getter
                continue
            getter.succeed(item)
            return
        self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next available item."""
        ev = Event(self.env)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def cancel(self, get_event: Event) -> None:
        """Abandon a pending ``get`` (e.g. when its process is interrupted).

        The event is removed from the waiter queue and left untriggered;
        items will no longer be routed to it.
        """
        try:
            self._getters.remove(get_event)
        except ValueError:
            pass

    def peek_all(self) -> list:
        """Snapshot of queued items (for inspection in tests)."""
        return list(self._items)
