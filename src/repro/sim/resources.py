"""Shared-resource primitives for the simulation core.

Provides the queuing abstractions the hardware and OS models are built on:

* :class:`Resource` — a counted server with FIFO queueing (e.g. a DMA
  engine, a bus grant).
* :class:`PriorityResource` — FIFO within priority classes (e.g. the PCI
  arbiter favouring the NIC over programmed I/O).
* :class:`PreemptiveResource` — priority plus preemption of the running
  user (the CPU model: interrupts preempt user code).
* :class:`Store` — a producer/consumer buffer of Python objects (e.g. NIC
  descriptor rings, socket receive queues).

Requests are events; processes ``yield`` them.  Request objects are
context managers so ``with resource.request() as req: yield req`` releases
automatically.

A request on a resource with a free slot and an empty wait queue is
granted at construction and comes back already processed, scheduling no
event: the process that yields it goes on at once, at the same simulated
instant.  A contended request queues, and the release that frees its
slot grants it through a scheduled event; the release itself schedules
none.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional

from .core import Environment, Event, SimulationError

__all__ = [
    "Request",
    "PriorityRequest",
    "Release",
    "Preempted",
    "Resource",
    "PriorityResource",
    "PreemptiveResource",
    "Store",
    "StorePut",
    "StoreGet",
]


class Preempted:
    """Cause object delivered with the Interrupt when a request is preempted."""

    __slots__ = ("by", "usage_since", "resource")

    def __init__(self, by: "PriorityRequest", usage_since: float, resource: "Resource"):
        #: The request that preempted us.
        self.by = by
        #: Simulation time at which the preempted request acquired the resource.
        self.usage_since = usage_since
        #: The resource involved.
        self.resource = resource

    def __repr__(self) -> str:
        return f"<Preempted by={self.by!r} since={self.usage_since}>"


class Request(Event):
    """A request to use a :class:`Resource` (also a context manager)."""

    __slots__ = ("resource", "usage_since")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        #: When the request was granted (None while queued).
        self.usage_since: Optional[float] = None
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if self.resource is not None:
            self.resource._do_release(self)

    def cancel(self) -> None:
        """Withdraw a still-queued request (no-op if already granted)."""
        self.resource._do_cancel(self)


class PriorityRequest(Request):
    """A request with priority (lower value = more important) and preempt flag."""

    __slots__ = ("priority", "preempt", "time", "key")

    def __init__(self, resource: "Resource", priority: int = 0, preempt: bool = False):
        self.priority = priority
        self.preempt = preempt
        self.time = resource.env.now
        # FIFO within the same priority; preempting requests beat
        # non-preempting ones of equal priority and time.
        self.key = (priority, self.time, not preempt)
        super().__init__(resource)


class Release(Event):
    """A release, applied at construction and already processed.

    Nothing waits on a release, so it schedules no event: a process
    that yields one resumes at once, at the same simulated instant.
    """

    __slots__ = ("request",)

    def __init__(self, resource: "Resource", request: Request):
        self.env = resource.env
        self.callbacks = None
        self._value = request
        self._ok = True
        self._defused = False
        self.request = request
        resource._do_release(request)


class Resource:
    """A counted, FIFO-queued resource.

    A request that finds a free slot and nobody waiting is granted
    inline (see the module docstring); a subclass whose holders must
    resume through the event queue sets :attr:`inline_grant` to False.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity:
        Number of concurrent users (>= 1).
    """

    #: grant an uncontended request at construction, with no event
    inline_grant = True

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users: List[Request] = []
        self.queue: List[Request] = []

    # -- public API -----------------------------------------------------
    def request(self) -> Request:
        """Queue a request; the returned event triggers when granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Release a granted request (or cancel a queued one)."""
        return Release(self, request)

    @property
    def count(self) -> int:
        """Number of current users."""
        return len(self.users)

    # -- mechanics -------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if self.inline_grant and not self.queue and len(self.users) < self.capacity:
            self._grant_inline(request)
        else:
            self._enqueue(request)

    def _enqueue(self, request: Request) -> None:
        self.queue.append(request)
        self._trigger_queued()

    def _do_release(self, request: Request) -> None:
        try:
            self.users.remove(request)
        except ValueError:
            # Never granted; drop from the wait queue instead.
            self._do_cancel(request)
            return
        self._trigger_queued()

    def _do_cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _grant(self, request: Request) -> None:
        self.users.append(request)
        request.usage_since = self.env.now
        request.succeed(self)

    def _grant_inline(self, request: Request) -> None:
        """Grant ``request`` now, already processed, as :class:`Release` is."""
        self.users.append(request)
        request.usage_since = self.env._now
        request._value = self
        request.callbacks = None

    def _trigger_queued(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            request = self.queue.pop(0)
            if request.triggered:  # cancelled/failed while queued
                continue
            self._grant(request)


class PriorityResource(Resource):
    """A resource whose wait queue is ordered by request priority."""

    def request(self, priority: int = 0, preempt: bool = False) -> PriorityRequest:  # type: ignore[override]
        """Queue a prioritized request (lower = more important)."""
        return PriorityRequest(self, priority=priority, preempt=preempt)

    def _enqueue(self, request: Request) -> None:
        assert isinstance(request, PriorityRequest)
        self.queue.append(request)
        self.queue.sort(key=lambda r: r.key)
        self._trigger_queued()


class PreemptiveResource(PriorityResource):
    """A priority resource where preempting requests evict lower-priority users.

    When a request with ``preempt=True`` arrives and all slots are taken,
    the user with the *worst* key is compared against the new request; if
    strictly less important it is interrupted (its owning process receives
    an :class:`~repro.sim.core.Interrupt` whose cause is a
    :class:`Preempted` record) and the slot is handed over.

    This models the CPU: a hardware interrupt (priority 0, preempt) evicts
    user-mode computation (priority 10).
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        super().__init__(env, capacity, name)
        self._owners: dict = {}  # request -> process to interrupt on preemption

    def request(self, priority: int = 0, preempt: bool = True) -> PriorityRequest:  # type: ignore[override]
        """Request that may evict a lower-priority holder."""
        env = self.env
        req = PriorityRequest.__new__(PriorityRequest)
        req.priority = priority
        req.preempt = preempt
        req.time = env._now
        req.key = (priority, req.time, not preempt)
        Event.__init__(req, env)
        req.resource = self
        req.usage_since = None
        self._owners[req] = env._active_proc
        self._do_request(req)
        return req

    def _do_request(self, request: Request) -> None:
        assert isinstance(request, PriorityRequest)
        if request.preempt and len(self.users) >= self.capacity:
            self._maybe_preempt(request)
        super()._do_request(request)

    def _maybe_preempt(self, request: PriorityRequest) -> None:
        victims = [u for u in self.users if isinstance(u, PriorityRequest)]
        if not victims:
            return
        victim = max(victims, key=lambda r: r.key)
        if victim.key > request.key:
            owner = self._owners.get(victim)
            self.users.remove(victim)
            self._owners.pop(victim, None)
            if owner is not None and owner.is_alive:
                owner.interrupt(Preempted(request, victim.usage_since, self))

    def _do_release(self, request: Request) -> None:
        self._owners.pop(request, None)
        super()._do_release(request)


class StorePut(Event):
    """Put request on a :class:`Store`; triggers once the item is stored."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    """Get request on a :class:`Store`; triggers with the retrieved item."""

    __slots__ = ("filter", "_store")

    def __init__(self, store: "Store", filter=None):
        super().__init__(store.env)
        self.filter = filter
        self._store = store
        store._get_queue.append(self)
        store._trigger()

    def cancel(self) -> None:
        """Withdraw the get request if not yet satisfied."""
        if not self.triggered:
            try:
                self._store._get_queue.remove(self)
            except ValueError:
                pass


class Store:
    """A FIFO buffer of items with optional capacity.

    ``put(item)`` blocks (as an event) while the store is full;
    ``get()`` blocks while it is empty.  ``get(filter=f)`` retrieves the
    first item matching predicate ``f`` (a *FilterStore* in SimPy terms),
    used e.g. for tag-matched message receive queues.
    """

    def __init__(self, env: Environment, capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: List[Any] = []
        self._put_queue: List[StorePut] = []
        self._get_queue: List[StoreGet] = []

    def put(self, item: Any) -> StorePut:
        """Event that triggers once the item is stored."""
        return StorePut(self, item)

    def put_nowait(self, item: Any) -> None:
        """Store ``item`` now, scheduling no event of its own.

        Getters wake exactly as for :meth:`put`.  For callers that never
        wait on the put and have checked for room; a full store raises
        :class:`~repro.sim.core.SimulationError`.
        """
        if len(self.items) >= self.capacity:
            raise SimulationError(f"store {self.name!r} is full")
        self.items.append(item)
        self._trigger()

    def get(self, filter=None) -> StoreGet:
        """Event that triggers with the next (or first matching) item."""
        return StoreGet(self, filter)

    def try_get(self) -> Any:
        """Non-blocking get: pop and return the head item or ``None``."""
        if self.items:
            item = self.items.pop(0)
            self._trigger()
            return item
        return None

    def __len__(self) -> int:
        return len(self.items)

    # -- mechanics -------------------------------------------------------
    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Satisfy puts while there is room.
            while self._put_queue and len(self.items) < self.capacity:
                put = self._put_queue.pop(0)
                if put.triggered:
                    continue
                self.items.append(put.item)
                put.succeed()
                progressed = True
            # Satisfy gets while items match.
            idx = 0
            while idx < len(self._get_queue):
                get = self._get_queue[idx]
                if get.triggered:
                    self._get_queue.pop(idx)
                    continue
                item_idx = self._find(get.filter)
                if item_idx is None:
                    idx += 1
                    continue
                item = self.items.pop(item_idx)
                self._get_queue.pop(idx)
                get.succeed(item)
                progressed = True

    def _find(self, filter) -> Optional[int]:
        if filter is None:
            return 0 if self.items else None
        for i, item in enumerate(self.items):
            if filter(item):
                return i
        return None
