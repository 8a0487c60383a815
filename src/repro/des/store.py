"""FIFO item stores -- the DES equivalent of a work queue."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.des.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.simulator import Simulator


class Store:
    """An unbounded (or bounded) FIFO store of items.

    ``put(item)`` returns an event that fires when the item has been
    accepted; ``get()`` returns an event that fires with the next item.
    Used to model dynamic work distribution (e.g. the Terrain Masking
    threads pulling "next unprocessed threat" from a shared queue).
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None,
                 name: str = "store"):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: list[object] = []
        self._getters: list[Event] = []
        self._putters: list[tuple[Event, object]] = []

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: object) -> Event:
        ev = Event(self.sim)
        if self._getters:
            self._getters.pop(0).succeed(item)
            ev.succeed(None)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.pop(0))
            if self._putters:
                pev, pitem = self._putters.pop(0)
                self._items.append(pitem)
                pev.succeed(None)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, object]:
        """Non-blocking get: (True, item) or (False, None)."""
        if self._items:
            item = self._items.pop(0)
            if self._putters:
                pev, pitem = self._putters.pop(0)
                self._items.append(pitem)
                pev.succeed(None)
            return True, item
        return False, None
