"""Deterministic discrete-event engine: integer-nanosecond clock and event queue.

All simulation time is integer nanoseconds; there is no floating-point time
anywhere, so two runs of the same configuration replay bit-identically.

A pending event is a heap entry, the list `[fire_at, seq, callback]`, and
nothing more: the heap orders entries by time, then by the order they were
scheduled in. `schedule` pushes the entry and returns it. Cancelling sets its
callback to None, and the loop drops such an entry before the trace hook
and the callback could see it. Only `timer` hands out a handle that can
cancel (`Event`), for the three callbacks a model may call off: a port's credit
wakeup, a talker's listener-ready timeout and a UDP source's ARP retry.
This module and `fastforward.py` are the only ones that read entries.

`Simulator.trace` is the one observation point of a run. It is None by
default, which costs one `is not None` check per event and per transmission.
A callable attached before `run_until` is called as `trace(kind, time_ns,
subject, detail)`:

- `("dispatch", fire_at, entry, None)` just before each live event's callback
  runs; the entry still carries its seq and its callback;
- `("tx", start_ns, port, frame)` when an `EgressPort` starts serializing a
  frame; `port.tx_busy_until` then holds the transmission's end.

A transmission over a link without propagation delay costs one dispatch:
`EgressPort._on_tx_done`, which delivers the frame to the far end and then
frees the port. A link with propagation delay adds a separate delivery event,
`EgressPort._deliver`, scheduled when the transmission starts.

The hook only observes: it must not schedule events, change the entry it is
handed or change model state.
It sees every dispatch, so a traced run simulates every cycle.

`Simulator.boundary` is the other attachment, and the engine knows it only as
an object with `first_stop(now)` and `stop(b, t_end)`. Without a trace hook,
`run_until` stops at each of its stops b before t_end, with every event before
b dispatched and none at or after it; the boundary returns the next stop and
may skip whole cycles of the model there (see `fastforward.py`), reading and
moving the pending events itself.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional

Trace = Callable[[str, int, object, object], None]

NS_PER_S = 1_000_000_000

_new = object.__new__


class SimulationError(Exception):
    """A model bug or fatal configuration error (e.g. scheduling in the past)."""


class Event:
    """A handle that can cancel one pending event, made by `Simulator.timer`."""

    __slots__ = ("entry",)      # the event's heap entry

    @property
    def fire_at(self) -> int:
        return self.entry[0]

    def cancel(self) -> None:
        """Never dispatch the event; one that already fired is not affected."""
        self.entry[2] = None


class Simulator:
    """Single-threaded event loop. Equal-time events dispatch in insertion order."""

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._heap: list[list] = []     # entries [fire_at, seq, callback or None]
        self.trace: Optional[Trace] = None
        # what run_until stops at: a `fastforward.SteadyState`, attached by
        # `scenario.build_network`
        self.boundary = None

    def now(self) -> int:
        return self._now

    def schedule(self, fire_at: int, callback: Callable[[], None], label: str = "") -> list:
        """Dispatch `callback` at `fire_at`, and return its heap entry; `label`,
        if given, names it in the error for a time in the past."""
        if fire_at < self._now:
            raise SimulationError(
                f"scheduling in the past: fire_at={fire_at} < now={self._now} "
                f"({label or getattr(callback, '__qualname__', callback)})"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [fire_at, seq, callback]
        heappush(self._heap, entry)
        return entry

    def timer(self, fire_at: int, callback: Callable[[], None]) -> Event:
        """`schedule`, with a handle that can cancel the event."""
        # no `__init__`: a class call runs one from C, in a frame of its own
        handle = _new(Event)
        handle.entry = self.schedule(fire_at, callback)
        return handle

    def run_until(self, t_end: int) -> None:
        """Dispatch every event with fire_at <= t_end, then set the clock to t_end.

        With a boundary object attached and no trace hook, the loop stops at
        each of the boundary's stops before t_end, all earlier events
        dispatched; the boundary may skip whole cycles there.
        """
        boundary = self.boundary
        if boundary is not None and self.trace is None:
            stop = boundary.first_stop(self._now)
            while stop < t_end:
                self._dispatch(stop - 1)
                stop = boundary.stop(stop, t_end)
        self._dispatch(t_end)
        self._now = max(self._now, t_end)

    def _dispatch(self, last: int) -> None:
        """Dispatch every pending event with fire_at <= last, in order."""
        heap = self._heap
        trace = self.trace
        while heap and heap[0][0] <= last:
            fire_at, _, callback = entry = heappop(heap)
            if callback is None:        # cancelled
                continue
            self._now = fire_at
            if trace is not None:
                trace("dispatch", fire_at, entry, None)
            callback()
