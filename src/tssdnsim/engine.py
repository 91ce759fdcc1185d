"""Deterministic discrete-event engine: integer-nanosecond clock and event queue.

All simulation time is integer nanoseconds; there is no floating-point time
anywhere, so two runs of the same configuration replay bit-identically.

`Simulator.trace` is the one observation point of a run. It is None by
default, which costs one `is not None` check per event and per transmission.
A callable attached before `run_until` is called as `trace(kind, time_ns,
subject, detail)`:

- `("dispatch", fire_at, event, None)` just before each event's callback runs;
- `("tx", start_ns, port, frame)` when an `EgressPort` starts serializing a
  frame; `port.tx_busy_until` then holds the transmission's end.

A transmission over a link without propagation delay costs one dispatch:
`EgressPort._on_tx_done`, which delivers the frame to the far end and then
frees the port. A link with propagation delay adds a separate delivery event,
`EgressPort._deliver`, scheduled when the transmission starts.

The hook only observes: it must not schedule events or change model state.
It sees every dispatch, so a traced run simulates every cycle.

`Simulator.boundary` is the other attachment, and the engine knows it only as
an object with `first_stop(now)` and `stop(b, t_end)`. Without a trace hook,
`run_until` stops at each of its stops b before t_end, with every event before
b dispatched and none at or after it; the boundary returns the next stop and
may skip whole cycles of the model there (see `fastforward.py`). For that the
engine normalises and moves its own state, the pending events: `ff_state` and
`ff_shift`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Optional

Trace = Callable[[str, int, object, object], None]

NS_PER_S = 1_000_000_000

_new = object.__new__


def serialization_ns(wire_bytes: int, rate_bps: int) -> int:
    """How long `wire_bytes` take to serialize at `rate_bps`, rounded down."""
    return wire_bytes * 8 * NS_PER_S // rate_bps


class SimulationError(Exception):
    """A model bug or fatal configuration error (e.g. scheduling in the past)."""


class Event:
    """A pending callback, made by `Simulator.schedule`, which sets every slot."""

    __slots__ = ("fire_at", "seq", "callback", "label", "cancelled")

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """Single-threaded event loop. Equal-time events dispatch in insertion order."""

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._heap: list[tuple[int, int, Event]] = []
        self.trace: Optional[Trace] = None
        # what run_until stops at: a `fastforward.SteadyState`, attached by
        # `scenario.build_network`
        self.boundary = None

    def now(self) -> int:
        return self._now

    def schedule(self, fire_at: int, callback: Callable[[], None], label: str = "") -> Event:
        if fire_at < self._now:
            raise SimulationError(
                f"scheduling in the past: fire_at={fire_at} < now={self._now} "
                f"({label or getattr(callback, '__qualname__', callback)})"
            )
        seq = self._seq
        self._seq = seq + 1
        # no `__init__`: a class call runs one from C, in a frame of its own
        ev = _new(Event)
        ev.fire_at = fire_at
        ev.seq = seq
        ev.callback = callback
        ev.label = label
        ev.cancelled = False
        heappush(self._heap, (fire_at, seq, ev))
        return ev

    def schedule_in(self, delay: int, callback: Callable[[], None]) -> Event:
        return self.schedule(self._now + delay, callback)

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
            fire_at, _, ev = heappop(heap)
            if ev.cancelled:
                continue
            self._now = fire_at
            if trace is not None:
                trace("dispatch", fire_at, ev, None)
            ev.callback()

    # -- steady-state fast-forward (see fastforward.py) --------------------

    def pending_before(self, horizon: int) -> list[Event]:
        """The pending events that fire before `horizon`, in dispatch order."""
        return [ev for _, _, ev in sorted(entry for entry in self._heap if entry[0] < horizon)
                if not ev.cancelled]

    def ff_state(self, cx) -> tuple:
        """The pending events, normalised to the boundary `cx.start`.

        Those before the next boundary compare by time relative to this one
        and by owner and method, in dispatch order. Later ones compare as
        they are: none of them may fire, appear or go in a skipped cycle.
        """
        horizon = cx.start + cx.period
        near = cx.marks[self] = self.pending_before(horizon)
        far = sorted((fire_at, seq) for fire_at, seq, ev in self._heap
                     if fire_at >= horizon and not ev.cancelled)
        cx.first_far = far[0][0] if far else None
        return tuple((ev.fire_at - cx.start, cx.method(ev.callback)) for ev in near), tuple(far)

    def ff_shift(self, cx) -> None:
        """Move the events before the next boundary by the skipped cycles.

        Their seqs stay: each was scheduled in the last cycle, after every
        event beyond the boundary, as a full run's would have been."""
        for ev in cx.marks[self]:
            ev.fire_at += cx.shift_ns
        self._heap[:] = [(ev.fire_at, ev.seq, ev) for _, _, ev in self._heap if not ev.cancelled]
        heapify(self._heap)
