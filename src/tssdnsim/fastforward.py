"""Exact steady-state fast-forward: skip whole periods once the network repeats.

The model is deterministic and integer, and its traffic sources are periodic,
so a settled network repeats itself with some period P, a multiple m*H of the
hyperperiod H, the least common multiple of the source intervals. A network
with slack repeats every H; an overloaded one may take longer to come round
(the shaperless overload of `fault_injection` repeats every 72 H). `SteadyState`
is the boundary object that `Simulator.run_until` stops at, at each multiple
of H, with every event before the boundary dispatched and none at or after it.

At each boundary b it builds a cheap key: the pending events before b + H, as
their time relative to b and their owner and method, and the sizes of the
frames queued at each port. Equal states have equal keys. When the key at b
was last seen at a boundary a, P = b - a is a candidate period: it takes a
full snapshot of the model state normalised to b and, at b + P, another one.
Only when the two are equal does the period from b + P on repeat the last
one, and so does every later period up to the first pending event beyond the
next one or the end of the run. Those k periods are skipped: the model's
times move by k*P and its counters grow by k times their change over the last
period. The latency records of the last period become the template of one
repeat block (`metrics.Repeat`), which stores their place among the records,
each one's seq step per period, k and P: copy j of a record is j*P later and
j steps on. A skip thus costs the same however many periods it covers, and
the sink's readers use the block without expanding it, except to write
`frames.csv`. The outputs are byte-identical to a full run.

Each model class says how the fast-forward treats each of its fields, in a
class attribute `FF_FIELDS` built by `fields()`:

- static: fixed once the network is built, or a cache whose value does not
  change what the model does next;
- normalised: compared as a value copy (`Cycle.freeze`); an event it refers
  to compares by its time relative to b;
- shifted: holds times or sequence numbers; the class's `ff_state(cx)` returns
  its normalised form and `ff_shift(cx)` moves it by the skipped periods;
- counted: an integer that may grow; the skip adds k times its change over
  the last period.

A class without shifted fields may still define `ff_state`, to register on the
cycle or to refuse the snapshot by raising `NotPeriodic`. The pending events
are the engine's: `Simulator.ff_state` and `Simulator.ff_shift`.

A key or snapshot that cannot be normalised (a pending lambda, such as a
control message in flight or a delivery over a link with propagation delay,
or a count-limited source still sending), or a candidate whose state did not
come round, forgets the keys seen and doubles the number of cycles until the
next boundary it stops at. A run that never settles thus pays for about
2*log2(cycles) snapshots. The wait starts over after each skip.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields, is_dataclass
from typing import NamedTuple, Optional

from .engine import Event

STATIC = "static"
NORMALISED = "normalised"
SHIFTED = "shifted"
COUNTED = "counted"


def fields(static: str = "", normalised: str = "", shifted: str = "",
           counted: str = "") -> dict:
    """`FF_FIELDS` of a model class: field name -> kind, from space-separated names."""
    return {name: kind
            for kind, names in ((STATIC, static), (NORMALISED, normalised),
                                (SHIFTED, shifted), (COUNTED, counted))
            for name in names.split()}


def _named(model, kind: str) -> tuple:
    return tuple(name for name, k in type(model).FF_FIELDS.items() if k == kind)


class NotPeriodic(Exception):
    """Model state that a snapshot cannot normalise at this boundary; `until`,
    when known, is a time before which no snapshot can be normalised."""

    def __init__(self, reason: str, until: Optional[int] = None) -> None:
        super().__init__(reason)
        self.until = until


def _method(callback, owners: frozenset) -> tuple:
    owner = getattr(callback, "__self__", None)
    if owner is None or id(owner) not in owners:
        name = getattr(callback, "__qualname__", repr(callback))
        raise NotPeriodic(f"pending {name} is not a model method")
    return id(owner), callback.__func__


class Cycle:
    """One boundary b: what a snapshot is normalised against and a skip moves by."""

    def __init__(self, start: int, period: int, prev: Optional["Cycle"],
                 owners: frozenset) -> None:
        self.start = start
        self.period = period
        self.prev = prev                  # the snapshot at start - period, if taken
        self.cycles = 0                   # k, set when skipping
        self.first_far: Optional[int] = None  # first pending event from start + period
        self.marks: dict = {}             # model -> what it keeps for its own shift
        self._owners = owners             # ids of the objects whose methods may be pending
        self._seq_base: dict = {}         # source key -> its next sequence number
        self._flow_source: dict = {}      # recorded flow name -> source key
        self.state = None
        self.counts: list = []

    @property
    def shift_ns(self) -> int:
        return self.cycles * self.period

    # -- traffic sources ----------------------------------------------------

    def add_source(self, key, flow: str, next_seq: int) -> None:
        """A source whose frames carry `key`, whose records are `flow`, and
        that numbers its next frame `next_seq`."""
        if key in self._seq_base or flow in self._flow_source:
            raise NotPeriodic(f"two sources share flow {flow}")
        self._seq_base[key] = next_seq
        self._flow_source[flow] = key

    def seq(self, key, seq: int) -> int:
        """A frame's seq relative to its source's next one."""
        base = self._seq_base.get(key)
        if base is None:
            raise NotPeriodic(f"a frame from unregistered source {key}")
        return seq - base

    def seq_shift(self, key) -> int:
        """How far the seqs of source `key` move over the skipped cycles."""
        return self.cycles * (self._seq_base[key] - self.prev._seq_base[key])

    def flow_step(self, flow: str) -> int:
        """How far the seqs recorded as `flow` move per cycle."""
        key = self._flow_source.get(flow)
        if key is None or self.prev is None or key not in self.prev._seq_base:
            raise NotPeriodic(f"records of flow {flow} from no registered source")
        return self._seq_base[key] - self.prev._seq_base[key]

    # -- normalisation ------------------------------------------------------

    def event(self, event: Optional[Event]) -> Optional[int]:
        """An event a model refers to: its time relative to b, or None when it
        can no longer fire."""
        if event is None or event.cancelled or event.fire_at < self.start:
            return None
        return event.fire_at - self.start

    def method(self, callback) -> tuple:
        """A pending callback as its owner and function; it must be a method
        of a model object, whose state the snapshot covers."""
        return _method(callback, self._owners)

    def freeze(self, value):
        """A value copy of a normalised field, untouched by later changes to it."""
        if isinstance(value, dict):
            return {key: self.freeze(item) for key, item in value.items()}
        if isinstance(value, set):
            return frozenset(value)
        if isinstance(value, list):
            return tuple(self.freeze(item) for item in value)
        if isinstance(value, Event):
            return self.event(value)
        if is_dataclass(value) and not type(value).__dataclass_params__.frozen:
            return (type(value),) + tuple(self.freeze(getattr(value, f.name))
                                          for f in dataclass_fields(value))
        return value

    def state_of(self, model) -> tuple:
        """A model object's normalised fields, frozen, and its own `ff_state`."""
        own = model.ff_state(self) if hasattr(model, "ff_state") else None
        return tuple(self.freeze(getattr(model, name))
                     for name in _named(model, NORMALISED)), own


class Skipped(NamedTuple):
    """What the fast-forward did in one run; `cycles` counts hyperperiods."""

    cycles: int
    period_ns: Optional[int]
    snapshots: int = 0      # taken, normalisable or not
    reason: str = ""        # why no cycle was skipped
    repeat_ns: Optional[int] = None  # the period of the last skip

    def line(self) -> str:
        if self.period_ns is None:
            return f"fast-forward: 0 cycles skipped ({self.reason})"
        if not self.cycles:
            return f"fast-forward: 0 cycles of {self.period_ns} ns skipped ({self.reason})"
        line = (f"fast-forward: {self.cycles} cycles of {self.period_ns} ns skipped, "
                f"{self.cycles * self.period_ns} ns of simulated time")
        if self.repeat_ns != self.period_ns:
            line += (f" (period {self.repeat_ns} ns = "
                     f"{self.repeat_ns // self.period_ns} cycles)")
        return line


class SteadyState:
    """The boundary object `Simulator.run_until` stops at (see the module docstring).

    `models` lists every object the snapshot covers, in the order it is
    normalised: hosts first, since they register the traffic sources that
    queued frames and latency records are normalised against. The ones with
    `queues`, the egress ports, give the key its queued frame sizes.
    """

    def __init__(self, sim, period: int, models: list) -> None:
        self.sim = sim
        self.period = period
        self._models = models
        self._shifting = [m for m in models if SHIFTED in type(m).FF_FIELDS.values()]
        self._counted = [(m, name) for m in models for name in _named(m, COUNTED)]
        self._queues = [q for m in models for q in getattr(m, "queues", ())]
        self._owners = frozenset(id(m) for m in models)
        self._seen: dict = {}        # hash of a boundary's key -> last boundary with it
        self._candidates: dict = {}  # period P -> (key hash, snapshot at its start)
        self._wait = 1
        self.next_stop = period
        self.snapshots = 0
        self.cycles_skipped = 0
        self.repeat: Optional[int] = None
        self.reason = "no state came round before the end of the run"

    def first_stop(self, now: int) -> int:
        """The first stop of a `run_until` call that starts at `now`."""
        if self.next_stop <= now:       # an earlier call dispatched past it
            self.next_stop = (now // self.period + 1) * self.period
            self._forget()
        return self.next_stop

    def stop(self, b: int, t_end: int) -> int:
        """At boundary b, every event before it dispatched: learn its key,
        skip the periods a candidate repeats for, and return the next stop."""
        self.next_stop = self._stop(b, t_end)
        return self.next_stop

    def _stop(self, b: int, t_end: int) -> int:
        try:
            key = hash(self._key(b))
        except NotPeriodic as exc:
            return self._back_off(b, str(exc))
        for period, (cand_key, cand) in self._candidates.items():
            if cand.start + period == b:
                del self._candidates[period]
                if key != cand_key:
                    return self._back_off(b, f"the state changed over a {period} ns cycle")
                return self._compare(cand, b, t_end)
        last = self._seen.get(key)
        self._seen[key] = b
        if last is not None and b - last not in self._candidates:
            cx = Cycle(b, b - last, None, self._owners)
            try:
                self._snapshot(cx)
            except NotPeriodic as exc:
                return self._back_off(b, str(exc), exc.until)
            self._candidates[cx.period] = key, cx
        return b + self.period

    def _key(self, b: int) -> tuple:
        """What equal states at b share: the pending events before b + H,
        relative to b, and the frame sizes queued at each port."""
        owners = self._owners
        events = tuple((ev.fire_at - b, *_method(ev.callback, owners))
                       for ev in self.sim.pending_before(b + self.period))
        return events, tuple(tuple(frame.frame_bytes for frame in q) for q in self._queues)

    def _snapshot(self, cx: Cycle) -> None:
        self.snapshots += 1
        cx.state = (self.sim.ff_state(cx), [cx.state_of(m) for m in self._models])
        cx.counts = [getattr(m, name) for m, name in self._counted]

    def _compare(self, prev: Cycle, b: int, t_end: int) -> int:
        """At b, one candidate period after `prev`: skip if the state came round."""
        period = prev.period
        cx = Cycle(b, period, prev, self._owners)
        try:
            self._snapshot(cx)
        except NotPeriodic as exc:
            return self._back_off(b, str(exc), exc.until)
        if cx.state != prev.state:
            return self._back_off(b, f"the state changed over a {period} ns cycle")
        self._wait = 1
        self._forget()
        limit = t_end if cx.first_far is None else min(t_end, cx.first_far)
        cycles = (limit - b) // period
        if not cycles:
            return b + self.period
        self._skip(cx, cycles)
        return b + cycles * period

    def _forget(self) -> None:
        self._seen.clear()
        self._candidates.clear()

    def _back_off(self, b: int, reason: str, until: Optional[int] = None) -> int:
        self.reason = reason
        self._forget()
        self._wait *= 2
        stop = b + self._wait * self.period
        if until is not None:
            stop = max(stop, (until // self.period + 1) * self.period)
        return stop

    def _skip(self, cx: Cycle, cycles: int) -> None:
        cx.cycles = cycles
        self.sim.ff_shift(cx)
        for model in self._shifting:
            model.ff_shift(cx)
        for (model, name), now, before in zip(self._counted, cx.counts, cx.prev.counts):
            setattr(model, name, now + cycles * (now - before))
        self.cycles_skipped += cycles * (cx.period // self.period)
        self.repeat = cx.period

    def summary(self) -> Skipped:
        reason = self.reason
        if self.sim.trace is not None:
            reason = "a trace hook sees every dispatch"
        return Skipped(self.cycles_skipped, self.period, self.snapshots, reason, self.repeat)
