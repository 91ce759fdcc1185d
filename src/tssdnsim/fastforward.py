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
frames in each non-empty queue, by the queue's index. Equal states have equal
keys. When the key at b was last seen at a boundary a, P = b - a is a
candidate period: it takes a full snapshot of the model state normalised to b
and, at b + P, another one. Only when the two are equal does the period from
b + P on repeat the last one, and so does every later period up to the first
pending event beyond the next one or the end of the run. Those k periods are
skipped: the model's times move by k*P and its counters grow by k times their
change over the last period. The latency records of the last period become the
template of one repeat block (`metrics.Repeat`), which stores their place
among the records, each one's seq step per period, k and P: copy j of a record
is j*P later and j steps on. A skip thus costs the same however many periods
it covers. The sink's readers walk a block's copies as arithmetic
progressions (`MetricsSink.progressions`); only `MetricsSink.rows` and
`write_frame_csv` expand a block. The outputs are byte-identical to a full run.

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

`Cycle.freeze` copies a normalised value by the kind of its type, which a
table (`KINDS`) finds on the type's first sight and keeps:

- kept as they are: the immutable values, that is `int`, `bool`, `float`,
  `str`, `bytes`, `None`, `frozenset`, `Enum` members and tuples,
  `NamedTuple`s among them. A copied container keeps such an item without
  a call;
- copied: a dict as a dict of its values' copies, a list as a tuple of its
  items' copies, a set as a frozenset, an `Event` as its time relative to b
  (`Cycle.event`), and a record with `__slots__` and no `__dict__` as its type
  followed by the copy of each slot's value, the class's own slots first,
  then its bases'.
  Such a record may be assigned to, and most compare by identity, so a
  snapshot that held the record itself would change with it and match any
  later one. The type comes first because the actions without fields
  (`switching.Drop`, `switching.ToController`) have no slot to tell them
  apart;
- refused with a `TypeError` naming the type: any other type, such as a
  `deque`, a `bytearray` or an object with a `__dict__`. Kept as it is, such
  a value would be one live object in both snapshots, which would always
  compare equal, and a run would skip periods in which it changed.

`Cycle.state_of` reads a model through its class's plan (`PLANS`), built on
the class's first snapshot: the class's `ff_state` or None, and a getter of
its normalised fields. It runs `ff_state` first, since a host registers its
traffic sources there before anything is normalised against them, and then
copies the fields.

A class without shifted fields may still define `ff_state`, to register on the
cycle or to refuse the snapshot by raising `NotPeriodic`. The pending events
are the engine's: `Simulator.ff_state` and `Simulator.ff_shift`.

What is in flight is model state: a port's frames on the wire and a control
channel's messages are FIFOs, and their delivery events are model methods. No
model schedules a lambda, so only a tracer's wrapper is a pending callback
that a snapshot refuses. A delivery due at or after b + H is a far event,
compared as it is; when each cycle sends a frame over a link whose
propagation delay is at least H, each adds a new far event, no two snapshots
are equal and nothing is skipped.

A key or snapshot that cannot be normalised (a callback that is not a model
method, or a count-limited source still sending), or a candidate whose state
did not come round, forgets the keys seen and doubles the number of cycles
until the next boundary it stops at. A run that never settles thus pays for
about 2*log2(cycles) snapshots. The wait starts over after each skip. A
period confirmed with less than one period of the run left skips nothing, and
the fast-forward line names it (`Skipped.unused`).
"""

from __future__ import annotations

from enum import Enum
from itertools import compress
from operator import attrgetter, itemgetter
from typing import Callable, NamedTuple, Optional

from .engine import Event

FRAME_BYTES = attrgetter("frame_bytes")
OWNER_ID = itemgetter(1)        # of a pending event in a key

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
        kind = KINDS[type(value)]
        return value if kind is None else kind(self, value)

    def state_of(self, model) -> tuple:
        """A model object's normalised fields, frozen, and its own `ff_state`,
        which runs first: a host registers its sources there."""
        own_state, normalised = PLANS[type(model)]
        own = None if own_state is None else own_state(model, self)
        return tuple([value if (kind := KINDS[type(value)]) is None else kind(self, value)
                      for value in normalised(model)]), own


# -- the freeze table -------------------------------------------------------
#
# A kind is None for a value kept as it is, or a function (cx, value) that
# returns its copy. The copying functions look up the kind of each item
# themselves, so a kept item costs no call.

# immutable values besides tuples, `NamedTuple`s among them
_KEPT = (int, float, str, bytes, frozenset, tuple, Enum, type(None))


def _dict(cx: Cycle, value: dict) -> dict:
    return {key: item if (kind := KINDS[type(item)]) is None else kind(cx, item)
            for key, item in value.items()}


def _list(cx: Cycle, value: list) -> tuple:
    return tuple([item if (kind := KINDS[type(item)]) is None else kind(cx, item)
                  for item in value])


def _set(cx: Cycle, value: set) -> frozenset:
    return frozenset(value)


def _getter(names) -> Callable[[object], tuple]:
    """A function that returns the named attributes of an object as a tuple."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda obj: (get(obj),)
    return lambda obj: ()


def _record(cls: type):
    """The kind of a record with `__slots__` and no `__dict__`: its type, then
    the copy of each slot's value, its own slots first, then its bases'."""
    values = _getter([name for klass in cls.__mro__
                      for name in vars(klass).get("__slots__", ())])

    def record(cx: Cycle, value) -> tuple:
        return (cls, *[item if (kind := KINDS[type(item)]) is None else kind(cx, item)
                       for item in values(value)])
    return record


class _Kinds(dict):
    """type -> its kind, found on a type's first freeze."""

    def __missing__(self, cls: type):
        if issubclass(cls, dict):
            kind = _dict
        elif issubclass(cls, set):
            kind = _set
        elif issubclass(cls, list):
            kind = _list
        elif issubclass(cls, Event):
            kind = Cycle.event
        elif issubclass(cls, _KEPT):
            kind = None
        elif "__slots__" in vars(cls) and not cls.__dictoffset__:
            kind = _record(cls)
        else:
            # kept, it would be one live object in both snapshots
            raise TypeError(f"a snapshot cannot copy a {cls.__module__}.{cls.__qualname__}: "
                            "not a dict, list, set, immutable value or record with "
                            "__slots__")
        self[cls] = kind
        return kind


def plan(own_state, names) -> tuple:
    """How `Cycle.state_of` reads a model class: its `ff_state` or None, and a
    function that returns the values of its normalised fields `names`."""
    return own_state, _getter(names)


class _Plans(dict):
    """model class -> its plan, built on the class's first snapshot."""

    def __missing__(self, cls: type) -> tuple:
        self[cls] = found = plan(getattr(cls, "ff_state", None),
                                 [name for name, kind in cls.FF_FIELDS.items()
                                  if kind == NORMALISED])
        return found


KINDS = _Kinds()
PLANS = _Plans()


class Skipped(NamedTuple):
    """What the fast-forward did in one run; `cycles` counts hyperperiods."""

    cycles: int
    period_ns: Optional[int]
    snapshots: int = 0      # taken, normalisable or not
    reason: str = ""        # why no cycle was skipped
    repeat_ns: Optional[int] = None  # the period of the last skip
    # (period, ns confirmed at, ns left) of a period confirmed after the
    # last skip, if any, with less than one period left to skip
    unused: Optional[tuple] = None

    def line(self) -> str:
        if self.period_ns is None:
            return f"fast-forward: 0 cycles skipped ({self.reason})"
        if self.unused is not None:
            period, at, left = self.unused
            unused = (f"a {period} ns period confirmed at {at} ns, with {left} ns left, "
                      "less than one period")
        if not self.cycles:
            reason = self.reason if self.unused is None else unused
            return f"fast-forward: 0 cycles of {self.period_ns} ns skipped ({reason})"
        line = (f"fast-forward: {self.cycles} cycles of {self.period_ns} ns skipped, "
                f"{self.cycles * self.period_ns} ns of simulated time")
        if self.repeat_ns != self.period_ns:
            line += (f" (period {self.repeat_ns} ns = "
                     f"{self.repeat_ns // self.period_ns} cycles)")
        if self.unused is not None:
            line += f"; then {unused}"
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
        self._indexed = list(enumerate(self._queues))   # (index, queue) per queue
        self._owners = frozenset(id(m) for m in models)
        self._seen: dict = {}        # hash of a boundary's key -> last boundary with it
        self._candidates: dict = {}  # period P -> (key hash, snapshot at its start)
        self._wait = 1
        self.next_stop = period
        self.snapshots = 0
        self.cycles_skipped = 0
        self.repeat: Optional[int] = None
        self.unused: Optional[tuple] = None
        self.reason = "no state came round before the end of the run"

    def first_stop(self, now: int) -> int:
        """The first stop of a `run_until` call that starts at `now`."""
        self.unused = None              # the end it was short of is not this call's
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
        """What equal states at b share: the pending events before b + H, as
        their time relative to b and their owner's id and function, and the
        frame sizes in each non-empty queue, by its index.

        One pass builds the events, with no Python function called per
        event. A callback that is not a method of a model fails it, and
        `_method` then names that callback."""
        horizon = b + self.period
        near = sorted([entry for entry in self.sim._heap if entry[0] < horizon])
        owners = self._owners
        try:
            events = tuple([(fire_at - b, id((callback := ev.callback).__self__),
                             callback.__func__)
                            for fire_at, _, ev in near if not ev.cancelled])
            known = owners.issuperset(map(OWNER_ID, events))
        except AttributeError:      # not a bound method
            known = False
        if not known:
            events = tuple([(fire_at - b, *_method(ev.callback, owners))
                            for fire_at, _, ev in near if not ev.cancelled])
        return events, tuple([(i, tuple(map(FRAME_BYTES, q)))
                              for i, q in compress(self._indexed, self._queues)])

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
            # a far event is at least a period away, so only the end is nearer
            self.unused = period, b, t_end - b
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
        self.unused = None

    def summary(self) -> Skipped:
        reason = self.reason
        if self.sim.trace is not None:
            reason = "a trace hook sees every dispatch"
        return Skipped(self.cycles_skipped, self.period, self.snapshots, reason, self.repeat,
                       self.unused)
