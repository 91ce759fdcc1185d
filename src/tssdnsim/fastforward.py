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
and, at b + P, the next stop, another one. No stop falls inside the candidate
and nothing is learned there: every way it resolves forgets the keys seen.
Only when the two are equal does the period from b + P on repeat the last
one, and so does every later period up to the first pending event beyond the
next one or the end of the run. Those k periods are skipped: the model's
times move by k*P and its counters grow by k times their change over the
last period. The latency records of the last period become the
template of one repeat block (`metrics.Repeat`), which stores their place
among the records, each one's seq step per period, k and P: copy j of a record
is j*P later and j steps on. A skip thus costs the same however many periods
it covers. The sink's readers walk a block's copies as arithmetic
progressions (`MetricsSink.progressions`); only `MetricsSink.rows` and
`write_frame_csv` expand a block. The outputs are byte-identical to a full run.

A candidate that starts idle takes no snapshot (`Idle`): when no live event
is pending before b + P, no callback can run until b + P, so the state there
is the state at b. At b + P the run checks that nothing was scheduled or
popped since b (`Simulator._seq` and the heap's length are unchanged) and
that no event is due before b + 2P. It then jumps to the last whole period
before the next event or the end of the run, and moves no state: no callback
runs in the jumped time, so the jump is exact by construction. Where the two
snapshots would have been equal it skips as they would, by the same number
of periods. It also skips where they would differ only by the times an idle
model holds, normalised to a different boundary in each: when a reserved
port last settled its credits, or a pending event that a model refers to. If a
condition fails, it backs off as a changed state does; a cancelled event
popped in the stretch changes the heap's length, so it backs off there too,
though the snapshots ignore cancelled events.

Each model class says how the fast-forward treats each of its fields, in a
class attribute `FF_FIELDS` built by `fields()`:

- static: fixed once the network is built, a cache whose value does not
  change what the model does next, or an index derived from compared fields
  (`SrTable._by_group`, `EgressPort._backlog`);
- normalised: compared as a value copy (`Cycle.snapshot`); an event it
  refers to compares by its time relative to b;
- shifted: holds times or sequence numbers; the class's `ff_state(cx)` returns
  its normalised form and `ff_shift(cx)` moves it by the skipped periods. An
  append-only log, such as the controller's trace, is compared by its
  length: a period that comes round appends nothing, so a skip moves none
  of it;
- counted: an integer that may grow; the skip adds k times its change over
  the last period, where it changed;
- tracked: changed only by a few methods of its class, the mutators, each
  of which adds one to the class's `changes`, a normalised int, when it
  changes the field (a port counts the idle slopes of its credit states).
  The snapshot compares the count and skips the contents. Within one run a
  count only grows, so an equal count at two boundaries means that no
  mutator ran between them, and the contents are the ones the earlier
  snapshot saw: the comparison is sound by construction, as long as nothing
  else writes the field. A call that changes nothing, such as a listener
  port the table already lists, leaves the count, so a run that makes it
  each period still repeats. This extends the rule for append-only logs,
  whose count is their length. The flow tables, the SR tables and the
  ports' reservations are tracked: only SRP and control messages change
  them, so a snapshot's cost does not grow with the rules and streams set
  up. The tests' reference snapshot copies the contents and checks that
  equal counts come with equal contents.

`Cycle.snapshot` copies a normalised value by the kind of its type, which a
table (`KINDS`) finds on the type's first sight and keeps:

- kept as they are: the immutable values, that is `int`, `bool`, `float`,
  `str`, `bytes`, `None`, `frozenset`, `Enum` members and tuples,
  `NamedTuple`s among them. A copied container keeps such an item without
  a call;
- copied: a dict as a dict of its values' copies, a list as a tuple of its
  items' copies, a set as a frozenset, an `Event` (a model's handle on a
  pending event) as the time of its entry relative to b (`Cycle.event`),
  and a record with `__slots__` and no `__dict__` as its type
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

What a snapshot reads is fixed when the network is built, and `SteadyState`
learns it then: each model's plan (`model_plans`: its bound `ff_state`, if it
has one, and a getter of its normalised fields), and the traffic sources, each
by the key its data frames carry and the flows its records are under. A
snapshot records each source's next seq on its `Cycle`, which normalises the
queued frames and the latency records whatever the order of the models. It
then runs the `ff_state`s and copies every model's normalised fields into one
flat list; the same plans read the same models at each boundary, so two such
lists compare field by field. Two sources that share a flow or a key cannot
be told apart, so every snapshot of such a network is refused.

A class without shifted fields may still define `ff_state`, to refuse the
snapshot by raising `NotPeriodic`. The pending events
are read and moved here alone, as the engine's heap entries `[fire_at, seq,
callback]` (None for a cancelled one): the key sorts and normalises the live
ones before b + H, a snapshot sorts the live heap once and splits it at
b + P, and a skip moves the ones before b + P in place, so a model's `Event`
handle on one sees its new time, and rebuilds the heap without the cancelled
ones (`SteadyState._pending` and `_skip`).

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

A skip covers whole periods, so the r = (t_end - b) mod P ns left after it
are simulated again, though the confirmed period held them. Aligning the
confirmation with the end of the run does not remove them: whatever boundary
confirms P, the run simulates the transient, the two periods that find and
confirm it, and r; a confirmation r ns later only moves those r ns before the
skip. Only a checkpoint taken r ns into the confirmed period, restored at the
end moved by whole periods, would skip r, and the model keeps none.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from heapq import heapify
from itertools import compress
from operator import attrgetter, itemgetter, ne
from typing import Callable, NamedTuple, Optional

from .engine import Event

FRAME_BYTES = itemgetter(4)     # of a frame: `EthernetFrame.frame_bytes`, by position
OWNER_ID = itemgetter(1)        # of a pending event in a key

STATIC = "static"
NORMALISED = "normalised"
SHIFTED = "shifted"
COUNTED = "counted"
TRACKED = "tracked"


def fields(static: str = "", normalised: str = "", shifted: str = "",
           counted: str = "", tracked: str = "") -> dict:
    """`FF_FIELDS` of a model class: field name -> kind, from space-separated names."""
    return {name: kind
            for kind, names in ((STATIC, static), (NORMALISED, normalised),
                                (SHIFTED, shifted), (COUNTED, counted),
                                (TRACKED, tracked))
            for name in names.split()}


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

    def __init__(self, start: int, period: int, prev: Optional["Cycle"]) -> None:
        self.start = start
        self.period = period
        self.prev = prev                  # the snapshot at start - period, if taken
        self.cycles = 0                   # k, set when skipping
        self.shift_ns = 0                 # k * period, set with k
        self.near: list = []              # live heap entries before start + period, sorted
        self.first_far: Optional[int] = None  # first pending event from start + period
        self.marks: dict = {}             # model -> what it keeps for its own shift
        self.seqs: dict = {}              # source key -> its next sequence number
        self.flows: dict = {}             # recorded flow name -> its source's key
        self.state = None
        self.counts: list = []

    # -- traffic sources ----------------------------------------------------

    def seq(self, key, seq: int) -> int:
        """A frame's seq relative to its source's next one."""
        base = self.seqs.get(key)
        if base is None:
            raise NotPeriodic(f"a frame from unregistered source {key}")
        return seq - base

    def seq_shift(self, key) -> int:
        """How far the seqs of source `key` move over the skipped cycles."""
        return self.cycles * (self.seqs[key] - self.prev.seqs[key])

    def flow_step(self, flow: str) -> int:
        """How far the seqs recorded as `flow` move per cycle."""
        key = self.flows.get(flow)
        if key is None:
            raise NotPeriodic(f"records of flow {flow} from no registered source")
        return self.seqs[key] - self.prev.seqs[key]

    # -- normalisation ------------------------------------------------------

    def event(self, event: Optional[Event]) -> Optional[int]:
        """An event a model refers to: its time relative to b, or None when it
        can no longer fire."""
        if event is None:
            return None
        fire_at, _, callback = event.entry
        if callback is None or fire_at < self.start:
            return None
        return fire_at - self.start

    def snapshot(self, plans: tuple) -> tuple:
        """The state of the models that `plans` reads (see `model_plans`):
        the result of each one's `ff_state`, then all of their normalised
        fields, frozen, in one list."""
        own, normalised = plans
        return [state(self) for state in own], \
            [value if (kind := KINDS[type(value)]) is None else kind(self, value)
             for model, get in normalised for value in get(model)]


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


KINDS = _Kinds()


def model_plans(models) -> tuple:
    """How `Cycle.snapshot` reads `models`: the bound `ff_state` of each one
    that has it, and (model, the getter of its normalised fields) of each
    one that has some. The models of a class share one getter."""
    getters = {}
    for cls in {type(model) for model in models}:
        names = [name for name, kind in cls.FF_FIELDS.items() if kind == NORMALISED]
        getters[cls] = _getter(names) if names else None
    return ([model.ff_state for model in models if hasattr(model, "ff_state")],
            [(model, get) for model in models if (get := getters[type(model)]) is not None])


class Idle(NamedTuple):
    """A candidate period that starts with no live event pending before its
    end. It takes no snapshot: what it keeps tells at the period's end that
    nothing was scheduled or dispatched since its start."""

    start: int
    seq: int            # `Simulator._seq` at the start
    pending: int        # the length of `Simulator._heap` at the start


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

    `models` lists every object the snapshot covers, in any order; the ones
    with `queues`, the egress ports, give the key its queued frame sizes.
    `sources` lists the traffic sources among them, each with the `key` its
    data frames carry and the `flows` its records are under, one per receiver.
    """

    def __init__(self, sim, period: int, models: list, sources: list = ()) -> None:
        self.sim = sim
        self.period = period
        self._models = models
        self._plans = model_plans(models)
        self._shifting = [m for m in models if SHIFTED in type(m).FF_FIELDS.values()]
        counted = [(m, name) for m in models
                   for name, kind in type(m).FF_FIELDS.items() if kind == COUNTED]
        # the model and the name of each counted field, one list each
        self._counted = [m for m, _ in counted], [name for _, name in counted]
        self._sources = sources
        self._flows: dict = {}      # recorded flow name -> its source's key
        self._refused: Optional[str] = None     # why no snapshot can tell them apart
        for source in sources:
            if source.key in self._flows.values() or self._flows.keys() & source.flows:
                self._refused = f"two sources share flow {', '.join(source.flows)}"
            self._flows.update(dict.fromkeys(source.flows, source.key))
        self._queues = [q for m in models for q in getattr(m, "queues", ())]
        self._indexed = list(enumerate(self._queues))   # (index, queue) per queue
        self._owners = frozenset(id(m) for m in models)
        self._seen: dict = {}        # hash of a boundary's key -> last boundary with it
        # the open candidate: (P, key hash, snapshot or `Idle` at its start)
        self._candidate: Optional[tuple] = None
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
            events, queued = self._key(b)
        except NotPeriodic as exc:
            return self._back_off(b, str(exc))
        key = hash((events, queued))
        if self._candidate is not None:     # it opened one period ago
            period, cand_key, cand = self._candidate
            self._candidate = None
            if key != cand_key:
                return self._back_off(b, f"the state changed over a {period} ns cycle")
            if type(cand) is Idle:
                return self._jump(cand, b, t_end)
            return self._compare(cand, b, t_end)
        last = self._seen.get(key)
        self._seen[key] = b
        if last is None:
            return b + self.period
        period = b - last
        # a live event pending before b + H is one before b + period
        cand = None if events else self._idle(b, period)
        if cand is None:
            cand = Cycle(b, period, None)
            try:
                self._snapshot(cand)
            except NotPeriodic as exc:
                return self._back_off(b, str(exc), exc.until)
        self._candidate = period, key, cand
        return b + period

    def _idle(self, b: int, period: int) -> Optional[Idle]:
        """A candidate period from b that needs no snapshot: no live event is
        pending before b + period. None if one is."""
        first = self._first_live()
        if first is not None and first < b + period:
            return None
        return Idle(b, self.sim._seq, len(self.sim._heap))

    def _first_live(self) -> Optional[int]:
        """When the first pending event that is not cancelled fires, if any."""
        return min([fire_at for fire_at, _, callback in self.sim._heap
                    if callback is not None], default=None)

    def _key(self, b: int) -> tuple:
        """What equal states at b share: the pending events before b + H, as
        `_events` normalises them, and the frame sizes in each non-empty
        queue, by its index."""
        horizon = b + self.period
        events = self._events(sorted([entry for entry in self.sim._heap
                                      if entry[0] < horizon and entry[2] is not None]), b)
        return events, tuple([(i, tuple(map(FRAME_BYTES, q)))
                              for i, q in compress(self._indexed, self._queues)])

    def _events(self, entries: list, b: int) -> tuple:
        """Live heap entries as pending events normalised to b: each one's
        time relative to b, and its owner's id and function.

        One pass builds them, with no Python function called per event. A
        callback that is not a method of a model, whose state the snapshot
        covers, fails it, and `_method` then names that callback."""
        owners = self._owners
        try:
            events = tuple([(fire_at - b, id(callback.__self__), callback.__func__)
                            for fire_at, _, callback in entries])
            if owners.issuperset(map(OWNER_ID, events)):
                return events
        except AttributeError:      # not a bound method
            pass
        return tuple([(fire_at - b, *_method(callback, owners))
                      for fire_at, _, callback in entries])

    def _pending(self, cx: Cycle) -> tuple:
        """The pending events at cx's boundary b: those before b + P as the
        key normalises events, in dispatch order, and the later ones as
        (fire_at, seq), since none of them may fire, appear or go in a
        skipped period. Keeps on cx the first ones, which a skip moves, and
        when the first later one fires."""
        b = cx.start
        live = sorted([entry for entry in self.sim._heap if entry[2] is not None])
        split = bisect_left(live, [b + cx.period])      # the first at or after b + P
        cx.near = live[:split]
        far = tuple([(fire_at, seq) for fire_at, seq, _ in live[split:]])
        cx.first_far = far[0][0] if far else None
        return self._events(cx.near, b), far

    def _snapshot(self, cx: Cycle) -> None:
        self.snapshots += 1
        if self._refused is not None:
            raise NotPeriodic(self._refused)
        cx.seqs = {source.key: source.seq for source in self._sources}
        cx.flows = self._flows
        cx.state = self._pending(cx), cx.snapshot(self._plans)
        cx.counts = list(map(getattr, *self._counted))

    def _compare(self, prev: Cycle, b: int, t_end: int) -> int:
        """At b, one candidate period after `prev`: skip if the state came round."""
        period = prev.period
        cx = Cycle(b, period, prev)
        try:
            self._snapshot(cx)
        except NotPeriodic as exc:
            return self._back_off(b, str(exc), exc.until)
        if cx.state != prev.state:
            return self._back_off(b, f"the state changed over a {period} ns cycle")
        return self._repeat(b, period, cx.first_far, t_end, cx)

    def _jump(self, idle: Idle, b: int, t_end: int) -> int:
        """At b, one candidate period after an idle start: if nothing was
        scheduled or dispatched since, and no event is due in the next period,
        skip to the last whole period before the next event or the end of the
        run. No callback runs in the skipped time, so no state moves."""
        period = b - idle.start
        sim = self.sim
        first = self._first_live()
        if sim._seq != idle.seq or len(sim._heap) != idle.pending \
                or (first is not None and first < b + period):
            return self._back_off(b, f"the state changed over a {period} ns cycle")
        return self._repeat(b, period, first, t_end, None)

    def _repeat(self, b: int, period: int, first_far: Optional[int], t_end: int,
                cx: Optional[Cycle]) -> int:
        """The period up to b came round: skip the later ones before the first
        pending event from b + period on, `first_far`, or the end of the run,
        and move the state by them unless the run jumped an idle stretch (`cx`
        None). Returns the next stop."""
        self._wait = 1
        self._forget()
        limit = t_end if first_far is None else min(t_end, first_far)
        cycles = (limit - b) // period
        if not cycles:
            # a far event is at least a period away, so only the end is nearer
            self.unused = period, b, t_end - b
            return b + self.period
        if cx is not None:
            self._skip(cx, cycles)
        self.cycles_skipped += cycles * (period // self.period)
        self.repeat = period
        self.unused = None
        return b + cycles * period

    def _forget(self) -> None:
        self._seen.clear()
        self._candidate = None

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
        cx.shift_ns = cycles * cx.period
        # in place, so that a model's handle on one sees its new time; their
        # seqs stay: each was scheduled in the last period, after every event
        # beyond the boundary, as a full run's would have been
        for entry in cx.near:
            entry[0] += cx.shift_ns
        heap = self.sim._heap
        heap[:] = [entry for entry in heap if entry[2] is not None]
        heapify(heap)
        for model in self._shifting:
            model.ff_shift(cx)
        models, names = self._counted
        now, before = cx.counts, cx.prev.counts
        for i in compress(range(len(now)), map(ne, now, before)):   # the counts that moved
            setattr(models[i], names[i], now[i] + cycles * (now[i] - before[i]))

    def summary(self) -> Skipped:
        reason = self.reason
        if self.sim.trace is not None:
            reason = "a trace hook sees every dispatch"
        return Skipped(self.cycles_skipped, self.period, self.snapshots, reason, self.repeat,
                       self.unused)
