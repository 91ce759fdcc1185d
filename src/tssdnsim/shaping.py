"""Egress port model: 8 priority FIFOs, credit-based shaping, transmission selection.

Credits are kept as integers scaled to nanobits (bit/s times ns), so the whole
shaper replays exactly. A frame in transmission is never preempted.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .engine import NS_PER_S, Event, SimulationError, Simulator
from .fastforward import fields
from .frames import WIRE_OVERHEAD_BYTES, EthernetFrame, frame_shifted, frame_state

NUM_QUEUES = 8
# a frame's serialization time is its wire bytes times this, over the port rate
_BYTE_NS = 8 * NS_PER_S
# the highest set bit of each backlog bitmask: its highest-priority class
_HIGHEST = [backlog.bit_length() - 1 for backlog in range(1 << NUM_QUEUES)]


class CreditState:
    """CBS state for one shaped class; credit is in nanobits (bits * ns/s).

    Its port settles every class's credit at the same time, `credits_at`,
    reads the credit in place for a snapshot, and counts each change of the
    idle slope in its `changes`."""

    __slots__ = ("idle_slope_bps", "credit")

    def __init__(self, idle_slope_bps: int, credit: int = 0) -> None:
        self.idle_slope_bps = idle_slope_bps
        self.credit = credit

    FF_FIELDS = fields(tracked="idle_slope_bps", normalised="credit")


class EgressPort:
    """One transmit direction of a link: it sends to port `peer_port` of
    node `peer`, which sees each frame `propagation_ns` after its last bit.

    A transmission sets `transmitting_pcp` and ends at `tx_busy_until`, where
    `_on_tx_done` clears it, so a port is idle exactly when it is None. A
    credit wakeup is pending only while the port is idle: it is scheduled
    when `_select` starts nothing, and `_select` cancels it first.

    The reservations change only in `add_reservation`, which `srp.admit` and
    `srp.release` both go through, and each call adds one to `changes`.
    """

    # `_backlog` is derived from the queues
    FF_FIELDS = fields(
        static="sim name peer peer_port rate_bps propagation_ns queue_capacity shaper_enabled "
               "_classes _tx_done _backlog",
        normalised="transmitting_pcp _wakeup max_depth changes",
        tracked="reserved_streams",
        shifted="queues shaped tx_busy_until credits_at _wire",
        counted="dropped_overflow reservations_rejected")

    def __init__(self, sim: Simulator, name: str, peer, peer_port: int, rate_bps: int,
                 propagation_ns: int, queue_capacity: int, shaper_enabled: bool) -> None:
        self.sim = sim
        self.name = name
        self.peer = peer
        self.peer_port = peer_port
        self.rate_bps = rate_bps
        self.propagation_ns = propagation_ns
        self.queue_capacity = queue_capacity
        self.shaper_enabled = shaper_enabled
        self.queues: list[deque] = [deque() for _ in range(NUM_QUEUES)]
        self._backlog = 0       # bit pcp set while queues[pcp] is not empty
        self.shaped: dict[int, CreditState] = {}
        # (pcp, its CreditState, its queue) per shaped class, in `shaped` order
        self._classes: tuple = ()
        self.reserved_streams: dict = {}    # stream id -> its advertise, by srp.admit
        self.tx_busy_until = 0
        self.credits_at = 0     # when every shaped class's credit was last settled
        self.transmitting_pcp: Optional[int] = None
        self._wakeup: Optional[Event] = None
        # the frames sent and not yet delivered, oldest first: the delay is
        # fixed, so they arrive in the order they were sent
        self._wire: deque = deque()
        # the bound method each transmission schedules, made once
        self._tx_done = self._on_tx_done
        # counters
        self.dropped_overflow = 0
        self.reservations_rejected = 0      # counted by srp.admit
        # a tuple, which a snapshot keeps as it is; rewritten at a new maximum
        self.max_depth = (0,) * NUM_QUEUES
        self.changes = 0                    # of the reservations

    # -- reservations -----------------------------------------------------

    def add_reservation(self, pcp: int, bps: int) -> None:
        """Raise the idle slope of a shaped class by `bps`, or lower it by a
        negative one when a reservation is released; called on SR-table changes."""
        now = self.sim._now
        self._update_credits(now)
        self.changes += 1
        if not self.shaper_enabled:
            return
        cs = self.shaped.get(pcp)
        if cs is None:
            cs = CreditState(idle_slope_bps=0)
            self.shaped[pcp] = cs
            self._classes += ((pcp, cs, self.queues[pcp]),)
        cs.idle_slope_bps += bps
        if self.transmitting_pcp is None:
            self._select(now)

    # -- queueing ---------------------------------------------------------

    def enqueue(self, frame: EthernetFrame) -> bool:
        """Append a frame to its priority queue; returns False on overflow drop."""
        vlan = frame.vlan
        pcp = vlan.pcp if vlan is not None else 0
        q = self.queues[pcp]
        depth = len(q) + 1
        if depth > self.queue_capacity:
            self.dropped_overflow += 1
            return False
        if self.shaped:
            self._update_credits(self.sim._now)
        q.append(frame)
        self._backlog |= 1 << pcp
        max_depth = self.max_depth
        if depth > max_depth[pcp]:
            self.max_depth = (*max_depth[:pcp], depth, *max_depth[pcp + 1:])
        if self.transmitting_pcp is None:     # idle
            self._select(self.sim._now)
        return True

    # -- credit dynamics --------------------------------------------------

    def _update_credits(self, now: int) -> None:
        dt = now - self.credits_at
        if dt <= 0:
            if dt:
                raise SimulationError(f"port {self.name}: credit update in the past")
            return
        self.credits_at = now
        transmitting = self.transmitting_pcp
        for pcp, cs, queue in self._classes:
            if transmitting == pcp:
                # the send slope: idle slope minus the port rate
                cs.credit += (cs.idle_slope_bps - self.rate_bps) * dt
            elif queue:
                cs.credit += cs.idle_slope_bps * dt
            else:
                credit = cs.credit
                if credit < 0:
                    # replenish toward zero while the queue is empty
                    credit += cs.idle_slope_bps * dt
                    cs.credit = credit if credit < 0 else 0
                else:
                    cs.credit = 0

    # -- transmission selection -------------------------------------------

    def _select(self, now: int) -> None:
        """Pick the highest-priority eligible frame and start serializing it."""
        if now < self.tx_busy_until:
            # a model bug: this port alone drives its direction of the link
            raise SimulationError(f"port {self.name}: overlapping transmission")
        backlog = self._backlog
        shaped = self.shaped
        if shaped:
            # only a shaped port waits for credit
            if self._wakeup is not None:
                self._wakeup.cancel()
                self._wakeup = None
            if not backlog:
                return
            pcp = _HIGHEST[backlog]            # the highest-priority backlogged class
            while pcp in shaped and shaped[pcp].credit < 0:
                backlog ^= 1 << pcp            # blocked on credit: the next one down
                if not backlog:
                    self._schedule_wakeup(now)
                    return
                pcp = _HIGHEST[backlog]
        elif backlog:
            pcp = _HIGHEST[backlog]
        else:
            return
        q = self.queues[pcp]
        frame = q.popleft()
        if not q:
            self._backlog ^= 1 << pcp
        sim = self.sim
        # the frame's wire size, serialized at the port's rate, rounded down
        tx_end = now + (frame.frame_bytes + WIRE_OVERHEAD_BYTES) * _BYTE_NS // self.rate_bps
        self.transmitting_pcp = pcp
        self.tx_busy_until = tx_end
        self._wire.append(frame)
        if self.propagation_ns:
            sim.schedule(tx_end + self.propagation_ns, self._deliver)
        sim.schedule(tx_end, self._tx_done)
        if sim.trace is not None:
            sim.trace("tx", now, self, frame)

    def _deliver(self) -> None:
        """The frame at the head of the wire reaches the peer."""
        self.peer.handle_frame(self.peer_port, self._wire.popleft())

    def _on_tx_done(self) -> None:
        # Without propagation delay the peer sees the frame before the port
        # picks its next one: the order a delivery event scheduled at
        # transmit time would dispatch in.
        if not self.propagation_ns:
            self.peer.handle_frame(self.peer_port, self._wire.popleft())
        shaped = self.shaped
        if shaped:
            self._update_credits(self.sim._now)
            pcp = self.transmitting_pcp
            if pcp in shaped and not self.queues[pcp]:
                cs = shaped[pcp]
                if cs.credit > 0:
                    cs.credit = 0
        self.transmitting_pcp = None
        if self._backlog:       # no wakeup is pending: the port was busy
            self._select(self.sim._now)

    def _schedule_wakeup(self, now: int) -> None:
        """Idle port, every backlogged class blocked on credit: wake at first zero."""
        wake_at = None
        for _, cs, queue in self._classes:
            if queue and cs.credit < 0 and cs.idle_slope_bps > 0:
                dt = (-cs.credit + cs.idle_slope_bps - 1) // cs.idle_slope_bps
                t = now + dt
                if wake_at is None or t < wake_at:
                    wake_at = t
        if wake_at is not None:
            self._wakeup = self.sim.timer(wake_at, self._on_wakeup)

    def _on_wakeup(self) -> None:
        self._wakeup = None
        if self.transmitting_pcp is not None:
            return
        now = self.sim._now
        self._update_credits(now)
        self._select(now)

    # -- steady-state fast-forward (see fastforward.py) --------------------

    def ff_state(self, cx) -> tuple:
        """Each shaped class's credit, read in place, and when they were
        settled; then, unless the port is idle, the frames queued and on the
        wire and the time left of the transmission."""
        start = cx.start
        credits = (*[cs.credit for _, cs, _ in self._classes],
                   self.credits_at - start) if self._classes else ()
        if not (self._backlog or self._wire):
            # nothing queued and nothing on the wire, so nothing is sending
            return (credits,)
        return (credits,
                tuple([tuple([frame_state(frame, cx) for frame in q]) if q else ()
                       for q in (*self.queues, self._wire)]),
                # a transmission that ended by the boundary no longer matters
                max(self.tx_busy_until - start, 0))

    def ff_shift(self, cx) -> None:
        if self._backlog or self._wire:
            for q in (*self.queues, self._wire):
                if q:
                    moved = [frame_shifted(frame, cx) for frame in q]
                    q.clear()
                    q.extend(moved)
        self.credits_at += cx.shift_ns
        self.tx_busy_until += cx.shift_ns
