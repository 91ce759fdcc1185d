import random
from functools import partial

import pytest

from tssdnsim.engine import NS_PER_S, SimulationError, Simulator
from tssdnsim.frames import UdpDatagram, make_frame

from conftest import Recorder, mac, wire, wire_size

US = 1_000
MS = 1_000_000


def serialization_ns(wire_bytes, rate_bps):
    """How long `wire_bytes` take to serialize at `rate_bps`, rounded down:
    the reference for a port's transmission times."""
    return wire_bytes * 8 * NS_PER_S // rate_bps


def test_equal_time_events_dispatch_in_insertion_order():
    sim = Simulator()
    order = []
    sim.schedule(5 * US, lambda: order.append("A"))
    sim.schedule(5 * US, lambda: order.append("B"))
    sim.run_until(1 * MS)
    assert order == ["A", "B"]


def test_event_at_now_runs_before_later_events():
    sim = Simulator()
    order = []
    sim.schedule(10, lambda: order.append("later"))
    sim.schedule(0, lambda: order.append("now"))
    sim.run_until(100)
    assert order == ["now", "later"]


def test_scheduling_in_the_past_is_fatal():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run_until(10)
    with pytest.raises(SimulationError):
        sim.schedule(9, lambda: None)


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    seen = []
    sim.trace = lambda *report: seen.append(report)
    sim.run_until(1 * MS)
    assert sim.now() == 1 * MS
    assert seen == []


def test_single_event_dispatched_exactly_once():
    sim = Simulator()
    hits = []
    sim.schedule(500 * US, lambda: hits.append(sim.now()))
    sim.run_until(1 * MS)
    sim.run_until(2 * MS)
    assert hits == [500 * US]


def test_random_schedules_match_sorted_list_oracle():
    rng = random.Random(7)
    for _ in range(50):
        sim = Simulator()
        times = [rng.randrange(0, 1000) for _ in range(200)]
        fired = []
        for i, t in enumerate(times):
            sim.schedule(t, lambda i=i: fired.append(i))
        sim.run_until(1000)
        # oracle: stable sort by fire time preserves insertion order on ties
        expected = [i for i, _ in sorted(enumerate(times), key=lambda p: p[1])]
        assert fired == expected


def test_identical_runs_produce_identical_dispatch_logs():
    def build():
        sim = Simulator()
        log = []
        # each callback names the event it was scheduled as
        sim.trace = lambda kind, time_ns, entry, _: log.append((kind, time_ns, entry[1],
                                                                entry[2].args))
        rng = random.Random(42)
        for i in range(300):
            sim.schedule(rng.randrange(0, 5000), partial(str, f"e{i}"))
        sim.run_until(5000)
        return log

    first = build()
    assert len(first) == 300
    assert first == build()


def test_serialization_arithmetic_64_bytes():
    # (64 + 20) bytes * 8 bits at 100 Mbit/s
    assert serialization_ns(84, 100_000_000) == 6_720


def test_serialization_arithmetic_max_frame():
    assert serialization_ns(1542, 100_000_000) == 123_360


@pytest.mark.parametrize("frame_bytes, rate_bps", [(64, 100_000_000), (1522, 100_000_000),
                                                   (333, 13_000_000), (150, 1_000_000_000)])
def test_a_port_serializes_a_frame_for_its_wire_size_at_the_link_rate(frame_bytes, rate_bps):
    sim = Simulator()
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    wire(sim, a, b, rate_bps=rate_bps)
    frame = make_frame(mac("02:00:00:00:00:01"), mac("02:00:00:00:00:02"),
                       UdpDatagram(0, 0, "a", "b"), frame_bytes)
    a.ports[0].enqueue(frame)
    assert a.ports[0].tx_busy_until == serialization_ns(wire_size(frame), rate_bps)
    sim.run_until(1 * MS)
    assert b.received == [(serialization_ns(wire_size(frame), rate_bps), 0, frame)]


def test_a_cancelled_timer_is_neither_dispatched_nor_traced():
    sim = Simulator()
    fired, traced = [], []
    sim.trace = lambda kind, time_ns, entry, _: traced.append((time_ns, entry[2]))
    keep = partial(fired.append, "kept")
    sim.schedule(10, keep)
    timer = sim.timer(10, partial(fired.append, "cancelled"))
    sim.schedule(20, keep)
    # a cancelled event is an entry whose callback is None
    assert (timer.fire_at, timer.entry[2] is None) == (10, False)
    timer.cancel()
    assert (timer.fire_at, timer.entry[2] is None) == (10, True)
    sim.run_until(100)
    assert fired == ["kept", "kept"]
    assert traced == [(10, keep), (20, keep)]
    assert sim._heap == []


def test_cancelling_a_timer_that_already_fired_changes_nothing():
    sim = Simulator()
    fired, traced = [], []
    sim.trace = lambda kind, time_ns, entry, _: traced.append((time_ns, entry[1]))
    timer = sim.timer(10, partial(fired.append, "timer"))
    sim.schedule(30, partial(fired.append, "later"))
    sim.run_until(20)
    assert fired == ["timer"]
    pending = [list(entry) for entry in sim._heap]
    timer.cancel()
    assert timer.fire_at == 10
    assert [list(entry) for entry in sim._heap] == pending
    sim.run_until(100)
    assert fired == ["timer", "later"]
    assert traced == [(10, 0), (30, 1)]


def test_a_busy_port_refuses_a_second_start_and_the_reverse_direction_is_free():
    sim = Simulator()
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    wire(sim, a, b)
    frame = make_frame(mac("02:00:00:00:00:01"), mac("02:00:00:00:00:02"),
                       UdpDatagram(0, 0, "a", "b"), 64)
    a.ports[0].enqueue(frame)
    port = a.ports[0]
    assert port.tx_busy_until == 6_720
    port.queues[0].append(frame)     # an untagged frame's queue
    with pytest.raises(SimulationError, match="overlapping transmission"):
        port._select(sim.now())
    # the reverse direction has its own port, so it starts at once (full duplex)
    b.ports[0].enqueue(frame)
    assert b.ports[0].tx_busy_until == 6_720
