import random

import pytest

from tssdnsim.config import parse_config
from tssdnsim.engine import NS_PER_S, Simulator
from tssdnsim.frames import (ArpKind, ArpMessage, BROADCAST, MIN_FRAME_BYTES, MacAddress,
                             StreamData, StreamId, UdpDatagram, VlanTag,
                             WIRE_OVERHEAD_BYTES, make_frame)
from tssdnsim.network import Node
from tssdnsim.scenario import build_network

from conftest import Recorder, wire, wire_size, workloads
from test_fastforward import _shipped

US = 1_000
SRC = MacAddress.parse("02:00:00:00:00:01")
DST = MacAddress.parse("02:00:00:00:00:02")
GROUP = MacAddress.parse("91:E0:F0:00:00:01")
SID = StreamId(SRC, 1)


def make_rig(shaper_enabled=True, capacity=100):
    sim = Simulator()
    sender, receiver = Node(sim, "tx"), Recorder(sim, "rx")
    wire(sim, sender, receiver, queue_capacity=capacity, shaper_enabled=shaper_enabled)
    return sim, sender.ports[0], receiver


def stream_frame(seq=0, frame_bytes=64, pcp=6):
    return make_frame(SRC, GROUP, StreamData(SID, seq, 0), frame_bytes,
                      vlan=VlanTag(2, pcp))


def be_frame(seq=0, frame_bytes=64):
    return make_frame(SRC, DST, UdpDatagram(seq, 0, "a", "b"), frame_bytes)


@pytest.mark.parametrize("propagation_ns, dispatches", [(0, 2), (500, 4)])
def test_back_to_back_frames_arrive_after_serialization_plus_propagation(
        propagation_ns, dispatches):
    sim = Simulator()
    sender, receiver = Node(sim, "tx"), Recorder(sim, "rx")
    wire(sim, sender, receiver, propagation_ns=propagation_ns)
    port = sender.ports[0]
    seen = []
    sim.trace = lambda kind, *_: seen.append(kind)
    port.enqueue(be_frame(0))
    port.enqueue(be_frame(1))
    sim.run_until(100 * US)
    # 64-byte frames serialize in 6.72 us; the second starts when the first ends
    assert [t for t, _, _ in receiver.received] == [6_720 + propagation_ns,
                                                   2 * 6_720 + propagation_ns]
    assert [frame for _, _, frame in receiver.received] == [be_frame(0), be_frame(1)]
    assert port.tx_busy_until == 2 * 6_720
    # one tx-done per frame, plus a delivery event per frame on a delayed link
    assert seen.count("dispatch") == dispatches


def test_transmitting_one_frame_costs_send_slope_times_serialization():
    sim, port, _ = make_rig()
    port.add_reservation(6, 75_000_000)
    port.enqueue(stream_frame())  # credit 0 -> eligible, transmits 6.72 us
    sim.run_until(6_720)
    cs = port.shaped[6]
    # -25 Mbit/s * 6.72 us = -168 bits, then queue is empty and credit < 0
    assert cs.credit == -168 * NS_PER_S


def test_negative_credit_replenishes_to_zero_and_frame_goes():
    sim, port, rx = make_rig()
    port.add_reservation(6, 75_000_000)
    port.enqueue(stream_frame(0))
    port.enqueue(stream_frame(1))
    # frame 0 done at 6720 with credit -168 bits; -168 + 75 Mbit/s * 2.24 us = 0
    sim.run_until(6_720 + 2_240 - 1)
    assert len(rx.received) == 1
    sim.run_until(6_720 + 2_240 + 6_720)
    assert len(rx.received) == 2
    assert rx.received[1][0] == 6_720 + 2_240 + 6_720


def test_queue_empty_with_positive_credit_resets_to_zero():
    sim, port, _ = make_rig()
    port.add_reservation(6, 75_000_000)
    port.enqueue(be_frame(frame_bytes=1522))      # blocks the port for 123.36 us
    sim.run_until(1_000)
    port.enqueue(stream_frame())                  # waits, accruing idle slope
    sim.run_until(123_360 + 6_720)
    cs = port.shaped[6]
    # accrued 75 Mbit/s * 122.36 us = 9177 bits, spent 168; queue empty -> reset
    assert cs.credit == 0


def test_a_class_idle_at_zero_credit_is_not_credited_for_its_idle_gap():
    # idle since its reservation at 0; a best-effort frame holds the port from
    # 50 us, and the stream frame waits from 51 us. Only that wait accrues
    # idle slope: the update at each enqueue moves the port's credit clock on
    sim, port, _ = make_rig()
    port.add_reservation(6, 75_000_000)
    sim.run_until(50 * US)
    port.enqueue(be_frame(frame_bytes=1522))      # until 50 us + 123.36 us
    sim.run_until(51 * US)
    port.enqueue(stream_frame())
    sim.run_until(173_360)
    cs = port.shaped[6]
    assert port.transmitting_pcp == 6
    assert port.credits_at == 173_360
    assert cs.credit == 75_000_000 * (173_360 - 51 * US)


def test_a_class_idle_at_zero_credit_pays_only_for_its_own_transmission():
    # enqueued on an idle port after 50 us idle: it enters transmission at
    # once, and its tx-done charges the send slope over 6.72 us, not since 0
    sim, port, _ = make_rig()
    port.add_reservation(6, 75_000_000)
    sim.run_until(50 * US)
    port.enqueue(stream_frame())
    sim.run_until(50 * US + 6_720)
    assert port.shaped[6].credit == -168 * NS_PER_S


def test_strict_priority_higher_pcp_first():
    sim, port, rx = make_rig(shaper_enabled=False)
    port.enqueue(be_frame(frame_bytes=64))        # starts transmitting
    port.enqueue(be_frame(seq=1, frame_bytes=64))
    port.enqueue(stream_frame(seq=2))             # pcp 6 beats waiting pcp 0
    sim.run_until(50_000)
    kinds = [type(f.payload).__name__ for _, _, f in rx.received]
    assert kinds == ["UdpDatagram", "StreamData", "UdpDatagram"]


def test_negative_credit_lets_best_effort_through():
    sim, port, rx = make_rig()
    port.add_reservation(6, 75_000_000)
    port.enqueue(stream_frame(0))
    sim.run_until(6_720)                          # credit now -168 bits
    port.enqueue(stream_frame(1))
    port.enqueue(be_frame(seq=9))
    sim.run_until(6_720 + 6_720)
    assert isinstance(rx.received[1][2].payload, UdpDatagram)


def test_zero_credit_shaped_class_beats_best_effort():
    sim, port, rx = make_rig()
    port.add_reservation(6, 75_000_000)
    port.enqueue(stream_frame(0))
    port.enqueue(be_frame(seq=9))
    sim.run_until(20_000)
    assert isinstance(rx.received[0][2].payload, StreamData)


def test_no_preemption_stream_waits_full_residual():
    sim, port, rx = make_rig()
    port.add_reservation(6, 75_000_000)
    sim.schedule(0, lambda: port.enqueue(be_frame(frame_bytes=1522)))
    sim.schedule(1, lambda: port.enqueue(stream_frame()))
    sim.run_until(300_000)
    # best-effort frame occupies the wire for its full 123.36 us
    stream_arrivals = [t for t, _, f in rx.received if isinstance(f.payload, StreamData)]
    assert stream_arrivals == [123_360 + 6_720]


def test_untagged_frames_use_queue_zero():
    sim, port, _ = make_rig()
    arp = make_frame(SRC, BROADCAST, ArpMessage(ArpKind.REQUEST, "x"), 64)
    port.enqueue(be_frame())
    port.enqueue(arp)
    assert len(port.queues[0]) == 1  # second frame queued behind the transmitting one


def test_queue_overflow_drops_and_counts():
    sim, port, _ = make_rig(capacity=2)
    port.enqueue(be_frame(0, 1522))
    port.enqueue(be_frame(1, 1522))
    port.enqueue(be_frame(2, 1522))   # queue holds 2 waiting: frame 0 transmits
    assert port.enqueue(be_frame(3, 1522)) is False
    assert port.dropped_overflow == 1


class TxTrace:
    """Trace hook keeping (start, pcp, wire bits) of every transmission on one port."""

    def __init__(self, sim, port):
        self.port = port
        self.tx = []
        sim.trace = self

    def __call__(self, kind, time_ns, subject, detail):
        if kind == "tx" and subject is self.port:
            pcp = detail.vlan.pcp if detail.vlan is not None else 0
            self.tx.append((time_ns, pcp, wire_size(detail) * 8))


def _shaped_bits_in_window(tx_trace, start, end):
    return sum(bits for t, pcp, bits in tx_trace.tx if pcp == 6 and start <= t < end)


def test_cbs_conservation_on_randomized_saturating_patterns():
    # criterion: over a steady window >= 10 intervals, shaped bits stay below
    # idle_slope * window + one max frame; 100 randomized patterns
    rng = random.Random(2024)
    for trial in range(100):
        idle_slope = rng.randrange(10, 70) * 1_000_000
        interval = rng.randrange(100, 300) * US
        sim, port, _ = make_rig()
        tx_trace = TxTrace(sim, port)
        port.add_reservation(6, idle_slope)
        max_bytes = 0
        t = 0
        seq = 0
        # saturating shaped arrivals (offered load > idle slope) in random bursts
        while t < 100 * interval:
            burst = rng.randrange(1, 4)
            for _ in range(burst):
                size = rng.randrange(64, 1522)
                max_bytes = max(max_bytes, size)
                sim.schedule(t, lambda s=seq, b=size: port.enqueue(stream_frame(s, b)))
                seq += 1
            t += rng.randrange(1, interval // 2)
        sim.run_until(100 * interval)
        window_start = 20 * interval   # past warmup
        window_end = 90 * interval
        window = window_end - window_start
        sent = _shaped_bits_in_window(tx_trace, window_start, window_end)
        bound = idle_slope * window // NS_PER_S + wire_size(stream_frame(0, max_bytes)) * 8
        assert sent <= bound, f"trial {trial}: {sent} bits > bound {bound}"
        # with saturating input the shaper should also be close to its budget
        assert sent >= idle_slope * window // NS_PER_S // 2


def test_credit_nonpositive_after_queue_drains_on_random_patterns():
    rng = random.Random(99)
    for _ in range(100):
        idle_slope = rng.randrange(20, 70) * 1_000_000
        sim, port, _ = make_rig()
        port.add_reservation(6, idle_slope)
        t = 0
        for seq in range(rng.randrange(2, 20)):
            sim.schedule(t, lambda s=seq: port.enqueue(stream_frame(s)))
            t += rng.randrange(1, 20_000)
        sim.run_until(t + 10_000_000)  # long enough for full drain + replenish
        cs = port.shaped[6]
        port._update_credits(sim.now())
        assert all(not q for q in port.queues)
        assert cs.credit == 0


# -- 802.1Qav credit bounds on whole scenarios ------------------------------

def _largest_frames(cfg, pcp):
    """(the largest frame of class `pcp`, the largest frame below it) that
    the scenario sends anywhere, in bytes; SRP and ARP frames are untagged."""
    ours, lower = 0, MIN_FRAME_BYTES
    sources = [(cfg.talker.vlan.pcp, cfg.talker.frame_bytes)]
    if cfg.cross_traffic is not None:
        vlan = cfg.cross_traffic.vlan
        sources.append((vlan.pcp if vlan is not None else 0, cfg.cross_traffic.frame_bytes))
    for source_pcp, frame_bytes in sources:
        if source_pcp == pcp:
            ours = max(ours, frame_bytes)
        elif source_pcp < pcp:
            lower = max(lower, frame_bytes)
    return ours, lower


@pytest.mark.parametrize("raw, span", [
    (_shipped("case_study_sdn"), (-1_212_032_000_000, 881_280_000_000)),
    (_shipped("case_study_nosdn"), (-1_212_032_000_000, 739_840_000_000)),
    (workloads.line_scenario(8), (-1_212_032_000_000, 881_280_000_000)),
    # the class carries the 1,200-byte overload, and its credit reaches loCredit
    (_shipped("fault_injection", shaper_enabled=True), (-8_698_112_000_000, 10_240_000)),
], ids=["case_study_sdn", "case_study_nosdn", "line8", "fault_injection-shaped"])
def test_the_credit_stays_within_the_802_1qav_bounds(raw, span):
    # loCredit = -(largest class frame + 20 B) * 8 * (rate - idleSlope) * 1e9 / rate
    # hiCredit = (largest lower-priority frame + 20 B) * 8 * idleSlope * 1e9 / rate,
    # in nanobits; compared multiplied through by the rate, in integers
    cfg = parse_config(dict(raw, run_until="300ms"))
    net = build_network(cfg)
    ports = [port for node in (*net.hosts.values(), *net.switches.values())
             for port in node.ports]
    largest = {pcp: _largest_frames(cfg, pcp) for pcp in range(8)}
    seen = [None, None]     # lowest and highest credit, in nanobits
    checks = 0

    def check(*_):
        nonlocal checks
        for port in ports:
            rate = port.rate_bps
            for pcp, cs in port.shaped.items():
                ours, lower = largest[pcp]
                idle, credit = cs.idle_slope_bps, cs.credit
                lo = -(ours + WIRE_OVERHEAD_BYTES) * 8 * (rate - idle) * NS_PER_S
                hi = (lower + WIRE_OVERHEAD_BYTES) * 8 * idle * NS_PER_S
                assert lo <= credit * rate <= hi, \
                    f"{port.name} class {pcp}: credit {credit} at {net.sim.now()} ns"
                checks += 1
                if seen[0] is None or credit < seen[0]:
                    seen[0] = credit
                if seen[1] is None or credit > seen[1]:
                    seen[1] = credit

    net.sim.trace = check
    net.sim.run_until(cfg.run_until)
    check()
    assert checks
    assert tuple(seen) == span
