import random

from tssdnsim.engine import Simulator
from tssdnsim.frames import (ArpKind, ArpMessage, BROADCAST, MacAddress, SrpKind,
                             SrpMessage, StreamData, StreamId, UdpDatagram,
                             VlanTag, make_frame)
from tssdnsim.switching import (Drop, FlowMatch, FlowTable, Output, SrTable, Switch,
                                ToController)

from conftest import Recorder, wire

US = 1_000
T = MacAddress.parse("02:00:00:00:00:01")
L = MacAddress.parse("02:00:00:00:00:02")
G = MacAddress.parse("91:E0:F0:00:00:01")
G2 = MacAddress.parse("91:E0:F0:00:00:02")
SID = StreamId(T, 1)
VLAN = VlanTag(2, 6)


def stream_frame(seq=0, group=G):
    return make_frame(T, group, StreamData(SID, seq, 0), 150, vlan=VLAN)


def advertise_frame(group=G, frame_bytes=150):
    msg = SrpMessage(SrpKind.TALKER_ADVERTISE, SID, group, VLAN, frame_bytes, 125 * US, "A")
    return make_frame(T, group, msg, 64)


def ready_frame(frame_bytes=150):
    msg = SrpMessage(SrpKind.LISTENER_READY, SID, G, VLAN, frame_bytes, 125 * US, "A")
    return make_frame(L, T, msg, 64)


class StubChannel:
    def __init__(self):
        self.packet_ins = []
        self.srp = []

    def packet_in(self, frame, in_port, reason):
        self.packet_ins.append((frame, in_port, reason))

    def forward_srp(self, frame, in_port):
        self.srp.append((frame, in_port))


def make_switch(sdn, n_ports=3, shaper_enabled=True):
    sim = Simulator()
    sw = Switch(sim, "sw", sdn=sdn)
    recorders = []
    for i in range(n_ports):
        rec = Recorder(sim, f"peer{i}")
        wire(sim, sw, rec, shaper_enabled=shaper_enabled)
        recorders.append(rec)
    sw.control = StubChannel()
    return sim, sw, recorders


# -- flow table semantics -------------------------------------------------


def table1_match():
    return FlowMatch(in_port=1, eth_dst=G, eth_src=T, vlan_vid=2, vlan_pcp=6)


def test_five_field_stream_match_hits():
    table = FlowTable()
    entry = table.install(table1_match(), 100, [Output([3])])
    assert table.lookup(stream_frame(), in_port=1) is entry


def test_in_port_mismatch_is_a_miss():
    table = FlowTable()
    table.install(table1_match(), 100, [Output([3])])
    assert table.lookup(stream_frame(), in_port=2) is None


def test_empty_table_misses_and_default_miss_action_is_drop():
    table = FlowTable()
    assert table.lookup(stream_frame(), in_port=1) is None
    assert isinstance(table.miss_action, Drop)


def test_wildcards_match_anything():
    table = FlowTable()
    entry = table.install(FlowMatch(), 1, [Output([0])])
    assert table.lookup(stream_frame(), 5) is entry
    arp = make_frame(T, BROADCAST, ArpMessage(ArpKind.REQUEST, "x"), 64)
    assert table.lookup(arp, 0) is entry


def test_vid_match_never_covers_untagged_frames():
    table = FlowTable()
    table.install(FlowMatch(vlan_vid=2), 1, [Output([0])])
    udp = make_frame(T, L, UdpDatagram(0, 0, "a", "b"), 1000)
    assert table.lookup(udp, 0) is None


def test_priority_ties_break_by_earliest_install():
    table = FlowTable()
    first = table.install(FlowMatch(eth_src=T), 5, [Output([1])])
    table.install(FlowMatch(eth_dst=G), 5, [Output([2])])
    assert table.lookup(stream_frame(), 0) is first


def test_reinstall_same_match_replaces_actions_keeps_order():
    table = FlowTable()
    entry = table.install(FlowMatch(eth_dst=G), 5, [Output([1])])
    table.install(FlowMatch(eth_src=T), 5, [Output([2])])
    table.install(FlowMatch(eth_dst=G), 5, [Output([1, 2])])
    assert table.lookup(stream_frame(), 0) is entry
    assert entry.actions == [Output([1, 2])]


def _random_match(rng, macs, ports):
    return FlowMatch(
        in_port=rng.choice(ports) if rng.random() < 0.5 else None,
        eth_dst=rng.choice(macs) if rng.random() < 0.5 else None,
        eth_src=rng.choice(macs) if rng.random() < 0.5 else None,
        vlan_vid=rng.randrange(4) if rng.random() < 0.5 else None,
        vlan_pcp=rng.randrange(8) if rng.random() < 0.5 else None,
    )


def _random_frame(rng, macs):
    vlan = VlanTag(rng.randrange(4), rng.randrange(8)) if rng.random() < 0.7 else None
    return make_frame(rng.choice(macs), rng.choice(macs),
                      UdpDatagram(0, 0, "a", "b"), 64, vlan=vlan)


def lookup_oracle(entries, frame, in_port):
    """Brute force: scan everything, keep max (priority, -install_seq)."""
    hits = [e for e in entries if e.match.covers(frame, in_port)]
    if not hits:
        return None
    return max(hits, key=lambda e: (e.priority, -e.install_seq))


def run_match_oracle_trials(cases, seed=11):
    rng = random.Random(seed)
    macs = [MacAddress(bytes([2, 0, 0, 0, 0, i])) for i in range(1, 6)]
    ports = list(range(4))
    done = 0
    while done < cases:
        table = FlowTable()
        for _ in range(rng.randrange(1, 51)):
            table.install(_random_match(rng, macs, ports), rng.randrange(8), [Output([0])])
        for _ in range(20):
            frame = _random_frame(rng, macs)
            in_port = rng.choice(ports)
            assert table.lookup(frame, in_port) is lookup_oracle(
                table.entries, frame, in_port)
            done += 1
    return done


def test_match_equals_linear_scan_oracle_randomized():
    assert run_match_oracle_trials(1000) >= 1000


# -- ingress pipeline -----------------------------------------------------


def test_filter_precedes_flow_table_lookup():
    sim, sw, _ = make_switch(sdn=True)
    sw.flow_table.install(table1_match(), 100, [Output([2])])
    sw.sr_table.register_talker(advertise_frame().payload, 1)
    sw.handle_frame(0, stream_frame())  # wrong ingress port
    assert sw.dropped_filter == 1
    assert sw.forwarded == 0
    assert sw.stream_miss == 0  # table never consulted


def test_multicast_output_set_enqueues_on_both_ports():
    sim, sw, recs = make_switch(sdn=True)
    sw.flow_table.install(FlowMatch(eth_dst=G), 100, [Output([1, 2])])
    sw.handle_frame(0, stream_frame())
    sim.run_until(1_000_000)
    assert len(recs[1].received) == 1
    assert len(recs[2].received) == 1
    assert sw.forwarded == 2


def test_miss_with_to_controller_sends_packet_in():
    sim, sw, _ = make_switch(sdn=True)
    sw.flow_table.miss_action = ToController()
    udp = make_frame(T, L, UdpDatagram(0, 0, "a", "b"), 1000)
    sw.handle_frame(0, udp)
    assert sw.control.packet_ins == [(udp, 0, "miss")]
    assert sw.to_controller_count == 1


def test_miss_with_drop_counts_stream_misses():
    sim, sw, _ = make_switch(sdn=True)
    sw.handle_frame(0, stream_frame())
    assert sw.dropped_miss == 1
    assert sw.stream_miss == 1


def test_srp_frames_bypass_flow_table_in_sdn_mode():
    sim, sw, _ = make_switch(sdn=True)
    frame = advertise_frame()
    sw.handle_frame(0, frame)
    assert sw.control.srp == [(frame, 0)]
    assert not sw.sr_table.streams  # nothing applied until the controller replies


# -- SR table -------------------------------------------------------------


def test_talker_advertise_records_port_and_broadcasts():
    sim, sw, recs = make_switch(sdn=False)
    sw.handle_frame(1, advertise_frame())
    sim.run_until(1_000_000)
    assert sw.sr_table.streams[SID].talker_port == 1
    assert sw.sr_table.lookup_group(G, 2) is sw.sr_table.streams[SID]
    assert len(recs[0].received) == 1 and len(recs[2].received) == 1
    assert recs[1].received == []


def test_duplicate_advertise_is_idempotent():
    sim, sw, recs = make_switch(sdn=False)
    sw.handle_frame(1, advertise_frame())
    sw.handle_frame(1, advertise_frame())
    sim.run_until(1_000_000)
    assert len(recs[0].received) == 1  # no duplicate broadcast storm


def test_listener_ready_adds_port_and_raises_idle_slope():
    sim, sw, recs = make_switch(sdn=False)
    sw.handle_frame(1, advertise_frame())
    sw.handle_frame(2, ready_frame())
    sim.run_until(1_000_000)
    assert sw.sr_table.streams[SID].listener_ports == [2]
    assert sw.ports[2].shaped[6].idle_slope_bps == 10_880_000
    # the ready is forwarded on the direct path toward the talker
    assert any(isinstance(f.payload, SrpMessage) for _, _, f in recs[1].received)


def test_a_changed_descriptor_swaps_the_listener_ports_reservation():
    # (150 + 20) bytes * 8 bits every 125 us reserve 10,880,000 bit/s; the
    # same stream re-advertised with 300-byte frames needs 20,480,000
    sim, sw, _ = make_switch(sdn=False)
    sw.handle_frame(1, advertise_frame())
    sw.handle_frame(2, ready_frame())
    assert sw.ports[2].shaped[6].idle_slope_bps == 10_880_000
    sw.handle_frame(1, advertise_frame(frame_bytes=300))
    sw.handle_frame(2, ready_frame(frame_bytes=300))
    sim.run_until(1_000_000)
    assert sw.ports[2].shaped[6].idle_slope_bps == 20_480_000
    assert sw.ports[2].total_reserved_bps == 20_480_000
    assert sw.ports[2].reservations_rejected == 0


def test_a_rejected_readmission_is_counted_and_reserves_nothing():
    logs = []
    sim, sw, _ = make_switch(sdn=False)
    sw.log = logs.append
    sw.handle_frame(1, advertise_frame())
    sw.handle_frame(2, ready_frame())
    # (1500 + 20) bytes * 8 bits every 125 us is 97,280,000 bit/s: over 75%
    sw.handle_frame(1, advertise_frame(frame_bytes=1500))
    port = sw.ports[2]
    assert port.reservations_rejected == 1
    assert (port.shaped[6].idle_slope_bps, port.total_reserved_bps) == (0, 0)
    assert logs == ["sw: reservation rejected on sw:2: would exceed 75% of "
                    "100000000 bit/s"]
    # a port that holds no reservation has none to release
    sw.handle_frame(1, advertise_frame())
    assert (port.shaped[6].idle_slope_bps, port.total_reserved_bps) == (10_880_000,
                                                                        10_880_000)


def test_listener_ready_for_unknown_stream_dropped_and_logged():
    logs = []
    sim = Simulator()
    sw = Switch(sim, "sw", sdn=False, log=logs.append)
    rec = Recorder(sim, "p0")
    wire(sim, sw, rec)
    sw.handle_frame(0, ready_frame())
    assert sw.sr_table.streams == {}
    assert any("unknown stream" in line for line in logs)


# -- TSN-only forwarding --------------------------------------------------


def test_tsn_mode_forwards_stream_via_sr_table():
    sim, sw, recs = make_switch(sdn=False)
    sw.handle_frame(1, advertise_frame())
    sw.handle_frame(2, ready_frame())
    sw.handle_frame(1, stream_frame())
    sim.run_until(1_000_000)
    data = [f for _, _, f in recs[2].received if isinstance(f.payload, StreamData)]
    assert len(data) == 1
    assert all(not isinstance(f.payload, StreamData) for _, _, f in recs[0].received)


def test_a_talker_readvertised_to_a_new_group_from_a_new_port_is_reindexed():
    sim, sw, recs = make_switch(sdn=False)
    sw.handle_frame(1, advertise_frame())
    sw.handle_frame(2, ready_frame())
    sw.handle_frame(0, advertise_frame(group=G2))
    rec = sw.sr_table.streams[SID]
    assert sw.sr_table.lookup_group(G2, 2) is rec
    assert sw.sr_table.lookup_group(G, 2) is None
    sw.handle_frame(0, stream_frame(group=G2))
    sim.run_until(1_000_000)
    data = {i: [f for _, _, f in r.received if isinstance(f.payload, StreamData)]
            for i, r in enumerate(recs)}
    # to the listener port alone: not dropped by the filter, not flooded
    assert (len(data[1]), len(data[2])) == (0, 1)
    assert sw.dropped_filter == 0


def test_register_talker_tells_a_changed_descriptor_from_a_moved_talker():
    table = SrTable()
    assert table.register_talker(advertise_frame().payload, 1) == "new"
    assert table.register_talker(advertise_frame().payload, 1) == "unchanged"
    assert table.register_talker(advertise_frame(frame_bytes=300).payload, 1) == "changed"
    assert table.register_talker(advertise_frame(frame_bytes=300).payload, 0) == "moved"
    assert table.streams[SID].talker_port == 0


def test_only_a_talker_on_a_new_port_is_logged_as_moved():
    sim, sw, _ = make_switch(sdn=False)
    logs = []
    sw.log = logs.append
    sw.handle_frame(1, advertise_frame())
    sw.handle_frame(1, advertise_frame(frame_bytes=300))
    assert logs == []
    sw.handle_frame(0, advertise_frame(frame_bytes=300))
    assert logs == [f"sw: stream {SID} talker moved: port 1 -> 0"]


def test_tsn_mode_learns_macs_and_floods_unknown():
    sim, sw, recs = make_switch(sdn=False)
    udp = make_frame(T, L, UdpDatagram(0, 0, "a", "b"), 1000)
    sw.handle_frame(0, udp)          # dst unknown: flood ports 1, 2
    sim.run_until(1_000_000)
    assert len(recs[1].received) == 1 and len(recs[2].received) == 1
    back = make_frame(L, T, UdpDatagram(0, 0, "b", "a"), 1000)
    sw.handle_frame(1, back)         # T was learned on port 0
    sim.run_until(2_000_000)
    assert len(recs[0].received) == 1
