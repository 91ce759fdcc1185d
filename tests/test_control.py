import pytest

from tssdnsim.cli import resolve_scenario
from tssdnsim.config import Section, load_config, parse_config
from tssdnsim.control import Controller
from tssdnsim.engine import SimulationError, Simulator
from tssdnsim.frames import (MacAddress, SrpKind, SrpMessage, StreamId, UdpDatagram,
                             VlanTag, make_frame)
from tssdnsim.metrics import MetricsSink
from tssdnsim.scenario import build_network
from tssdnsim.switching import Drop, Switch, ToController

from conftest import Recorder, wire, workloads

US = 1_000
MS = 1_000_000
A = MacAddress.parse("02:00:00:00:00:01")
B = MacAddress.parse("02:00:00:00:00:02")


def make_rig(one_way=25 * US, processing=25 * US, n_ports=2):
    sim = Simulator()
    sw = Switch(sim, "sw0", sdn=True, sink=MetricsSink())
    recs = []
    for i in range(n_ports):
        rec = Recorder(sim, f"h{i}")
        wire(sim, sw, rec)
        recs.append(rec)
    ctl = Controller(sim)
    ctl.attach_switch(sw, Section(one_way_delay=one_way, processing_delay=processing))
    ctl.start()
    return sim, sw, ctl, recs


def udp(src, dst, seq=0):
    return make_frame(src, dst, UdpDatagram(seq, 0, "a", "b"), 1000)


# -- bootstrap ------------------------------------------------------------


def test_bootstrap_rewrites_miss_action_after_one_round_trip():
    sim, sw, ctl, _ = make_rig()
    # hello at 0, controller done at 50 us, reply lands one way later
    sim.run_until(75 * US - 1)
    assert isinstance(sw.flow_table.miss_action, Drop)
    sim.run_until(75 * US)
    assert isinstance(sw.flow_table.miss_action, ToController)


def test_bootstrap_trace_prefix():
    sim, sw, ctl, _ = make_rig()
    sim.run_until(1 * MS)
    head = [(t.direction, t.kind, t.time_ns) for t in ctl.trace[:3]]
    assert head == [
        ("s2c", "Hello", 0),
        ("c2s", "FeaturesReply", 50 * US),
        ("c2s", "MissActionUpdate", 50 * US),
    ]


def test_start_with_no_switches_is_a_noop():
    sim = Simulator()
    ctl = Controller(sim)
    ctl.start()
    sim.run_until(1 * MS)
    assert ctl.trace == []


def test_channel_delay_arithmetic_scales_with_config():
    sim, sw, ctl, _ = make_rig(one_way=50 * US, processing=50 * US)
    sim.run_until(150 * US - 1)
    assert isinstance(sw.flow_table.miss_action, Drop)
    sim.run_until(150 * US)
    assert isinstance(sw.flow_table.miss_action, ToController)


def test_channel_is_fifo_per_direction():
    sim, sw, ctl, _ = make_rig()
    channel = ctl.channels["sw0"]
    from tssdnsim.control import MissActionUpdate

    def send_pair():
        channel.send_to_switch(MissActionUpdate(ToController()))
        channel.send_to_switch(MissActionUpdate(Drop()))

    sim.schedule(1 * MS, send_pair)  # after bootstrap has settled
    sim.run_until(2 * MS)
    # both land at the same instant; the later send must win
    assert isinstance(sw.flow_table.miss_action, Drop)


# -- SRP through the controller -------------------------------------------


def srp(kind, frame_bytes):
    """A Class A SRP frame of stream A#1: an advertise to its group, or a
    ready back to talker A."""
    group = MacAddress.parse("91:E0:F0:00:00:01")
    msg = SrpMessage(kind, StreamId(A, 1), group, VlanTag(2, 6), frame_bytes,
                     125 * US, "A")
    if kind is SrpKind.TALKER_ADVERTISE:
        return make_frame(A, group, msg, 64)
    return make_frame(B, A, msg, 64)


def test_a_second_advertise_through_the_controller_is_refused():
    # the controller's table holds the stream before the switch's does, so
    # it refuses the second advertise before handing it back
    sim, sw, ctl, _ = make_rig(n_ports=3)
    for at in (1 * MS, 2 * MS):
        sim.schedule(at, lambda: sw.handle_frame(1, srp(SrpKind.TALKER_ADVERTISE, 150)))
    with pytest.raises(SimulationError, match=f"stream {StreamId(A, 1)} advertised twice"):
        sim.run_until(3 * MS)
    assert sim.now() == 2 * MS + 50 * US
    assert [t.kind for t in ctl.trace if t.kind == "ForwardSrp"] == ["ForwardSrp"] * 3


def test_a_ready_through_the_controller_for_a_stream_never_advertised_is_refused():
    sim, sw, ctl, _ = make_rig(n_ports=3)
    sim.schedule(1 * MS, lambda: sw.handle_frame(2, srp(SrpKind.LISTENER_READY, 150)))
    with pytest.raises(SimulationError, match=f"stream {StreamId(A, 1)} was never advertised"):
        sim.run_until(2 * MS)
    assert ctl.sr_tables["sw0"].streams == sw.sr_table.streams == {}


# -- reactive forwarding --------------------------------------------------


def test_unknown_unicast_is_flooded_without_pinning_a_rule():
    sim, sw, ctl, recs = make_rig()
    sim.schedule(1 * MS, lambda: sw.handle_frame(0, udp(A, B)))
    sim.run_until(2 * MS)
    assert len(recs[1].received) == 1
    assert ctl.flow_installs == []


def test_known_unicast_installs_rule_then_packets_out():
    sim, sw, ctl, recs = make_rig()
    sim.schedule(1 * MS, lambda: sw.handle_frame(0, udp(A, B)))      # learns A@0
    sim.schedule(2 * MS, lambda: sw.handle_frame(1, udp(B, A, 1)))   # dst now known
    sim.run_until(3 * MS)
    assert len(ctl.flow_installs) == 1
    install = ctl.flow_installs[0]
    assert install.priority == 10
    assert install.match.eth_dst == A
    assert install.time_ns == 2 * MS + 75 * US
    assert len(recs[0].received) == 1


def test_installed_rule_short_circuits_the_controller():
    sim, sw, ctl, recs = make_rig()
    sim.schedule(1 * MS, lambda: sw.handle_frame(0, udp(A, B)))
    sim.schedule(2 * MS, lambda: sw.handle_frame(1, udp(B, A, 1)))
    sim.schedule(3 * MS, lambda: sw.handle_frame(1, udp(B, A, 2)))
    sim.run_until(4 * MS)
    packet_ins = [t for t in ctl.trace if t.kind == "PacketIn"]
    assert len(packet_ins) == 2
    assert len(recs[0].received) == 2


# -- the shipped SDN scenario ---------------------------------------------


def c2s(trace, switch):
    return [t for t in trace if t.direction == "c2s" and t.switch == switch]


def test_both_switches_bootstrap_long_before_traffic(sdn_result):
    for switch in ("switch0", "switch1"):
        updates = [t for t in c2s(sdn_result.control_trace, switch)
                   if t.kind == "MissActionUpdate"]
        assert updates and updates[0].time_ns < sdn_result.config.idle_setup


def test_controller_handles_srp_before_any_switch_applies_it(sdn_result):
    for switch in ("switch0", "switch1"):
        entries = [t for t in sdn_result.control_trace if t.switch == switch
                   and t.kind == "ForwardSrp"]
        assert entries[0].direction == "s2c"
        assert entries[1].direction == "c2s"
        assert entries[0].time_ns < entries[1].time_ns


def test_stream_rule_precedes_listener_ready_on_each_channel(sdn_result):
    # the FlowMod rides the same FIFO channel just ahead of the ready reply,
    # so the rule is in place before the talker can learn of the listener
    for switch in ("switch0", "switch1"):
        down = c2s(sdn_result.control_trace, switch)
        kinds = [t.kind for t in down]
        i = kinds.index("FlowMod")
        assert down[i + 1].kind == "ForwardSrp"
        assert down[i].time_ns == down[i + 1].time_ns


def test_one_stream_rule_per_switch_installed_before_first_frame(sdn_result):
    stream_installs = [f for f in sdn_result.flow_installs if f.priority == 100]
    assert sorted(f.switch for f in stream_installs) == ["switch0", "switch1"]
    assert max(f.time_ns for f in stream_installs) < sdn_result.stream_start_ns


@pytest.mark.parametrize("cfg", [
    load_config(resolve_scenario("case_study_sdn")),
    parse_config(workloads.line_scenario(8)),
], ids=["case_study_sdn", "line8"])
def test_controller_and_switches_end_with_the_same_sr_tables(cfg):
    net = build_network(cfg)
    net.sim.run_until(cfg.run_until)
    for name, switch in net.switches.items():
        assert switch.sr_table.streams
        assert net.controller.sr_tables[name].streams == switch.sr_table.streams


def test_no_packet_in_after_reactive_rules_converge(sdn_result):
    last_reactive = max(f.time_ns for f in sdn_result.flow_installs
                        if f.priority == 10)
    packet_ins = [t.time_ns for t in sdn_result.control_trace
                  if t.kind == "PacketIn"]
    assert packet_ins and max(packet_ins) <= last_reactive
