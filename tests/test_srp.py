import pytest
import yaml

from tssdnsim.cli import resolve_scenario
from tssdnsim.config import ConfigError, load_config, parse_config, paths
from tssdnsim.engine import Simulator
from tssdnsim.frames import MacAddress, SrpKind, SrpMessage, StreamId, VlanTag
from tssdnsim.hosts import Talker
from tssdnsim.network import Node
from tssdnsim.scenario import build_network
from tssdnsim.srp import CLASS_A, admit, analytic_guarantee, reserved_bps

from conftest import Recorder, wire, workloads
from test_fastforward import EQUIVALENCE_CASES

US = 1_000


def test_guarantee_three_ports_is_750us():
    assert analytic_guarantee(CLASS_A, 3) == 750 * US


def test_guarantee_single_hop():
    assert analytic_guarantee(CLASS_A, 1) == 250 * US


def test_guarantee_is_linear():
    assert analytic_guarantee(CLASS_A, 5) == 1250 * US


def test_reserved_bps_counts_wire_overhead():
    # (150 + 20) bytes * 8 bits every 125 us
    assert reserved_bps(150, 125 * US) == 10_880_000


def test_reservation_rounds_up_to_cover_the_stream_rate():
    # (150 + 20) bytes * 8 bits every 130 us is 10,461,538.46 bit/s; a
    # reservation rounded down would let the Class A credit drift for ever
    bits_per_s = (150 + 20) * 8 * 1_000_000_000
    reserved = reserved_bps(150, 130 * US)
    assert reserved * 130 * US >= bits_per_s
    assert (reserved - 1) * 130 * US < bits_per_s


def _fresh_port(rate_bps=100_000_000):
    sim = Simulator()
    sender, receiver = Node(sim, "a"), Recorder(sim, "b")
    wire(sim, sender, receiver, rate_bps=rate_bps)
    return sender.ports[0]


def _advertise(frame_bytes, interval_ns):
    """A Class A talker advertise, the descriptor `admit` reserves for."""
    return SrpMessage(SrpKind.TALKER_ADVERTISE,
                      StreamId(MacAddress.parse("02:00:00:00:00:01"), 1),
                      MacAddress.parse("91:E0:F0:00:00:01"), VlanTag(2, CLASS_A.pcp),
                      frame_bytes, interval_ns, CLASS_A.name)


def _reservation(bps_target_mbit):
    # 125 us interval: frame_bytes such that reserved_bps = target
    frame_bytes = bps_target_mbit * 1_000_000 * 125 * US // (8 * 1_000_000_000) - 20
    return _advertise(frame_bytes, 125 * US)


def _reserved(advertise):
    return reserved_bps(advertise.max_frame_bytes, advertise.interval_ns)


def test_admit_empty_port():
    port = _fresh_port()
    res = _reservation(10)
    assert admit(port, res) is None
    assert port.reserved_streams == {res.stream_id: res}
    assert port.shaped[CLASS_A.pcp].idle_slope_bps == _reserved(res)


def test_admit_rejects_beyond_fraction():
    port = _fresh_port()
    assert admit(port, _reservation(70)) is None
    reason = admit(port, _reservation(10))
    assert reason is not None
    assert "75%" in reason


def test_admit_accepts_a_reservation_exactly_at_the_limit():
    # 900000 bit/s is exactly 750 per mille of 1.2 Mbit/s: the limit admits
    # it, and a second one is past it
    port = _fresh_port(rate_bps=1_200_000)
    res = _advertise(205, 2_000 * US)
    assert _reserved(res) == 900_000
    assert admit(port, res) is None
    assert admit(port, res) is not None


def test_admit_monotone_in_reservation_size():
    # rejected at level r stays rejected at every larger level
    port = _fresh_port()
    assert admit(port, _reservation(70)) is None
    for mbit in (10, 20, 40, 60):
        assert admit(port, _reservation(mbit)) is not None
        assert list(port.reserved_streams.values()) == [_reservation(70)]


def _one_switch(links):
    """Two clients on one switch, `c0` talking to `c1`, with `links`."""
    return {"sdn_enabled": False, "run_until": "10ms", "clients": ["c0", "c1"],
            "switches": ["sw"], "links": links,
            "talker": {"node": "c0", "dst_group": "91:E0:F0:00:00:01", "vid": 2},
            "listeners": [{"node": "c1"}]}


def test_scheduled_ports_case_study_path():
    # client0 NIC, switch0 egress, switch1 egress
    cfg = load_config(resolve_scenario("case_study_sdn"))
    assert paths(cfg) == (("client0", "switch0", "switch1", "client1"),)


def test_scheduled_ports_same_switch():
    cfg = parse_config(_one_switch([{"a": "c0", "b": "sw"}, {"a": "sw", "b": "c1"}]))
    assert paths(cfg) == (("c0", "sw", "c1"),)


def test_scheduled_ports_no_path():
    # the loader refuses a network with no path to a node, listener or not
    with pytest.raises(ConfigError, match="topology graph is not connected"):
        parse_config(_one_switch([{"a": "c0", "b": "sw"}]))


# -- the SR tables against the static paths -----------------------------

def _in_plane(raw, sdn):
    """Scenario data in the SDN plane or the TSN-only one: without SDN the
    controller's channel settings are dropped."""
    raw = dict(raw, sdn_enabled=sdn)
    if not sdn:
        raw.pop("control", None)
    return raw


def _run(raw, until=None):
    """The network of a scenario, run to `until` or its own `run_until`."""
    cfg = parse_config(dict(raw, **({"run_until": until} if until else {})))
    net = build_network(cfg)
    net.sim.run_until(cfg.run_until)
    return cfg, net


def _ready(net):
    """Whether the talker has received a listener ready."""
    talker, = (s for s in net.sources if isinstance(s, Talker))
    return talker.lr_arrival_ns is not None


def _sr_table_faults(net, listener_paths, complete=True):
    """What the SR tables of a run list that the paths do not name. A switch
    on a path must list the port toward the node before it as the talker port
    and the ports toward the nodes after it as listener ports; a switch on no
    path, no listener port. `complete` false allows listener ports not yet
    listed, as on a run whose readies are still on their way. In SDN mode the
    controller's copy of each table is held to the same."""
    named = {}      # switch -> (talker port, listener ports)
    for path in listener_paths:
        for before, node, after in zip(path, path[1:], path[2:]):
            port_to = {port.peer.name: i for i, port in enumerate(net.switches[node].ports)}
            named.setdefault(node, (port_to.get(before), set()))[1].add(port_to.get(after))
    faults = []
    for name, switch in net.switches.items():
        tables = [("switch", switch.sr_table)]
        if net.controller is not None:
            tables.append(("controller", net.controller.sr_tables[name]))
        talker_port, listener_ports = named.get(name, (None, set()))
        for owner, table in tables:
            if complete and name in named and not table.streams:
                faults.append(f"{owner} {name}: no stream")
            for stream, rec in table.streams.items():
                listed = set(rec.listener_ports)
                if name in named and rec.talker_port != talker_port:
                    faults.append(f"{owner} {name} {stream}: talker port "
                                  f"{rec.talker_port}, the paths name {talker_port}")
                if not (listed == listener_ports if complete else listed <= listener_ports):
                    faults.append(f"{owner} {name} {stream}: listener ports "
                                  f"{sorted(listed)}, the paths name {sorted(listener_ports)}")
    return faults


def _two_listeners():
    """`case_study_sdn` with a second listener, `client2`, on `switch0`."""
    raw = yaml.safe_load(resolve_scenario("case_study_sdn").read_text())
    raw["clients"].append("client2")
    raw["links"].append({"a": "switch0", "b": "client2"})
    raw["listeners"].append({"node": "client2"})
    return raw


ORACLE_CASES = [*[case[:3] for case in EQUIVALENCE_CASES],
                ("two-listeners", _two_listeners(), None)]


@pytest.mark.parametrize("sdn", [True, False], ids=["sdn", "nosdn"])
@pytest.mark.parametrize("raw, until", [case[1:] for case in ORACLE_CASES],
                         ids=[case[0] for case in ORACLE_CASES])
def test_the_sr_tables_list_the_ports_the_static_paths_name(raw, until, sdn):
    cfg, net = _run(_in_plane(raw, sdn), until)
    assert _ready(net)
    assert _sr_table_faults(net, paths(cfg)) == []


def test_switch0_lists_both_listener_ports_of_the_two_listener_tree():
    cfg, net = _run(_two_listeners())
    assert paths(cfg) == (("client0", "switch0", "switch1", "client1"),
                          ("client0", "switch0", "client2"))
    rec, = net.switches["switch0"].sr_table.streams.values()
    assert [net.switches["switch0"].ports[i].peer.name for i in rec.listener_ports] \
        == ["switch1", "client2"]


def test_before_the_ready_arrives_no_switch_lists_a_port_the_paths_do_not_name():
    # 40 ms each way to the controller: the talker gets the ready at 1.38 s,
    # and at 1 s the readies have passed some switches of the line only
    raw = workloads.line_scenario(8)
    raw["control"] = {"one_way_delay": "40ms"}
    cfg, net = _run(raw, "1s")
    assert not _ready(net)
    listing = [name for name, switch in net.switches.items()
               for rec in switch.sr_table.streams.values() if rec.listener_ports]
    assert 0 < len(listing) < len(cfg.switches)
    assert _sr_table_faults(net, paths(cfg), complete=False) == []
    assert _sr_table_faults(net, paths(cfg)) != []


def test_a_path_with_one_hop_changed_fails_the_oracle():
    cfg, net = _run(_two_listeners())
    to_client1, to_client2 = paths(cfg)
    assert _sr_table_faults(net, (to_client1, to_client2)) == []
    # client2's hop out of switch0 taken to switch1 instead
    changed = (to_client1, to_client2[:-1] + ("switch1",))
    assert _sr_table_faults(net, changed) != []
