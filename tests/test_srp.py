import pytest

from tssdnsim.engine import Simulator
from tssdnsim.frames import MacAddress, SrpKind, SrpMessage, StreamId, VlanTag
from tssdnsim.network import Node
from tssdnsim.config import hops
from tssdnsim.srp import CLASS_A, admit, analytic_guarantee, reserved_bps

from conftest import Recorder, wire

US = 1_000


def test_guarantee_three_ports_is_750us():
    assert analytic_guarantee(CLASS_A, 3) == 750 * US


def test_guarantee_single_hop():
    assert analytic_guarantee(CLASS_A, 1) == 250 * US


def test_guarantee_is_linear():
    assert analytic_guarantee(CLASS_A, 5) == 1250 * US


def test_guarantee_needs_a_port():
    with pytest.raises(ValueError):
        analytic_guarantee(CLASS_A, 0)


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


def test_reservation_of_zero_bytes_invalid():
    with pytest.raises(ValueError):
        reserved_bps(0, 125 * US)


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
    assert port.total_reserved_bps == _reserved(res)
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
        assert port.total_reserved_bps == _reserved(_reservation(70))


CASE_STUDY_ADJ = {
    "client0": {"switch0"},
    "switch0": {"client0", "switch1"},
    "switch1": {"switch0", "client1"},
    "client1": {"switch1"},
}


def test_scheduled_ports_case_study_path():
    # client0 NIC, switch0 egress, switch1 egress
    assert hops(CASE_STUDY_ADJ, "client0")["client1"] == 3


def test_scheduled_ports_same_switch():
    adj = {"c0": {"sw"}, "c1": {"sw"}, "sw": {"c0", "c1"}}
    assert hops(adj, "c0")["c1"] == 2


def test_scheduled_ports_degenerate_self():
    assert hops(CASE_STUDY_ADJ, "client0")["client0"] == 0


def test_scheduled_ports_no_path():
    adj = {"a": set(), "b": set()}
    assert "b" not in hops(adj, "a")
