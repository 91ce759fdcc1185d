import pytest

from tssdnsim.frames import (ArpKind, ArpMessage, BROADCAST, MacAddress, StreamData,
                             StreamId, VlanTag, make_frame)

from conftest import wire_size


def test_wire_size_adds_fixed_overhead():
    frame = make_frame(MacAddress.parse("00:11:22:33:44:55"), BROADCAST,
                       ArpMessage(ArpKind.REQUEST, "client1"), 64)
    assert wire_size(frame) == 84


def test_wire_size_max_frame():
    frame = make_frame(MacAddress.parse("00:11:22:33:44:55"), BROADCAST,
                       ArpMessage(ArpKind.REQUEST, "client1"), 1522)
    assert wire_size(frame) == 1542


def test_short_payload_padded_to_minimum():
    frame = make_frame(MacAddress.parse("00:11:22:33:44:55"), BROADCAST,
                       ArpMessage(ArpKind.REQUEST, "client1"), 28)
    assert frame.frame_bytes == 64
    assert wire_size(frame) == 84


def test_one_byte_short_of_the_minimum_is_padded():
    frame = make_frame(MacAddress.parse("00:11:22:33:44:55"), BROADCAST,
                       ArpMessage(ArpKind.REQUEST, "client1"), 63)
    assert frame.frame_bytes == 64


def test_oversize_frame_rejected():
    with pytest.raises(ValueError):
        make_frame(MacAddress.parse("00:11:22:33:44:55"), BROADCAST,
                   ArpMessage(ArpKind.REQUEST, "x"), 1523)


def test_multicast_bit():
    assert MacAddress.parse("01:00:5E:00:00:01").is_multicast
    assert not MacAddress.parse("00:11:22:33:44:55").is_multicast


def test_broadcast_is_multicast():
    assert MacAddress.parse("FF:FF:FF:FF:FF:FF").is_multicast


def test_mac_parse_roundtrip():
    assert str(MacAddress.parse("91:e0:f0:00:00:01")) == "91:E0:F0:00:00:01"


def test_vlan_tag_ranges():
    VlanTag(4095, 7)
    with pytest.raises(ValueError):
        VlanTag(4096, 0)
    with pytest.raises(ValueError):
        VlanTag(0, 8)


def test_stream_frames_require_vlan_tag():
    talker = MacAddress.parse("02:00:00:00:00:01")
    group = MacAddress.parse("91:E0:F0:00:00:01")
    payload = StreamData(StreamId(talker, 1), 0, 0)
    with pytest.raises(ValueError):
        make_frame(talker, group, payload, 150)
    frame = make_frame(talker, group, payload, 150, vlan=VlanTag(2, 6))
    assert frame.vlan.pcp == 6


def test_frames_are_immutable_values():
    talker = MacAddress.parse("02:00:00:00:00:01")
    group = MacAddress.parse("91:E0:F0:00:00:01")
    frame = make_frame(talker, group, StreamData(StreamId(talker, 1), 0, 0), 150,
                       vlan=VlanTag(2, 6))
    for value, name in ((frame, "frame_bytes"), (frame, "payload"), (frame.payload, "seq"),
                        (frame.vlan, "pcp"), (talker, "octets")):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        frame.note = "an attribute the type does not have"
    # equal fields make equal, interchangeable values
    again = make_frame(MacAddress(talker.octets), group,
                       StreamData(StreamId(talker, 1), 0, 0), 150, vlan=VlanTag(2, 6))
    assert again == frame and hash(again) == hash(frame)
