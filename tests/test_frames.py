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


def test_multicast_bit():
    assert MacAddress.parse("01:00:5E:00:00:01").is_multicast
    assert not MacAddress.parse("00:11:22:33:44:55").is_multicast


def test_broadcast_is_multicast():
    assert MacAddress.parse("FF:FF:FF:FF:FF:FF").is_multicast


def test_mac_parse_roundtrip():
    assert str(MacAddress.parse("91:e0:f0:00:00:01")) == "91:E0:F0:00:00:01"
    assert str(MacAddress.parse("91-E0-F0-00-00-01")) == "91:E0:F0:00:00:01"


# octets that int(text, 16) would read: a prefix, an underscore, a sign, a
# space, a third digit; a mix of separators; and text that is no address
BAD_MACS = ["91:E0:F0:00:00:0x1", "91:E0:F0:00:00:1_0", "91:E0:F0:00:00:+1",
            "91:E0:F0:00:00: 1", "91:E0:F0:00:00:001", "91-E0:F0:00:00:01",
            "91:E0:F0:00:00:1", "91:E0:F0:00:00:zz", "91:E0:F0:00:00:100",
            "91:E0:F0:00:00", "91:E0:F0:00:00:01:02", "91:E0:F0:00:00:01\n", ""]


@pytest.mark.parametrize("text", BAD_MACS)
def test_mac_parse_takes_six_groups_of_two_hex_digits_and_one_separator(text):
    with pytest.raises(ValueError) as exc:
        MacAddress.parse(text)
    assert str(exc.value) == f"bad MAC address {text!r}"


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
