"""Dataplane domain model: Ethernet frames, VLAN tags, SRP/ARP/UDP/stream payloads.

Frames and everything they carry are immutable `NamedTuple` values: they
compare and hash by value, as tuples do, and no field can be assigned. They
check nothing: every value a scenario gives is checked once, by the loader
(`config.py`), which reads MAC text through `MacAddress.parse`.
`make_frame`, the one place frames are built, pads a short frame to the
Ethernet minimum. No byte-exact header encoding is attempted.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple, Optional, Union

MIN_FRAME_BYTES = 64
MAX_FRAME_BYTES = 1522
MAX_VID = 4094      # 802.1Q reserves VID 0xFFF
MAX_PCP = 7
MAX_UNIQUE_ID = 0xFFFF
# preamble 7 + SFD 1 + interframe gap 12
WIRE_OVERHEAD_BYTES = 20

# `_tuple_new(cls, fields)` builds a `NamedTuple` value without a call to
# the class's `__new__`, which runs in a Python frame of its own
_tuple_new = tuple.__new__

# six groups of two hex digits, with one kind of separator
_MAC_RE = re.compile(r"[0-9A-Fa-f]{2}([:-])[0-9A-Fa-f]{2}(?:\1[0-9A-Fa-f]{2}){4}")


class MacAddress(NamedTuple):
    octets: bytes

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        match = _MAC_RE.fullmatch(text)
        if match is None:
            raise ValueError(f"bad MAC address {text!r}")
        return cls(bytes.fromhex(text.replace(match[1], "")))

    @property
    def is_multicast(self) -> bool:
        # I/G bit: least-significant bit of the first octet
        return bool(self.octets[0] & 0x01)

    def __str__(self) -> str:
        return ":".join(f"{o:02X}" for o in self.octets)


BROADCAST = MacAddress(b"\xff" * 6)


class VlanTag(NamedTuple):
    vid: int
    pcp: int


class StreamId(NamedTuple):
    talker: MacAddress
    unique_id: int

    def __str__(self) -> str:
        return f"{self.talker}#{self.unique_id}"


class SrpKind(Enum):
    TALKER_ADVERTISE = "talker_advertise"
    LISTENER_READY = "listener_ready"


class SrpMessage(NamedTuple):
    """A talker advertise or listener ready; `sr_class` is "A" or "B"."""

    kind: SrpKind
    stream_id: StreamId
    dst_group: MacAddress
    vlan: VlanTag
    max_frame_bytes: int
    interval_ns: int
    sr_class: str


class ArpKind(Enum):
    REQUEST = "request"
    REPLY = "reply"


class ArpMessage(NamedTuple):
    kind: ArpKind
    asked: str
    answer: Optional[MacAddress] = None


class UdpDatagram(NamedTuple):
    seq: int
    sent_at: int
    src_addr: str
    dst_addr: str


class StreamData(NamedTuple):
    stream_id: StreamId
    seq: int
    sent_at: int


Payload = Union[SrpMessage, ArpMessage, UdpDatagram, StreamData]


class EthernetFrame(NamedTuple):
    """A frame as `make_frame` builds it; an untagged frame is of PCP 0."""

    src: MacAddress
    dst: MacAddress
    vlan: Optional[VlanTag]
    payload: Payload
    frame_bytes: int


def make_frame(src: MacAddress, dst: MacAddress, payload: Payload,
               frame_bytes: int, vlan: Optional[VlanTag] = None) -> EthernetFrame:
    """Build a frame, padding short payloads to the 64-byte Ethernet minimum.
    The tuple is built directly, without a class call."""
    if frame_bytes < MIN_FRAME_BYTES:
        frame_bytes = MIN_FRAME_BYTES
    return _tuple_new(EthernetFrame, (src, dst, vlan, payload, frame_bytes))


# -- steady-state fast-forward (see fastforward.py) ------------------------


def _source(payload: Payload):
    """The key of the source that numbered a data payload; None for the others."""
    if isinstance(payload, StreamData):
        return payload.stream_id
    if isinstance(payload, UdpDatagram):
        return payload.src_addr
    return None


def _moved(frame: EthernetFrame, payload: Payload, seq: int, sent_at: int) -> EthernetFrame:
    """`frame` with a data payload's seq and send time replaced, built as
    tuples: two `_replace` calls would each build a dict and call `_make`."""
    if type(payload) is StreamData:
        payload = _tuple_new(StreamData, (payload[0], seq, sent_at))
    else:
        payload = _tuple_new(UdpDatagram, (seq, sent_at, payload[2], payload[3]))
    return _tuple_new(EthernetFrame, (frame[0], frame[1], frame[2], payload, frame[4]))


def frame_state(frame: EthernetFrame, cx) -> EthernetFrame:
    """A frame as a snapshot compares it: a data frame's seq relative to its
    source's next one and its send time relative to the boundary."""
    payload = frame.payload
    key = _source(payload)
    if key is None:
        return frame
    return _moved(frame, payload, cx.seq(key, payload.seq), payload.sent_at - cx.start)


def frame_shifted(frame: EthernetFrame, cx) -> EthernetFrame:
    """The frame its source sends in the same place the skipped cycles later."""
    payload = frame.payload
    key = _source(payload)
    if key is None:
        return frame
    return _moved(frame, payload, payload.seq + cx.seq_shift(key),
                  payload.sent_at + cx.shift_ns)
