"""Dataplane domain model: Ethernet frames, VLAN tags, SRP/ARP/UDP/stream payloads.

Frames and everything they carry are immutable `NamedTuple` values: they
compare and hash by value, as tuples do, and no field can be assigned. A type
with a constraint checks it in `__new__`, once, when the value is built;
`_replace` copies a value without checking it again. No byte-exact header
encoding is attempted.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional, Union

MIN_FRAME_BYTES = 64
MAX_FRAME_BYTES = 1522
MAX_VID = 4095
MAX_PCP = 7
MAX_UNIQUE_ID = 0xFFFF
# preamble 7 + SFD 1 + interframe gap 12
WIRE_OVERHEAD_BYTES = 20

# `_tuple_new(cls, fields)` builds a `NamedTuple` value without a call to
# the class's `__new__`, which runs in a Python frame of its own: for a type
# that checks nothing, or after the caller has made its type's checks
_tuple_new = tuple.__new__


class MacAddress(NamedTuple("MacAddress", [("octets", bytes)])):
    __slots__ = ()

    def __new__(cls, octets: bytes) -> "MacAddress":
        if len(octets) != 6:
            raise ValueError(f"MAC address needs 6 octets, got {len(octets)}")
        return tuple.__new__(cls, (octets,))

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        parts = text.replace("-", ":").split(":")
        if len(parts) != 6:
            raise ValueError(f"bad MAC address {text!r}")
        return cls(bytes(int(p, 16) for p in parts))

    @property
    def is_multicast(self) -> bool:
        # I/G bit: least-significant bit of the first octet
        return bool(self.octets[0] & 0x01)

    def __str__(self) -> str:
        return ":".join(f"{o:02X}" for o in self.octets)


BROADCAST = MacAddress(b"\xff" * 6)


class VlanTag(NamedTuple("VlanTag", [("vid", int), ("pcp", int)])):
    __slots__ = ()

    def __new__(cls, vid: int, pcp: int) -> "VlanTag":
        if not 0 <= vid <= MAX_VID:
            raise ValueError(f"VLAN id {vid} out of range")
        if not 0 <= pcp <= MAX_PCP:
            raise ValueError(f"PCP {pcp} out of range")
        return tuple.__new__(cls, (vid, pcp))


class StreamId(NamedTuple("StreamId", [("talker", MacAddress), ("unique_id", int)])):
    __slots__ = ()

    def __new__(cls, talker: MacAddress, unique_id: int) -> "StreamId":
        if not 0 <= unique_id <= MAX_UNIQUE_ID:
            raise ValueError(f"stream unique_id {unique_id} out of range")
        return tuple.__new__(cls, (talker, unique_id))

    def __str__(self) -> str:
        return f"{self.talker}#{self.unique_id}"


class SrpKind(Enum):
    TALKER_ADVERTISE = "talker_advertise"
    LISTENER_READY = "listener_ready"


class SrpMessage(NamedTuple("SrpMessage", [
        ("kind", SrpKind), ("stream_id", StreamId), ("dst_group", MacAddress),
        ("vlan", VlanTag), ("max_frame_bytes", int), ("interval_ns", int),
        ("sr_class", str)])):
    """A talker advertise or listener ready; `sr_class` is "A" or "B"."""

    __slots__ = ()

    def __new__(cls, kind: SrpKind, stream_id: StreamId, dst_group: MacAddress,
                vlan: VlanTag, max_frame_bytes: int, interval_ns: int,
                sr_class: str) -> "SrpMessage":
        if not dst_group.is_multicast:
            raise ValueError("stream listener group must be a multicast address")
        return tuple.__new__(cls, (kind, stream_id, dst_group, vlan, max_frame_bytes,
                                   interval_ns, sr_class))


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


class EthernetFrame(NamedTuple("EthernetFrame", [
        ("src", MacAddress), ("dst", MacAddress), ("vlan", Optional[VlanTag]),
        ("payload", Payload), ("frame_bytes", int)])):
    __slots__ = ()

    def __new__(cls, src: MacAddress, dst: MacAddress, vlan: Optional[VlanTag],
                payload: Payload, frame_bytes: int) -> "EthernetFrame":
        if not MIN_FRAME_BYTES <= frame_bytes <= MAX_FRAME_BYTES:
            raise ValueError(f"frame_bytes {frame_bytes} outside [64, 1522]")
        if vlan is None and isinstance(payload, StreamData):
            raise ValueError("TSN stream frames must carry a VLAN tag")
        return tuple.__new__(cls, (src, dst, vlan, payload, frame_bytes))

    @property
    def pcp(self) -> int:
        return self.vlan.pcp if self.vlan is not None else 0


def make_frame(src: MacAddress, dst: MacAddress, payload: Payload,
               frame_bytes: int, vlan: Optional[VlanTag] = None) -> EthernetFrame:
    """Build a frame, padding short payloads to the 64-byte Ethernet minimum.

    It makes `EthernetFrame.__new__`'s checks itself and builds the tuple
    directly: a class call would run that `__new__` in a frame of its own."""
    if frame_bytes < MIN_FRAME_BYTES:
        frame_bytes = MIN_FRAME_BYTES
    elif frame_bytes > MAX_FRAME_BYTES:
        raise ValueError(f"frame_bytes {frame_bytes} outside [64, 1522]")
    if vlan is None and isinstance(payload, StreamData):
        raise ValueError("TSN stream frames must carry a VLAN tag")
    return _tuple_new(EthernetFrame, (src, dst, vlan, payload, frame_bytes))


def wire_size(frame: EthernetFrame) -> int:
    return frame.frame_bytes + WIRE_OVERHEAD_BYTES


# -- steady-state fast-forward (see fastforward.py) ------------------------


def _source(payload: Payload):
    """The key of the source that numbered a data payload; None for the others."""
    if isinstance(payload, StreamData):
        return payload.stream_id
    if isinstance(payload, UdpDatagram):
        return payload.src_addr
    return None


def frame_state(frame: EthernetFrame, cx) -> EthernetFrame:
    """A frame as a snapshot compares it: a data frame's seq relative to its
    source's next one and its send time relative to the boundary."""
    payload = frame.payload
    key = _source(payload)
    if key is None:
        return frame
    return frame._replace(payload=payload._replace(seq=cx.seq(key, payload.seq),
                                                   sent_at=payload.sent_at - cx.start))


def frame_shifted(frame: EthernetFrame, cx) -> EthernetFrame:
    """The frame its source sends in the same place the skipped cycles later."""
    payload = frame.payload
    key = _source(payload)
    if key is None:
        return frame
    return frame._replace(payload=payload._replace(seq=payload.seq + cx.seq_shift(key),
                                                   sent_at=payload.sent_at + cx.shift_ns))
