"""The merged TSN/SDN switch dataplane.

Pipeline per arriving frame: SR-table ingress filter, then flow-table lookup
(SDN mode) or SR-table / MAC-learning forwarding (TSN-only mode), then egress
queueing behind the credit-based shaper.
"""

from __future__ import annotations

from bisect import insort
from typing import NamedTuple, Optional, Union

from .fastforward import fields
from .frames import (EthernetFrame, MacAddress, SrpKind, SrpMessage, StreamData,
                     StreamId)
from .network import Node
from .srp import admit, release


# -- flow table ----------------------------------------------------------


class FlowMatch:
    """The five Table-1 match fields; a None field is a wildcard.

    A value, equal to any match of the same fields, and never assigned to:
    not a tuple, since `covers` reads slots faster than tuple fields."""

    __slots__ = ("in_port", "eth_dst", "eth_src", "vlan_vid", "vlan_pcp")

    def __init__(self, in_port: Optional[int] = None, eth_dst: Optional[MacAddress] = None,
                 eth_src: Optional[MacAddress] = None, vlan_vid: Optional[int] = None,
                 vlan_pcp: Optional[int] = None) -> None:
        self.in_port = in_port
        self.eth_dst = eth_dst
        self.eth_src = eth_src
        self.vlan_vid = vlan_vid
        self.vlan_pcp = vlan_pcp

    def _key(self) -> tuple:
        return self.in_port, self.eth_dst, self.eth_src, self.vlan_vid, self.vlan_pcp

    def __eq__(self, other) -> bool:
        return type(other) is FlowMatch and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def covers(self, frame: EthernetFrame, in_port: int) -> bool:
        if self.in_port is not None and self.in_port != in_port:
            return False
        if self.eth_dst is not None and self.eth_dst != frame.dst:
            return False
        if self.eth_src is not None and self.eth_src != frame.src:
            return False
        if self.vlan_vid is not None and (frame.vlan is None or frame.vlan.vid != self.vlan_vid):
            return False
        if self.vlan_pcp is not None and (frame.vlan is None or frame.vlan.pcp != self.vlan_pcp):
            return False
        return True


class Output(NamedTuple("Output", [("ports", tuple)])):
    """Forward out of each listed port once, in ascending port order."""

    __slots__ = ()

    def __new__(cls, ports) -> "Output":
        return tuple.__new__(cls, (tuple(sorted(set(ports))),))


# The two actions without fields are not tuples, which would all equal ():
# each is a class of its own, and a snapshot copies one as its type.
class ToController:
    __slots__ = ()


class Drop:
    __slots__ = ()


Action = Union[Output, ToController, Drop]


class FlowEntry:
    __slots__ = ("match", "priority", "actions", "install_seq")

    def __init__(self, match: FlowMatch, priority: int, actions: list,
                 install_seq: int) -> None:
        if not actions:
            raise ValueError("flow entry needs at least one action")
        self.match = match
        self.priority = priority
        self.actions = actions
        self.install_seq = install_seq


class FlowTable:
    """Highest priority wins; ties break toward the earliest-installed entry."""

    FF_FIELDS = fields(normalised="_entries _next_seq miss_action")

    def __init__(self) -> None:
        self._entries: list[FlowEntry] = []
        self._next_seq = 0
        self.miss_action: Action = Drop()

    @property
    def entries(self) -> list:
        return list(self._entries)

    def install(self, match: FlowMatch, priority: int, actions: list) -> FlowEntry:
        for entry in self._entries:
            if entry.match == match and entry.priority == priority:
                # same match: replace actions atomically, keep install order
                entry.actions = list(actions)
                return entry
        entry = FlowEntry(match, priority, list(actions), self._next_seq)
        self._next_seq += 1
        self._entries.append(entry)
        self._entries.sort(key=lambda e: (-e.priority, e.install_seq))
        return entry

    def lookup(self, frame: EthernetFrame, in_port: int) -> Optional[FlowEntry]:
        """The first entry whose match covers the frame: `FlowMatch.covers`,
        written out here to save a call per entry."""
        src, dst, vlan = frame.src, frame.dst, frame.vlan
        for entry in self._entries:
            match = entry.match
            want = match.in_port
            if want is not None and want != in_port:
                continue
            want = match.eth_dst
            if want is not None and want != dst:
                continue
            want = match.eth_src
            if want is not None and want != src:
                continue
            want = match.vlan_vid
            if want is not None and (vlan is None or vlan.vid != want):
                continue
            want = match.vlan_pcp
            if want is not None and (vlan is None or vlan.pcp != want):
                continue
            return entry
        return None


# -- SR table -----------------------------------------------------------


class StreamRecord:
    __slots__ = ("descriptor", "talker_port", "listener_ports")

    def __init__(self, descriptor: SrpMessage, talker_port: int) -> None:
        self.descriptor = descriptor        # the talker advertise
        self.talker_port = talker_port
        self.listener_ports: list = []      # ascending

    def __eq__(self, other) -> bool:
        # the controller's record of a stream equals the switch's
        return type(other) is StreamRecord and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__)


class SrTable:
    """One bridge's streams. The switch forwards and filters by its table; in
    SDN mode the controller keeps one for each switch, from the same messages."""

    FF_FIELDS = fields(normalised="streams _by_group")

    def __init__(self) -> None:
        self.streams: dict[StreamId, StreamRecord] = {}
        self._by_group: dict[tuple, StreamRecord] = {}

    def register_talker(self, msg: SrpMessage, port: int) -> str:
        """Record a talker; returns 'new', 'unchanged', 'changed' (a new
        descriptor from the same port) or 'moved' (from another port)."""
        rec = self.streams.get(msg.stream_id)
        if rec is None:
            rec = self.streams[msg.stream_id] = StreamRecord(msg, port)
            status = "new"
        elif rec.talker_port == port and rec.descriptor == msg:
            return "unchanged"
        else:
            old = (rec.descriptor.dst_group, rec.descriptor.vlan.vid)
            if self._by_group.get(old) is rec:
                del self._by_group[old]
            status = "changed" if rec.talker_port == port else "moved"
            rec.descriptor = msg
            rec.talker_port = port
        self._by_group[(msg.dst_group, msg.vlan.vid)] = rec
        return status

    def add_listener(self, stream_id: StreamId, port: int) -> bool:
        rec = self.streams[stream_id]
        if port in rec.listener_ports:
            return False
        insort(rec.listener_ports, port)
        return True

    def lookup_group(self, dst: MacAddress, vid: Optional[int]) -> Optional[StreamRecord]:
        return self._by_group.get((dst, vid))


# -- the switch ----------------------------------------------------------

STREAM_RULE_PRIORITY = 100
REACTIVE_RULE_PRIORITY = 10


class Switch(Node):
    # the tables are models of their own
    FF_FIELDS = fields(
        static="sim name ports sdn flow_table sr_table control log",
        normalised="mac_table",
        counted="forwarded dropped_filter dropped_miss dropped_action dropped_no_listener "
                "to_controller_count stream_miss")

    def __init__(self, sim, name, sdn: bool, log=None) -> None:
        super().__init__(sim, name)
        self.sdn = sdn
        self.flow_table = FlowTable()
        self.sr_table = SrTable()
        self.mac_table: dict[MacAddress, int] = {}
        self.control = None  # ControlChannel, wired by the controller in SDN mode
        self.log = log if log is not None else (lambda msg: None)
        # counters
        self.forwarded = 0
        self.dropped_filter = 0     # stream frames from other than the talker's port
        self.dropped_miss = 0
        self.dropped_action = 0
        self.dropped_no_listener = 0
        self.to_controller_count = 0
        self.stream_miss = 0

    # -- ingress pipeline -------------------------------------------------

    def handle_frame(self, in_port: int, frame: EthernetFrame) -> None:
        if type(frame.payload) is SrpMessage:
            self._handle_srp_frame(in_port, frame)
            return
        rec = None
        dst = frame.dst
        vlan = frame.vlan
        if vlan is not None:
            # ingress filter: a stream's frames come from its talker's port
            # (`SrTable.lookup_group`, read in place)
            rec = self.sr_table._by_group.get((dst, vlan.vid))
            if rec is not None and rec.talker_port != in_port:
                self.dropped_filter += 1
                return
        if not self.sdn:
            # TSN-only: learn the source, then forward by the SR table's
            # listener ports, by flooding, or by the learned port
            mac_table = self.mac_table
            mac_table[frame.src] = in_port
            if rec is not None:
                sent = 0
                ports = self.ports
                for port in rec.listener_ports:
                    if port != in_port:
                        ports[port].enqueue(frame)
                        sent += 1
                if sent:
                    self.forwarded += sent
                else:
                    self.dropped_no_listener += 1
            elif dst.octets[0] & 0x01:      # the I/G bit: `MacAddress.is_multicast`
                self._flood(in_port, frame)
            else:
                port = mac_table.get(dst)
                if port is not None:
                    self.ports[port].enqueue(frame)
                    self.forwarded += 1
                else:
                    self._flood(in_port, frame)
            return
        table = self.flow_table
        entry = table.lookup(frame, in_port)
        if entry is not None:
            actions, reason = entry.actions, "action"
        else:
            if isinstance(frame.payload, StreamData):
                self.stream_miss += 1
            actions, reason = (table.miss_action,), "miss"
        for action in actions:
            kind = type(action)
            if kind is Output:
                ports = self.ports
                for port in action.ports:
                    ports[port].enqueue(frame)
                    self.forwarded += 1
            elif kind is ToController:
                self.to_controller_count += 1
                self.control.packet_in(frame, in_port, reason)
            elif kind is Drop:
                if entry is None:
                    self.dropped_miss += 1
                else:
                    self.dropped_action += 1

    def _flood(self, in_port: int, frame: EthernetFrame) -> None:
        for port, egress in enumerate(self.ports):
            if port != in_port:
                egress.enqueue(frame)
                self.forwarded += 1

    # -- SRP handling -----------------------------------------------------

    def _handle_srp_frame(self, in_port: int, frame: EthernetFrame) -> None:
        if self.sdn:
            # all SRP messages go to the controller before local processing
            self.to_controller_count += 1
            self.control.forward_srp(frame, in_port)
        else:
            self.apply_srp(frame, in_port)

    def apply_srp(self, frame: EthernetFrame, in_port: int) -> None:
        """Update the SR table and propagate the SRP message onward.

        In SDN mode this runs when the ForwardSRP message returns from the
        controller; in TSN-only mode it runs directly on arrival.
        """
        msg = frame.payload
        rec = self.sr_table.streams.get(msg.stream_id)
        if msg.kind is SrpKind.TALKER_ADVERTISE:
            prev = rec.talker_port if rec is not None else None
            old = rec.descriptor if rec is not None else None
            status = self.sr_table.register_talker(msg, in_port)
            if status == "unchanged":
                return
            if status == "moved":
                self.log(f"{self.name}: stream {msg.stream_id} talker moved: "
                         f"port {prev} -> {in_port}")
            if old is not None and old != msg:
                # a changed descriptor: each listener port swaps its reservation
                for port in rec.listener_ports:
                    release(self.ports[port], msg.stream_id)
                    self._reserve(port, msg)
            self._flood(in_port, frame)
        else:
            if rec is None:
                self.log(f"{self.name}: listener ready for unknown stream {msg.stream_id}, dropped")
                return
            if self.sr_table.add_listener(msg.stream_id, in_port):
                self._reserve(in_port, rec.descriptor)
            self.ports[rec.talker_port].enqueue(frame)

    def _reserve(self, port: int, advertise: SrpMessage) -> None:
        """Admit a stream on a listener port; a rejection is counted on the
        port and logged."""
        reason = admit(self.ports[port], advertise)
        if reason is not None:
            self.log(f"{self.name}: reservation rejected on {self.ports[port].name}: "
                     f"{reason}")

    # -- metrics ----------------------------------------------------------

    def counters(self) -> dict:
        return {
            "forwarded": self.forwarded,
            "dropped_filter": self.dropped_filter,
            "dropped_miss": self.dropped_miss,
            "dropped_action": self.dropped_action,
            "dropped_overflow": sum(p.dropped_overflow for p in self.ports),
            "dropped_no_listener": self.dropped_no_listener,
            "to_controller": self.to_controller_count,
            "stream_miss": self.stream_miss,
            "queue_max_depth": {
                p.name: [d for d in p.max_depth] for p in self.ports
            },
        }
