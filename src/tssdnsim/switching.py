"""The merged TSN/SDN switch dataplane.

Pipeline per arriving frame: SR-table ingress filter, then flow-table lookup
(SDN mode) or SR-table / MAC-learning forwarding (TSN-only mode), then egress
queueing behind the credit-based shaper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .fastforward import fields
from .frames import (EthernetFrame, MacAddress, SrpKind, SrpMessage, StreamData,
                     StreamId)
from .network import Node
from .srp import admit


# -- flow table ----------------------------------------------------------


@dataclass(frozen=True)
class FlowMatch:
    """The five Table-1 match fields; a None field is a wildcard."""

    in_port: Optional[int] = None
    eth_dst: Optional[MacAddress] = None
    eth_src: Optional[MacAddress] = None
    vlan_vid: Optional[int] = None
    vlan_pcp: Optional[int] = None

    def covers(self, frame: EthernetFrame, in_port: int) -> bool:
        # addresses compare by their octets: bytes equality runs in C, while
        # the dataclass-generated MacAddress.__eq__ is a Python-level call
        if self.in_port is not None and self.in_port != in_port:
            return False
        if self.eth_dst is not None and self.eth_dst.octets != frame.dst.octets:
            return False
        if self.eth_src is not None and self.eth_src.octets != frame.src.octets:
            return False
        if self.vlan_vid is not None and (frame.vlan is None or frame.vlan.vid != self.vlan_vid):
            return False
        if self.vlan_pcp is not None and (frame.vlan is None or frame.vlan.pcp != self.vlan_pcp):
            return False
        return True


@dataclass(frozen=True)
class Output:
    """Forward out of each listed port once, in ascending port order."""

    ports: tuple

    def __init__(self, ports) -> None:
        object.__setattr__(self, "ports", tuple(sorted(set(ports))))


@dataclass(frozen=True)
class ToController:
    pass


@dataclass(frozen=True)
class Drop:
    pass


Action = Union[Output, ToController, Drop]


@dataclass
class FlowEntry:
    match: FlowMatch
    priority: int
    actions: list
    install_seq: int

    def __post_init__(self) -> None:
        if not self.actions:
            raise ValueError("flow entry needs at least one action")


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
        for entry in self._entries:
            if entry.match.covers(frame, in_port):
                return entry
        return None


# -- SR table -----------------------------------------------------------


@dataclass
class StreamRecord:
    descriptor: SrpMessage     # the talker advertise
    talker_port: int
    listener_ports: set = field(default_factory=set)


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
        rec.listener_ports.add(port)
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
        if isinstance(frame.payload, SrpMessage):
            self._handle_srp_frame(in_port, frame)
            return
        rec = None
        if frame.vlan is not None:
            # ingress filter: a stream's frames come from its talker's port
            rec = self.sr_table.lookup_group(frame.dst, frame.vlan.vid)
            if rec is not None and rec.talker_port != in_port:
                self.dropped_filter += 1
                return
        if self.sdn:
            self._sdn_forward(in_port, frame)
        else:
            self._tsn_forward(in_port, frame, rec)

    def _sdn_forward(self, in_port: int, frame: EthernetFrame) -> None:
        entry = self.flow_table.lookup(frame, in_port)
        if entry is None:
            if isinstance(frame.payload, StreamData):
                self.stream_miss += 1
            self._apply_actions([self.flow_table.miss_action], frame, in_port, reason="miss")
        else:
            self._apply_actions(entry.actions, frame, in_port, reason="action")

    def _tsn_forward(self, in_port: int, frame: EthernetFrame,
                     rec: Optional[StreamRecord]) -> None:
        self.mac_table[frame.src] = in_port
        if rec is not None:
            out = rec.listener_ports - {in_port}
            if not out:
                self.dropped_no_listener += 1
            for port in sorted(out):
                self.send(port, frame)
                self.forwarded += 1
            return
        if frame.dst.is_multicast:
            self._flood(in_port, frame)
            return
        port = self.mac_table.get(frame.dst)
        if port is not None:
            self.send(port, frame)
            self.forwarded += 1
        else:
            self._flood(in_port, frame)

    def _apply_actions(self, actions, frame, in_port, reason) -> None:
        for action in actions:
            if isinstance(action, Output):
                for port in action.ports:
                    self.send(port, frame)
                    self.forwarded += 1
            elif isinstance(action, ToController):
                self.to_controller_count += 1
                self.control.packet_in(frame, in_port, reason)
            elif isinstance(action, Drop):
                if reason == "miss":
                    self.dropped_miss += 1
                else:
                    self.dropped_action += 1

    def _flood(self, in_port: int, frame: EthernetFrame) -> None:
        for port in range(len(self.ports)):
            if port != in_port:
                self.send(port, frame)
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
        if msg.kind is SrpKind.TALKER_ADVERTISE:
            rec = self.sr_table.streams.get(msg.stream_id)
            prev = rec.talker_port if rec is not None else None
            status = self.sr_table.register_talker(msg, in_port)
            if status == "moved":
                self.log(f"{self.name}: stream {msg.stream_id} talker moved: "
                         f"port {prev} -> {in_port}")
            if status != "unchanged":
                self._flood(in_port, frame)
        else:
            rec = self.sr_table.streams.get(msg.stream_id)
            if rec is None:
                self.log(f"{self.name}: listener ready for unknown stream {msg.stream_id}, dropped")
                return
            if self.sr_table.add_listener(msg.stream_id, in_port):
                rejected = admit(self.ports[in_port], rec.descriptor)
                if rejected is not None:
                    self.log(f"{self.name}: reservation rejected on {rejected.port_name}: "
                             f"{rejected.reason}")
            self.send(rec.talker_port, frame)

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
