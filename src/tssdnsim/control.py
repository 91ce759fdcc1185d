"""SDN controller and southbound control channel.

Control messages are modeled abstractly (no OpenFlow wire encoding) with a
fixed one-way channel delay plus a controller processing delay. The ForwardSRP
message carries the original SRP frame unmodified, as a payload.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fastforward import fields
from .frames import EthernetFrame, SrpKind, SrpMessage
from .switching import (FlowMatch, Output, REACTIVE_RULE_PRIORITY, STREAM_RULE_PRIORITY,
                        SrTable, Switch, ToController)


# -- message kinds -------------------------------------------------------


@dataclass(frozen=True)
class Hello:
    pass


@dataclass(frozen=True)
class FeaturesReply:
    n_ports: int


@dataclass(frozen=True)
class FlowMod:
    match: FlowMatch
    priority: int
    actions: tuple


@dataclass(frozen=True)
class MissActionUpdate:
    action: object


@dataclass(frozen=True)
class PacketIn:
    frame: EthernetFrame
    in_port: int
    reason: str


@dataclass(frozen=True)
class PacketOut:
    frame: EthernetFrame
    out_ports: tuple


@dataclass(frozen=True)
class ForwardSrp:
    frame: EthernetFrame
    in_port: int


@dataclass(frozen=True)
class TraceEntry:
    time_ns: int
    direction: str  # "s2c" or "c2s"
    switch: str
    kind: str
    xid: int


@dataclass(frozen=True)
class FlowInstall:
    time_ns: int
    switch: str
    priority: int
    match: FlowMatch


class ControlChannel:
    """FIFO per direction; fixed delays, never reorders."""

    FF_FIELDS = fields(static="sim switch controller one_way_ns processing_ns",
                       counted="_xid")

    def __init__(self, sim, switch: Switch, controller: "Controller",
                 one_way_ns: int, processing_ns: int) -> None:
        self.sim = sim
        self.switch = switch
        self.controller = controller
        self.one_way_ns = one_way_ns
        self.processing_ns = processing_ns
        self._xid = 0

    def _next_xid(self) -> int:
        self._xid += 1
        return self._xid

    def _trace(self, direction: str, msg, xid: int) -> None:
        self.controller.trace.append(TraceEntry(
            self.sim.now(), direction, self.switch.name, type(msg).__name__, xid))

    # -- switch -> controller ---------------------------------------------

    def send_to_controller(self, msg) -> None:
        xid = self._next_xid()
        self._trace("s2c", msg, xid)
        arrival = self.sim.now() + self.one_way_ns + self.processing_ns
        self.sim.schedule(arrival, lambda: self.controller.on_message(self.switch, msg))

    def hello(self) -> None:
        self.send_to_controller(Hello())

    def packet_in(self, frame: EthernetFrame, in_port: int, reason: str) -> None:
        self.send_to_controller(PacketIn(frame, in_port, reason))

    def forward_srp(self, frame: EthernetFrame, in_port: int) -> None:
        self.send_to_controller(ForwardSrp(frame, in_port))

    # -- controller -> switch ---------------------------------------------

    def send_to_switch(self, msg) -> None:
        xid = self._next_xid()
        self._trace("c2s", msg, xid)
        arrival = self.sim.now() + self.one_way_ns
        self.sim.schedule(arrival, lambda: self._apply_at_switch(msg))

    def _apply_at_switch(self, msg) -> None:
        sw = self.switch
        if isinstance(msg, MissActionUpdate):
            sw.flow_table.miss_action = msg.action
            self.controller.bootstrapped.add(sw.name)
        elif isinstance(msg, FlowMod):
            sw.flow_table.install(msg.match, msg.priority, list(msg.actions))
            self.controller.flow_installs.append(
                FlowInstall(self.sim.now(), sw.name, msg.priority, msg.match))
        elif isinstance(msg, ForwardSrp):
            sw.apply_srp(msg.frame, msg.in_port)
        elif isinstance(msg, PacketOut):
            for port in msg.out_ports:
                sw.send(port, msg.frame)
        # FeaturesReply needs no switch-side action in this model


class Controller:
    """One logical controller process: SRP manager plus reactive ARP/UDP forwarding."""

    # the SR tables are models of their own
    FF_FIELDS = fields(
        static="sim name channels sr_tables log",
        normalised="trace flow_installs bootstrapped mac_locations")

    def __init__(self, sim, name: str = "controller", log=None) -> None:
        self.sim = sim
        self.name = name
        self.channels: dict[str, ControlChannel] = {}
        self.trace: list[TraceEntry] = []
        self.flow_installs: list[FlowInstall] = []
        self.bootstrapped: set = set()
        self.log = log if log is not None else (lambda msg: None)
        # each switch's streams, learned before the switch applies the message
        self.sr_tables: dict[str, SrTable] = {}
        self.mac_locations: dict = {}               # switch -> {mac: port}

    def attach_switch(self, switch: Switch, one_way_ns: int, processing_ns: int) -> ControlChannel:
        channel = ControlChannel(self.sim, switch, self, one_way_ns, processing_ns)
        self.channels[switch.name] = channel
        switch.control = channel
        self.sr_tables[switch.name] = SrTable()
        self.mac_locations[switch.name] = {}
        return channel

    def start(self) -> None:
        """Bootstrap: every switch opens its channel with a Hello at t=0."""
        for name in self.channels:
            self.sim.schedule(self.sim.now(), self.channels[name].hello)

    # -- dispatch ---------------------------------------------------------

    def on_message(self, switch: Switch, msg) -> None:
        channel = self.channels[switch.name]
        if isinstance(msg, Hello):
            channel.send_to_switch(FeaturesReply(len(switch.ports)))
            channel.send_to_switch(MissActionUpdate(ToController()))
        elif isinstance(msg, ForwardSrp):
            self._on_forward_srp(switch, channel, msg)
        elif isinstance(msg, PacketIn):
            self._on_packet_in(switch, channel, msg)

    # -- SRP manager ------------------------------------------------------

    def _on_forward_srp(self, switch: Switch, channel: ControlChannel, msg: ForwardSrp) -> None:
        srp: SrpMessage = msg.frame.payload
        table = self.sr_tables[switch.name]
        rec = table.streams.get(srp.stream_id)
        if srp.kind is SrpKind.TALKER_ADVERTISE:
            prev = rec.talker_port if rec is not None else None
            if table.register_talker(srp, msg.in_port) == "moved":
                self.log(f"controller: stream {srp.stream_id} talker moved on "
                         f"{switch.name}: port {prev} -> {msg.in_port}")
            channel.send_to_switch(ForwardSrp(msg.frame, msg.in_port))
        else:
            if rec is None:
                self.log(f"controller: listener ready for unknown stream "
                         f"{srp.stream_id} at {switch.name}, dropped")
                return
            table.add_listener(srp.stream_id, msg.in_port)
            advertise = rec.descriptor
            match = FlowMatch(
                in_port=rec.talker_port,
                eth_dst=advertise.dst_group,
                eth_src=srp.stream_id.talker,
                vlan_vid=advertise.vlan.vid,
                vlan_pcp=advertise.vlan.pcp,
            )
            # rule install strictly precedes the listener ready on this FIFO channel
            channel.send_to_switch(FlowMod(match, STREAM_RULE_PRIORITY,
                                           (Output(rec.listener_ports),)))
            channel.send_to_switch(ForwardSrp(msg.frame, msg.in_port))

    # -- reactive forwarding ----------------------------------------------

    def _on_packet_in(self, switch: Switch, channel: ControlChannel, msg: PacketIn) -> None:
        frame = msg.frame
        macs = self.mac_locations[switch.name]
        macs[frame.src] = msg.in_port
        if frame.dst.is_multicast:
            channel.send_to_switch(PacketOut(frame, self._flood_ports(switch, msg.in_port)))
            return
        out_port = macs.get(frame.dst)
        if out_port is None:
            # unknown unicast: flood, but do not pin a possibly wrong rule
            channel.send_to_switch(PacketOut(frame, self._flood_ports(switch, msg.in_port)))
            return
        match = FlowMatch(in_port=msg.in_port, eth_dst=frame.dst, eth_src=frame.src)
        channel.send_to_switch(FlowMod(match, REACTIVE_RULE_PRIORITY, (Output([out_port]),)))
        channel.send_to_switch(PacketOut(frame, (out_port,)))

    @staticmethod
    def _flood_ports(switch: Switch, in_port: int) -> tuple:
        return tuple(p for p in range(len(switch.ports)) if p != in_port)
