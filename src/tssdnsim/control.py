"""SDN controller and southbound control channel.

Control messages are modeled abstractly (no OpenFlow wire encoding) with a
fixed one-way channel delay plus a controller processing delay. The ForwardSRP
message carries the original SRP frame unmodified, as a payload.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import Section
from .fastforward import fields
from .frames import EthernetFrame, SrpKind, SrpMessage
from .switching import (FlowMatch, Output, REACTIVE_RULE_PRIORITY, STREAM_RULE_PRIORITY,
                        SrTable, Switch, ToController)


# -- message kinds -------------------------------------------------------


class Hello:
    # no fields: a NamedTuple without them would equal () (see switching.Drop)
    __slots__ = ()


class FeaturesReply(NamedTuple):
    n_ports: int


class FlowMod(NamedTuple):
    match: FlowMatch
    priority: int
    actions: tuple


class MissActionUpdate(NamedTuple):
    action: object


class PacketIn(NamedTuple):
    frame: EthernetFrame
    in_port: int
    reason: str


class PacketOut(NamedTuple):
    frame: EthernetFrame
    out_ports: tuple


class ForwardSrp(NamedTuple):
    frame: EthernetFrame
    in_port: int


class TraceEntry(NamedTuple):
    time_ns: int
    direction: str  # "s2c" or "c2s"
    switch: str
    kind: str
    xid: int


class FlowInstall(NamedTuple):
    time_ns: int
    switch: str
    priority: int
    match: FlowMatch


class ControlChannel:
    """FIFO per direction; fixed delays, never reorders.

    Each direction keeps its messages in flight, oldest first, and each
    arrival takes the head. A snapshot compares them as they are: a message
    that carries a data frame holds its absolute seq and send time, so it
    tells two boundaries apart and never makes their snapshots falsely equal.
    """

    FF_FIELDS = fields(static="sim switch controller control",
                       normalised="_to_controller _to_switch",
                       counted="_xid")

    def __init__(self, sim, switch: Switch, controller: "Controller",
                 control: Section) -> None:
        self.sim = sim
        self.switch = switch
        self.controller = controller
        self.control = control
        self._xid = 0
        self._to_controller: list = []
        self._to_switch: list = []

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
        self._to_controller.append(msg)
        control = self.control
        self.sim.schedule(self.sim.now() + control.one_way_delay
                          + control.processing_delay, self._at_controller)

    def _at_controller(self) -> None:
        self.controller.on_message(self.switch, self._to_controller.pop(0))

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
        self._to_switch.append(msg)
        self.sim.schedule(self.sim.now() + self.control.one_way_delay, self._at_switch)

    def _at_switch(self) -> None:
        msg = self._to_switch.pop(0)
        sw = self.switch
        if isinstance(msg, MissActionUpdate):
            sw.flow_table.set_miss_action(msg.action)
        elif isinstance(msg, FlowMod):
            sw.flow_table.install(msg.match, msg.priority, list(msg.actions))
            self.controller.flow_installs.append(
                FlowInstall(self.sim.now(), sw.name, msg.priority, msg.match))
        elif isinstance(msg, ForwardSrp):
            sw.apply_srp(msg.frame, msg.in_port)
        elif isinstance(msg, PacketOut):
            for port in msg.out_ports:
                sw.ports[port].enqueue(msg.frame)
        # FeaturesReply needs no switch-side action in this model


class Controller:
    """One logical controller process: SRP manager plus reactive ARP/UDP forwarding."""

    # the SR tables are models of their own; the logs are compared by length
    FF_FIELDS = fields(
        static="sim channels sr_tables",
        normalised="mac_locations",
        shifted="trace flow_installs")

    def __init__(self, sim) -> None:
        self.sim = sim
        self.channels: dict[str, ControlChannel] = {}
        self.trace: list[TraceEntry] = []
        self.flow_installs: list[FlowInstall] = []
        # each switch's streams, learned before the switch applies the message
        self.sr_tables: dict[str, SrTable] = {}
        self.mac_locations: dict = {}               # switch -> {mac: port}

    def attach_switch(self, switch: Switch, control: Section) -> ControlChannel:
        channel = ControlChannel(self.sim, switch, self, control)
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
        if srp.kind is SrpKind.TALKER_ADVERTISE:
            table.register_talker(srp, msg.in_port)
        else:
            table.add_listener(srp.stream_id, msg.in_port)
            rec = table.streams[srp.stream_id]
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

    # -- steady-state fast-forward (see fastforward.py) --------------------

    def ff_state(self, cx) -> tuple:
        """The logs only grow, so two of equal length are equal: a period that
        comes round adds no entry."""
        return len(self.trace), len(self.flow_installs)

    def ff_shift(self, cx) -> None:
        """Nothing to move: the repeated period logged nothing."""
