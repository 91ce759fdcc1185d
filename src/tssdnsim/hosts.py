"""Endpoint applications: TSN talker and listener, UDP cross-traffic source, sinks.

Hosts are event-handler state machines on the simulation thread. Host
processing delays are zero so all measured latency is attributable to the
network elements.
"""

from __future__ import annotations

from typing import Optional

from .config import Section
from .fastforward import NotPeriodic, fields
from .frames import (ArpKind, ArpMessage, BROADCAST, MIN_FRAME_BYTES, EthernetFrame,
                     MacAddress, SrpKind, SrpMessage, StreamData, StreamId, UdpDatagram,
                     make_frame)
from .network import Node
from .srp import admit

SRP_FRAME_BYTES = 64
ARP_FRAME_BYTES = 64

LR_TIMEOUT_NS = 1_000_000_000
ARP_RETRIES = 3
ARP_RETRY_INTERVAL_NS = 1_000_000

UDP_FLOW = "udp"

# `_tuple_new(cls, fields)`: a value of a `NamedTuple` that checks nothing,
# built without a call to its generated `__new__` (see frames.py)
_tuple_new = tuple.__new__


def stream_flow(unique_id: int) -> str:
    """The flow name a listener records a stream's frames under."""
    return f"stream-{unique_id}"


class Host(Node):
    """A client: answers ARP for its protocol address and runs attached apps."""

    FF_FIELDS = fields(
        static="sim name ports mac protocol_addr sink talker stream_id "
               "streams_listened cross _lr_timeout",
        normalised="lr_arrival_ns _arp_resolved _arp_tries _arp_retry_event",
        counted="stream_seq udp_seq")

    def __init__(self, sim, name, mac: MacAddress, protocol_addr: str, sink) -> None:
        super().__init__(sim, name)
        self.mac = mac
        self.protocol_addr = protocol_addr
        self.sink = sink
        self.talker: Optional[Section] = None
        self.stream_id: Optional[StreamId] = None
        self.lr_arrival_ns: Optional[int] = None
        self._lr_timeout = None                 # cancelled once the listener ready arrives
        self.stream_seq = 0
        self.streams_listened: dict = {}        # subscribed unique_id -> its flow name
        self.cross: Optional[Section] = None
        self._arp_resolved: Optional[MacAddress] = None
        self._arp_tries = 0
        self._arp_retry_event = None
        self.udp_seq = 0

    # -- app wiring -------------------------------------------------------

    def run_talker(self, cfg: Section) -> None:
        self.talker = cfg
        self.stream_id = StreamId(self.mac, cfg.unique_id)
        self.sim.schedule(cfg.advertise_at, self._advertise)
        self._lr_timeout = self.sim.timer(cfg.advertise_at + LR_TIMEOUT_NS,
                                          self._lr_timed_out)

    def run_listener(self, unique_id: int) -> None:
        self.streams_listened[unique_id] = stream_flow(unique_id)

    def run_udp_source(self, cfg: Section) -> None:
        self.cross = cfg
        self.sim.schedule(cfg.start_at, self._send_arp_request)

    # -- talker -----------------------------------------------------------

    def _advertise(self) -> None:
        cfg = self.talker
        # the size its frames go on the wire with: `make_frame` pads a short one
        advertise = SrpMessage(SrpKind.TALKER_ADVERTISE, self.stream_id, cfg.dst_group,
                               cfg.vlan, max(cfg.frame_bytes, MIN_FRAME_BYTES),
                               cfg.interval, cfg.sr_class)
        reason = admit(self.ports[0], advertise)
        if reason is not None:
            self.sink.warn(f"{self.name}: NIC reservation rejected: {reason}")
            return
        self.ports[0].enqueue(make_frame(self.mac, cfg.dst_group, advertise, SRP_FRAME_BYTES))

    def _lr_timed_out(self) -> None:
        # a ready may still come, and start the stream then
        self.sink.warn(f"{self.name}: no listener ready for stream {self.stream_id} "
                       f"within {LR_TIMEOUT_NS} ns of its advertise")

    def _send_stream_frame(self) -> None:
        cfg = self.talker
        sim = self.sim
        now = sim._now
        frame = make_frame(self.mac, cfg.dst_group,
                           _tuple_new(StreamData, (self.stream_id, self.stream_seq, now)),
                           cfg.frame_bytes, cfg.vlan)
        self.stream_seq += 1
        self.ports[0].enqueue(frame)
        sim.schedule(now + cfg.interval, self._send_stream_frame)

    # -- cross traffic ----------------------------------------------------

    def _send_arp_request(self) -> None:
        cfg = self.cross
        if self._arp_resolved is not None:
            return
        if self._arp_tries > ARP_RETRIES:
            self.sink.warn(f"{self.name}: ARP for {cfg.dst_node} unanswered after "
                           f"{ARP_RETRIES} retries; cross traffic never starts")
            self._arp_retry_event = None    # given up: a late reply is ignored
            return
        self._arp_tries += 1
        frame = make_frame(self.mac, BROADCAST,
                           ArpMessage(ArpKind.REQUEST, cfg.dst_node), ARP_FRAME_BYTES)
        self.ports[0].enqueue(frame)
        sim = self.sim
        self._arp_retry_event = sim.timer(sim._now + ARP_RETRY_INTERVAL_NS,
                                          self._send_arp_request)

    @property
    def arp_given_up(self) -> bool:
        """Whether the UDP source gave up on ARP, so that it never sends."""
        return self._arp_tries > ARP_RETRIES and self._arp_retry_event is None

    def _send_udp_frame(self) -> None:
        cfg = self.cross
        if cfg.count is not None and self.udp_seq >= cfg.count:
            return
        sim = self.sim
        now = sim._now
        frame = make_frame(self.mac, self._arp_resolved,
                           _tuple_new(UdpDatagram,
                                      (self.udp_seq, now, self.protocol_addr, cfg.dst_node)),
                           cfg.frame_bytes, cfg.vlan)
        self.udp_seq += 1
        self.ports[0].enqueue(frame)
        sim.schedule(now + cfg.send_interval, self._send_udp_frame)

    # -- receive path -----------------------------------------------------

    def handle_frame(self, in_port: int, frame: EthernetFrame) -> None:
        # by the payload's exact type, the data frames first
        payload = frame.payload
        kind = type(payload)
        if kind is StreamData:
            flow = self.streams_listened.get(payload.stream_id.unique_id)
            if flow is not None:
                self.sink.record(flow, payload.seq, payload.sent_at, self.sim._now)
        elif kind is UdpDatagram:
            if payload.dst_addr == self.protocol_addr:
                self.sink.record(UDP_FLOW, payload.seq, payload.sent_at, self.sim._now)
        elif kind is SrpMessage:
            self._handle_srp(payload)
        elif kind is ArpMessage:
            self._handle_arp(frame, payload)

    def _handle_srp(self, msg: SrpMessage) -> None:
        if msg.kind is SrpKind.TALKER_ADVERTISE:
            if msg.stream_id.unique_id in self.streams_listened:
                ready = msg._replace(kind=SrpKind.LISTENER_READY)
                self.ports[0].enqueue(make_frame(self.mac, msg.stream_id.talker, ready,
                                                 SRP_FRAME_BYTES))
        else:
            if self.stream_id == msg.stream_id and self.lr_arrival_ns is None:
                now = self.lr_arrival_ns = self.sim.now()
                self._lr_timeout.cancel()
                # the timeout, scheduled before any frame moved, dispatches
                # before a ready that arrives at its time
                if now >= self._lr_timeout.fire_at:
                    self.sink.warn(f"{self.name}: listener ready for stream {self.stream_id} "
                                   f"arrived at {now} ns, after the timeout; the stream "
                                   "starts")
                # first data frame strictly after the listener ready arrives
                self.sim.schedule(now + self.talker.interval, self._send_stream_frame)

    def _handle_arp(self, frame: EthernetFrame, msg: ArpMessage) -> None:
        if msg.kind is ArpKind.REQUEST:
            if msg.asked == self.protocol_addr:
                reply = ArpMessage(ArpKind.REPLY, msg.asked, self.mac)
                self.ports[0].enqueue(make_frame(self.mac, frame.src, reply, ARP_FRAME_BYTES))
        else:
            cfg = self.cross
            # a reply counts while a request is outstanding, its retry pending
            if cfg is not None and msg.asked == cfg.dst_node and self._arp_resolved is None \
                    and self._arp_retry_event is not None:
                self._arp_resolved = msg.answer
                self._arp_retry_event.cancel()
                self._send_udp_frame()

    # -- steady-state fast-forward (see fastforward.py) --------------------

    def ff_state(self, cx) -> None:
        """Register the host's traffic sources, whose counters number the
        frames the snapshot finds queued and recorded."""
        if self.talker is not None:
            cx.add_source(self.stream_id, stream_flow(self.talker.unique_id),
                          self.stream_seq)
        cfg = self.cross
        if cfg is not None:
            if cfg.count is not None and self._arp_resolved is not None \
                    and self.udp_seq < cfg.count:
                # its last send check falls within one interval past the count
                left = cfg.count - self.udp_seq + 1
                raise NotPeriodic(f"{self.name}: count-limited source still sending",
                                  until=cx.start + left * cfg.send_interval)
            cx.add_source(self.protocol_addr, UDP_FLOW, self.udp_seq)
