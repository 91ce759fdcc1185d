"""Endpoint nodes and applications: the client host, the TSN talker and the
UDP cross-traffic source.

A `Host` answers ARP for its name, records what it listens to,
and hands a listener ready or an ARP reply to the source it answers. Each
source (`Talker`, `UdpSource`) is a model of its own that sends on its host's
NIC. Host processing delays are zero so all measured latency is attributable
to the network elements.
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


def listener_flows(unique_id: int, nodes) -> tuple:
    """The flow each listener of stream `unique_id` records it under, in the
    order of `nodes`, the listeners' nodes: `stream-<id>` for a lone
    listener, `stream-<id>@<node>` for each of several."""
    if len(nodes) == 1:
        return (f"stream-{unique_id}",)
    return tuple(f"stream-{unique_id}@{node}" for node in nodes)


class Host(Node):
    """A client's NIC, and the dispatch of what arrives on it by payload type."""

    FF_FIELDS = fields(static="sim name ports mac sink streams_listened sources")

    def __init__(self, sim, name, mac: MacAddress, sink) -> None:
        super().__init__(sim, name)
        self.mac = mac
        self.sink = sink
        self.streams_listened: dict = {}        # subscribed unique_id -> its flow name
        # its sources, by what a reply to one names: a talker's stream id, or
        # the host name a UDP source resolves
        self.sources: dict = {}

    def run_listener(self, unique_id: int, flow: str) -> None:
        self.streams_listened[unique_id] = flow

    def handle_frame(self, in_port: int, frame: EthernetFrame) -> None:
        # by the payload's exact type, the data frames first
        payload = frame.payload
        kind = type(payload)
        if kind is StreamData:
            flow = self.streams_listened.get(payload.stream_id.unique_id)
            if flow is not None:
                self.sink.record(flow, payload.seq, payload.sent_at, self.sim._now)
        elif kind is UdpDatagram:
            if payload.dst_addr == self.name:
                self.sink.record(UDP_FLOW, payload.seq, payload.sent_at, self.sim._now)
        elif kind is SrpMessage:
            if payload.kind is SrpKind.LISTENER_READY:
                if payload.stream_id in self.sources:
                    self.sources[payload.stream_id].ready()
            elif payload.stream_id.unique_id in self.streams_listened:
                ready = payload._replace(kind=SrpKind.LISTENER_READY)
                self.ports[0].enqueue(make_frame(self.mac, payload.stream_id.talker, ready,
                                                 SRP_FRAME_BYTES))
        elif kind is ArpMessage:
            if payload.kind is ArpKind.REPLY:
                if payload.asked in self.sources:
                    self.sources[payload.asked].resolve(payload.answer)
            elif payload.asked == self.name:
                reply = ArpMessage(ArpKind.REPLY, payload.asked, self.mac)
                self.ports[0].enqueue(make_frame(self.mac, frame.src, reply, ARP_FRAME_BYTES))


class Talker:
    """An 802.1Qat talker on a host: it advertises its stream, and from one
    interval after the first listener ready it sends a frame each interval.
    `flows` names the flow of each of its listeners, in `listeners` order."""

    FF_FIELDS = fields(static="sim host cfg interval stream_id key flows _lr_timeout",
                       normalised="lr_arrival_ns", counted="seq")

    def __init__(self, host: Host, cfg: Section, flows: tuple) -> None:
        self.sim = sim = host.sim
        self.host = host
        self.cfg = cfg
        self.interval = cfg.interval
        self.stream_id = StreamId(host.mac, cfg.unique_id)
        # the key its frames carry and the flows its listeners record them
        # under, by which the fast-forward tells the sources apart
        self.key, self.flows = self.stream_id, flows
        self.lr_arrival_ns: Optional[int] = None
        self.seq = 0
        host.sources[self.stream_id] = self
        sim.schedule(cfg.advertise_at, self._advertise)
        # cancelled once the listener ready arrives
        self._lr_timeout = sim.timer(cfg.advertise_at + LR_TIMEOUT_NS, self._lr_timed_out)

    def _advertise(self) -> None:
        cfg, host = self.cfg, self.host
        # the size its frames go on the wire with: `make_frame` pads a short one
        advertise = SrpMessage(SrpKind.TALKER_ADVERTISE, self.stream_id, cfg.dst_group,
                               cfg.vlan, max(cfg.frame_bytes, MIN_FRAME_BYTES),
                               cfg.interval, cfg.sr_class)
        reason = admit(host.ports[0], advertise)
        if reason is not None:
            host.sink.warn(f"{host.name}: NIC reservation rejected: {reason}")
            return
        host.ports[0].enqueue(make_frame(host.mac, cfg.dst_group, advertise, SRP_FRAME_BYTES))

    def _lr_timed_out(self) -> None:
        # a ready may still come, and start the stream then
        self.host.sink.warn(f"{self.host.name}: no listener ready for stream "
                            f"{self.stream_id} within {LR_TIMEOUT_NS} ns of its advertise")

    def ready(self) -> None:
        """A listener ready for its stream arrived; the first starts the stream."""
        if self.lr_arrival_ns is not None:
            return
        now = self.lr_arrival_ns = self.sim.now()
        self._lr_timeout.cancel()
        # the timeout, scheduled before any frame moved, dispatches before a
        # ready that arrives at its time
        if now >= self._lr_timeout.fire_at:
            self.host.sink.warn(f"{self.host.name}: listener ready for stream "
                                f"{self.stream_id} arrived at {now} ns, after the "
                                "timeout; the stream starts")
        # first data frame strictly after the listener ready arrives
        self.sim.schedule(now + self.interval, self._send_frame)

    def _send_frame(self) -> None:
        cfg, host, sim = self.cfg, self.host, self.sim
        now = sim._now
        frame = make_frame(host.mac, cfg.dst_group,
                           _tuple_new(StreamData, (self.stream_id, self.seq, now)),
                           cfg.frame_bytes, cfg.vlan)
        self.seq += 1
        host.ports[0].enqueue(frame)
        sim.schedule(now + self.interval, self._send_frame)


class UdpSource:
    """UDP cross traffic from a host: it resolves its destination by ARP, then
    sends a datagram each interval, up to its count if it has one."""

    flows = (UDP_FLOW,)

    FF_FIELDS = fields(static="sim host cfg interval key",
                       normalised="arp_resolved arp_given_up _arp_tries _arp_retry",
                       counted="seq")

    def __init__(self, host: Host, cfg: Section) -> None:
        self.sim = host.sim
        self.host = host
        self.cfg = cfg
        self.interval = cfg.send_interval
        self.key = host.name        # as a talker's
        self.arp_resolved: Optional[MacAddress] = None
        self.arp_given_up = False       # then it never sends
        self._arp_tries = 0
        self._arp_retry = None          # the last request's retry, once one is sent
        self.seq = 0
        host.sources[cfg.dst_node] = self
        self.sim.schedule(cfg.start_at, self._send_arp_request)

    def _send_arp_request(self) -> None:
        host = self.host
        if self._arp_tries > ARP_RETRIES:
            host.sink.warn(f"{host.name}: ARP for {self.cfg.dst_node} unanswered after "
                           f"{ARP_RETRIES} retries; cross traffic never starts")
            self.arp_given_up = True    # a late reply is ignored
            return
        self._arp_tries += 1
        frame = make_frame(host.mac, BROADCAST,
                           ArpMessage(ArpKind.REQUEST, self.cfg.dst_node), ARP_FRAME_BYTES)
        host.ports[0].enqueue(frame)
        sim = self.sim
        self._arp_retry = sim.timer(sim._now + ARP_RETRY_INTERVAL_NS, self._send_arp_request)

    def resolve(self, answer: MacAddress) -> None:
        """An ARP reply gave its destination's MAC address, `answer`."""
        # it counts while a request is outstanding, its retry pending
        if self.arp_resolved is None and self._arp_retry is not None \
                and not self.arp_given_up:
            self.arp_resolved = answer
            self._arp_retry.cancel()
            self._send_frame()

    def _send_frame(self) -> None:
        cfg, host, sim = self.cfg, self.host, self.sim
        if cfg.count is not None and self.seq >= cfg.count:
            return
        now = sim._now
        frame = make_frame(host.mac, self.arp_resolved,
                           _tuple_new(UdpDatagram,
                                      (self.seq, now, host.name, cfg.dst_node)),
                           cfg.frame_bytes, cfg.vlan)
        self.seq += 1
        host.ports[0].enqueue(frame)
        sim.schedule(now + self.interval, self._send_frame)

    def ff_state(self, cx) -> None:
        """A count-limited source still sending cannot repeat."""
        cfg = self.cfg
        if cfg.count is not None and self.arp_resolved is not None and self.seq < cfg.count:
            # its last send check falls within one interval past the count
            left = cfg.count - self.seq + 1
            raise NotPeriodic(f"{self.host.name}: count-limited source still sending",
                              until=cx.start + left * self.interval)
