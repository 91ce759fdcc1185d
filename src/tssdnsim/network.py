"""Nodes and links: a named device with numbered ports, and `connect`, which
joins two of them with one full-duplex link."""

from __future__ import annotations

from .engine import Simulator
from .frames import EthernetFrame
from .shaping import EgressPort


class Node:
    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: list[EgressPort] = []

    def handle_frame(self, in_port: int, frame: EthernetFrame) -> None:
        raise NotImplementedError


def connect(a: Node, b: Node, rate_bps: int, propagation_ns: int, queue_capacity: int,
            shaper_enabled: bool) -> tuple[EgressPort, EgressPort]:
    """Join `a` and `b` with a link: a new port on each, sending to the other."""
    ends = (a, len(a.ports)), (b, len(b.ports))
    for (node, port_id), (peer, peer_port) in zip(ends, reversed(ends)):
        node.ports.append(EgressPort(node.sim, f"{node.name}:{port_id}", peer, peer_port,
                                     rate_bps, propagation_ns, queue_capacity,
                                     shaper_enabled))
    return a.ports[-1], b.ports[-1]
