"""Node base: a named device with numbered ports, each feeding one link."""

from __future__ import annotations

from .engine import Link, Simulator
from .frames import EthernetFrame
from .shaping import EgressPort


class Node:
    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: list[EgressPort] = []

    def attach_port(self, link: Link, queue_capacity: int, shaper_enabled: bool) -> int:
        port_id = len(self.ports)
        port = EgressPort(self.sim, self, link, name=f"{self.name}:{port_id}",
                          queue_capacity=queue_capacity, shaper_enabled=shaper_enabled)
        self.ports.append(port)
        return port_id

    def handle_frame(self, in_port: int, frame: EthernetFrame) -> None:
        raise NotImplementedError
