"""Scenario configuration: YAML loading, unit-suffixed times, validation."""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import NamedTuple, Optional

import yaml

from .frames import (MAX_FRAME_BYTES, MAX_PCP, MAX_UNIQUE_ID, MAX_VID, MacAddress,
                     VlanTag)
from .srp import SR_CLASSES


class ConfigError(Exception):
    """Invalid scenario file; CLI maps this to exit code 2."""


_TIME_RE = re.compile(r"^\s*(\d+)(?:\.(\d+))?\s*(ns|us|ms|s)?\s*$")
_UNIT_NS = {"ns": 1, "us": 1_000, "ms": 1_000_000, "s": 1_000_000_000, None: 1}


def parse_time_ns(value, field_name: str = "time") -> int:
    """Parse '100ms', '25us', '3.5ms' or a bare integer (ns) to integer ns."""
    if isinstance(value, int):
        if value < 0:
            raise ConfigError(f"{field_name}: negative time {value}")
        return value
    if not isinstance(value, str):
        raise ConfigError(f"{field_name}: expected a time, got {value!r}")
    m = _TIME_RE.match(value)
    if m is None:
        raise ConfigError(f"{field_name}: cannot parse time {value!r}")
    whole, fraction, unit = m.groups()
    fraction = fraction or ""
    # the decimal as the integer of all its digits over 10**(digits after the point)
    try:
        scaled = int(whole + fraction) * _UNIT_NS[unit]
    except ValueError:          # more digits than int() converts
        raise ConfigError(f"{field_name}: cannot parse time {value!r}")
    ns, rest = divmod(scaled, 10 ** len(fraction))
    if rest:
        raise ConfigError(f"{field_name}: {value!r} is not a whole number of ns")
    return ns


class LinkConfig(NamedTuple):
    a: str
    b: str
    rate_bps: int
    propagation_ns: int


class ControlConfig:
    __slots__ = ("one_way_delay_ns", "processing_delay_ns")

    def __init__(self, one_way_delay_ns: int, processing_delay_ns: int) -> None:
        self.one_way_delay_ns = one_way_delay_ns
        self.processing_delay_ns = processing_delay_ns


class TalkerConfig(NamedTuple):
    node: str
    unique_id: int
    dst_group: MacAddress
    vlan: VlanTag
    sr_class: str
    frame_bytes: int
    interval_ns: int
    advertise_at_ns: int


class CrossTrafficConfig(NamedTuple):
    node: str
    dst_node: str
    frame_bytes: int
    send_interval_ns: int
    start_at_ns: int
    count: Optional[int] = None
    vlan: Optional[VlanTag] = None


class ScenarioConfig:
    """A parsed scenario; `parse_config` sets `talker`, `listeners` (the
    talker's listener nodes) and `cross_traffic` after the rest, and a caller
    may change `run_until_ns`."""

    __slots__ = ("name", "sdn_enabled", "idle_setup_ns", "run_until_ns", "clients",
                 "switches", "links", "controller", "control", "queue_capacity",
                 "shaper_enabled", "convergence_bound_ns", "talker", "listeners",
                 "cross_traffic")

    def __init__(self, name: str, sdn_enabled: bool, idle_setup_ns: int,
                 run_until_ns: int, clients: list, switches: list, links: list,
                 controller: Optional[str], control: ControlConfig, queue_capacity: int,
                 shaper_enabled: bool, convergence_bound_ns: int) -> None:
        self.name = name
        self.sdn_enabled = sdn_enabled
        self.idle_setup_ns = idle_setup_ns
        self.run_until_ns = run_until_ns
        self.clients = clients
        self.switches = switches
        self.links = links
        self.controller = controller
        self.control = control
        self.queue_capacity = queue_capacity
        self.shaper_enabled = shaper_enabled
        self.convergence_bound_ns = convergence_bound_ns
        self.talker: Optional[TalkerConfig] = None
        self.listeners: list = []
        self.cross_traffic: Optional[CrossTrafficConfig] = None

    def hyperperiod_ns(self) -> Optional[int]:
        """The least common multiple of the traffic sources' intervals, the
        period a settled network repeats with; None without a source."""
        intervals = []
        if self.talker is not None:
            intervals.append(self.talker.interval_ns)
        if self.cross_traffic is not None:
            intervals.append(self.cross_traffic.send_interval_ns)
        return math.lcm(*intervals) if intervals else None

    def adjacency(self) -> dict:
        adj: dict = {n: set() for n in (*self.clients, *self.switches)}
        for link in self.links:
            adj[link.a].add(link.b)
            adj[link.b].add(link.a)
        return adj


def hops(adjacency: dict, start: str) -> dict:
    """Each node reachable from `start`, mapped to the number of links on its
    shortest path; on a stream's path, the egress ports it leaves, the
    talker's NIC included."""
    dist = {start: 0}
    queue = [start]
    for node in queue:          # breadth first: the queue grows as it is walked
        for neigh in adjacency[node]:
            if neigh not in dist:
                dist[neigh] = dist[node] + 1
                queue.append(neigh)
    return dist


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required field '{key}'")
    return mapping[key]


_EXPECTED = {dict: "a mapping", list: "a list", str: "a node name", bool: "true or false"}


def _typed(value, kind: type, name: str):
    """`value` if it is a `kind`; anything else is refused naming the field.
    A bool must be a YAML boolean: bool() reads a quoted "false" as true."""
    if not isinstance(value, kind):
        raise ConfigError(f"{name}: expected {_EXPECTED[kind]}, got {value!r}")
    return value


def _items(value, kind: type, name: str) -> list:
    """The list section `name`, each of its items a `kind`."""
    return [_typed(item, kind, f"{name}[{i}]")
            for i, item in enumerate(_typed(value, list, name))]


def _section(raw: dict, key: str, source: str) -> dict:
    """The mapping section `key`, empty when absent."""
    return _typed(raw.get(key, {}), dict, f"{source}: {key}")


def _int(value, name: str, lo: int, hi: Optional[int] = None) -> int:
    """An integer in [lo, hi] (no upper limit when hi is None); anything else,
    a fraction included, is refused naming the field."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    if hi is None and number < lo:
        raise ConfigError(f"{name}: {number} is less than {lo}")
    if hi is not None and not lo <= number <= hi:
        raise ConfigError(f"{name}: {number} outside [{lo}, {hi}]")
    return number


def _interval_ns(value, name: str) -> int:
    interval = parse_time_ns(value, name)
    if interval <= 0:
        raise ConfigError(f"{name}: must be positive")
    return interval


def _vlan(vid, pcp, where: str) -> VlanTag:
    return VlanTag(_int(vid, f"{where}.vid", 0, MAX_VID),
                   _int(pcp, f"{where}.pcp", 0, MAX_PCP))


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    try:
        # libyaml's parser when PyYAML was built with it: the same documents
        raw = yaml.load(path.read_text(), Loader=getattr(yaml, "CSafeLoader",
                                                         yaml.SafeLoader))
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}")
    except IsADirectoryError:
        raise ConfigError(f"scenario is a directory, not a file: {path}")
    except PermissionError:
        raise ConfigError(f"scenario file not readable: {path}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return parse_config(raw, source=str(path))


def parse_config(raw: dict, source: str = "<config>") -> ScenarioConfig:
    name = raw.get("name", source)
    sdn_enabled = _typed(_require(raw, "sdn_enabled", source), bool,
                         f"{source}: sdn_enabled")
    controller = raw.get("controller")
    if not sdn_enabled and controller is not None:
        raise ConfigError(f"{source}: sdn_enabled=false forbids a controller node")
    if sdn_enabled and controller is None:
        raise ConfigError(f"{source}: sdn_enabled=true requires a controller node")

    clients = _items(_require(raw, "clients", source), str, f"{source}: clients")
    switches = _items(_require(raw, "switches", source), str, f"{source}: switches")
    names = clients + switches
    if len(set(names)) != len(names):
        raise ConfigError(f"{source}: duplicate node names")
    if controller is not None:
        # a node of its own, beside the clients and the switches
        _typed(controller, str, f"{source}: controller")
        for kind, nodes in (("client", clients), ("switch", switches)):
            if controller in nodes:
                raise ConfigError(f"{source}: controller: {controller!r} is already "
                                  f"the name of a {kind}")

    defaults = _section(raw, "defaults", source)
    default_rate = _int(defaults.get("link_rate_bps", 100_000_000),
                        f"{source}: defaults.link_rate_bps", 1)
    default_prop = parse_time_ns(defaults.get("propagation", 0), "defaults.propagation")

    links = []
    for i, item in enumerate(_items(_require(raw, "links", source), dict, f"{source}: links")):
        where = f"{source}: links[{i}]"
        a, b = _require(item, "a", where), _require(item, "b", where)
        for end in (a, b):
            if end not in names:
                raise ConfigError(f"{where}: unknown node '{end}'")
        rate = _int(item.get("rate_bps", default_rate), f"{where}.rate_bps", 1)
        links.append(LinkConfig(a, b, rate,
                                parse_time_ns(item.get("propagation", default_prop),
                                              f"{where}.propagation")))

    control_raw = _section(raw, "control", source)
    cfg = ScenarioConfig(
        name=name,
        sdn_enabled=sdn_enabled,
        idle_setup_ns=parse_time_ns(raw.get("idle_setup", "100ms"), "idle_setup"),
        run_until_ns=parse_time_ns(_require(raw, "run_until", source), "run_until"),
        clients=clients,
        switches=switches,
        links=links,
        controller=controller,
        control=ControlConfig(
            one_way_delay_ns=parse_time_ns(control_raw.get("one_way_delay", "25us"),
                                           "control.one_way_delay"),
            processing_delay_ns=parse_time_ns(control_raw.get("processing_delay", "25us"),
                                              "control.processing_delay"),
        ),
        # a queue that holds no frame drops every one
        queue_capacity=_int(raw.get("queue_capacity", 100), f"{source}: queue_capacity", 1),
        shaper_enabled=_typed(raw.get("shaper_enabled", True), bool,
                              f"{source}: shaper_enabled"),
        convergence_bound_ns=parse_time_ns(raw.get("convergence_bound", "10ms"),
                                           "convergence_bound"),
    )

    if "talker" in raw:
        t = _section(raw, "talker", source)
        where = f"{source}: talker"
        node = _require(t, "node", where)
        if node not in clients:
            raise ConfigError(f"{where}: unknown client '{node}'")
        sr_class = str(t.get("sr_class", "A"))
        if sr_class not in SR_CLASSES:
            raise ConfigError(f"{where}: unknown SR class '{sr_class}'")
        try:
            dst_group = MacAddress.parse(str(_require(t, "dst_group", where)))
        except ValueError as exc:
            raise ConfigError(f"{where}.dst_group: {exc}")
        if not dst_group.is_multicast:
            raise ConfigError(f"{where}.dst_group: must be a multicast address")
        class_pcp = SR_CLASSES[sr_class].pcp
        vlan = _vlan(_require(t, "vid", where), t.get("pcp", class_pcp), where)
        if vlan.pcp != class_pcp:
            # admission shapes the class's queue; frames in another would bypass it
            raise ConfigError(f"{where}.pcp: {vlan.pcp} is not the PCP of SR class "
                              f"{sr_class} ({class_pcp})")
        cfg.talker = TalkerConfig(
            node=node,
            unique_id=_int(t.get("unique_id", 1), f"{where}.unique_id", 0, MAX_UNIQUE_ID),
            dst_group=dst_group,
            vlan=vlan,
            sr_class=sr_class,
            # shorter frames are padded to the Ethernet minimum when built
            frame_bytes=_int(t.get("frame_bytes", 150), f"{where}.frame_bytes",
                             1, MAX_FRAME_BYTES),
            interval_ns=_interval_ns(t.get("interval", "125us"), f"{where}.interval"),
            advertise_at_ns=parse_time_ns(t.get("advertise_at", cfg.idle_setup_ns),
                                          f"{where}.advertise_at"),
        )

    for i, item in enumerate(_items(raw.get("listeners", []), dict, f"{source}: listeners")):
        where = f"{source}: listeners[{i}]"
        node = _require(item, "node", where)
        if node not in clients:
            raise ConfigError(f"{where}: unknown client '{node}'")
        unique_id = _int(item.get("unique_id", 1), f"{where}.unique_id", 0, MAX_UNIQUE_ID)
        if cfg.talker is not None and unique_id != cfg.talker.unique_id:
            raise ConfigError(f"{where}.unique_id: {unique_id} names no talker "
                              f"(talker.unique_id is {cfg.talker.unique_id})")
        cfg.listeners.append(node)

    if "cross_traffic" in raw:
        c = _section(raw, "cross_traffic", source)
        where = f"{source}: cross_traffic"
        node = _require(c, "node", where)
        dst = _require(c, "dst_node", where)
        for n in (node, dst):
            if n not in clients:
                raise ConfigError(f"{where}: unknown client '{n}'")
        vlan = None
        if c.get("vid") is not None:
            vlan = _vlan(c["vid"], c.get("pcp", 0), where)
        elif c.get("pcp") is not None:
            raise ConfigError(f"{where}.pcp: needs a vid, the VLAN tag that carries it")
        cfg.cross_traffic = CrossTrafficConfig(
            node=node,
            dst_node=dst,
            frame_bytes=_int(c.get("frame_bytes", 1000), f"{where}.frame_bytes",
                             1, MAX_FRAME_BYTES),
            send_interval_ns=_interval_ns(c.get("send_interval", "100us"),
                                          f"{where}.send_interval"),
            start_at_ns=parse_time_ns(c.get("start_at", cfg.idle_setup_ns),
                                      f"{where}.start_at"),
            count=(_int(c["count"], f"{where}.count", 1)
                   if c.get("count") is not None else None),
            vlan=vlan,
        )

    if names:
        if len(hops(cfg.adjacency(), names[0])) != len(names):
            raise ConfigError(f"{source}: topology graph is not connected")
        # a connected graph is a tree iff it has one link fewer than nodes; this
        # also refuses parallel links and self-loops, which no bridge forwards over
        if len(links) != len(names) - 1:
            raise ConfigError(f"{source}: topology is not a tree: {len(links)} links "
                              f"for {len(names)} nodes (a loop-free network has "
                              f"{len(names) - 1})")

    return cfg
