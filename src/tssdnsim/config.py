"""Scenario configuration: YAML loading, unit-suffixed times, validation.

`SCHEMA` is the one place a scenario key is defined: its parser and its
default. A section loads as a `Section`, one attribute per key under the
key's own name, with times in integer ns; the top level loads as a
`ScenarioConfig`, a `Section` too. `parse_config` then checks the rules that
span keys and sets the few derived values.
"""

from __future__ import annotations

import math
import re
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

import yaml

from .frames import (MAX_FRAME_BYTES, MAX_PCP, MAX_UNIQUE_ID, MAX_VID, MacAddress,
                     VlanTag)
from .srp import SR_CLASSES


class ConfigError(Exception):
    """Invalid scenario file; CLI maps this to exit code 2."""


# `scenario.client_mac` numbers a client in the last two octets of its MAC
MAX_CLIENTS = 0xFFFF


_TIME_RE = re.compile(r"^\s*(\d+)(?:\.(\d+))?\s*(ns|us|ms|s)?\s*$")
_UNIT_NS = {"ns": 1, "us": 1_000, "ms": 1_000_000, "s": 1_000_000_000, None: 1}


def parse_time_ns(value, field_name: str = "time") -> int:
    """Parse '100ms', '25us', '3.5ms' or a bare integer (ns) to integer ns;
    a boolean is no time, though Python's bool is an int."""
    if isinstance(value, int) and not isinstance(value, bool):
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


class Section:
    """A parsed section of a scenario: one attribute per key of its `SCHEMA`
    table, named as the key, holding the parsed value (a time in integer ns).
    Its attributes live in a `__dict__`, so the fast-forward only ever keeps
    a section as a static field. Only the attributes it was built with can
    be assigned: a misspelled one would change nothing."""

    def __init__(self, **values) -> None:
        vars(self).update(values)

    def __setattr__(self, name: str, value) -> None:
        if name not in vars(self):
            raise AttributeError(f"{type(self).__name__} has no attribute {name!r}")
        super().__setattr__(name, value)


class ScenarioConfig(Section):
    """A parsed scenario: the top-level section, its sections as attributes,
    `talker.vlan` set from its vid and its SR class's PCP, `cross_traffic.vlan`
    from its vid and pcp, and no `defaults`, which the links have read. A
    caller may change `run_until`."""

    def adjacency(self) -> dict:
        adj: dict = {n: set() for n in (*self.clients, *self.switches)}
        for link in self.links:
            adj[link.a].add(link.b)
            adj[link.b].add(link.a)
        return adj


def _walk(adjacency: dict, start: str) -> dict:
    """Each node reachable from `start`, mapped to the tuple of nodes on its
    path from `start`, both ends included; over a tree, the one path."""
    path = {start: (start,)}
    queue = [start]
    for node in queue:          # breadth first: the queue grows as it is walked
        for neigh in adjacency[node]:
            if neigh not in path:
                path[neigh] = path[node] + (neigh,)
                queue.append(neigh)
    return path


def paths(cfg: ScenarioConfig) -> tuple:
    """The nodes the talker's stream crosses to each listener, in `listeners`
    order, from the talker's node to the listener's. The loader refuses
    parallel links, so a hop (node, next) leaves by the one port of `node`
    whose peer is `next`: a path of n nodes has n - 1 egress ports, the
    talker's NIC included."""
    walk = _walk(cfg.adjacency(), cfg.talker.node)
    return tuple(walk[listener.node] for listener in cfg.listeners)


REQUIRED = object()         # the default of a key that its section must give


class Field(NamedTuple):
    parse: Callable
    default: object = REQUIRED
    sdn: bool = False


def _fields(given, table: dict, prefix: str, top: dict, out: dict) -> dict:
    """`out` with each key of `table` read from `given` in table order, by
    `parse(value, name, top)`; `top` holds the top-level values read so far."""
    for key in given:
        if key not in table:
            raise ConfigError(f"{prefix}{key}: unknown key; expected one of {', '.join(table)}")
    for key, (parse, default, sdn) in table.items():
        name = prefix + key
        if sdn and not top["sdn_enabled"]:
            if key in given:
                raise ConfigError(f"{name}: needs sdn_enabled: true")
            out[key] = None
        elif key in given:
            out[key] = parse(given[key], name, top)
        elif default is REQUIRED:
            raise ConfigError(f"{name}: missing required field")
        else:
            value = default(top, out) if callable(default) else default
            out[key] = None if value is None else parse(value, name, top)
    return out


def _typed(kind: type, what: str, within=None):
    """A value of `kind` and, given `within(top)`, one of what that returns;
    anything else is refused naming the field. A bool must be a YAML boolean:
    bool() reads a quoted "false" as true."""
    def parse(value, name, top=None):
        if not isinstance(value, kind) or within is not None and value not in within(top):
            raise ConfigError(f"{name}: expected {what}, got {value!r}")
        return value
    return parse


def _items(parse):
    return lambda value, name, top: [parse(item, f"{name}[{i}]", top) for i, item
                                     in enumerate(_typed(list, "a list")(value, name))]


def _section(key: str):
    def parse(value, name, top):
        out = _fields(_typed(dict, "a mapping")(value, name), SCHEMA[key], f"{name}.", top, {})
        if key == "talker":     # its SR class gives the PCP its frames carry
            out["vlan"] = VlanTag(out["vid"], SR_CLASSES[out["sr_class"]].pcp)
        elif key == "cross_traffic":        # untagged without a vid
            out["vlan"] = None if out["vid"] is None else VlanTag(out["vid"], out["pcp"])
        return Section(**out)
    return parse


def _integer(value, name: str) -> int:
    try:
        number = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, float) and number != value:
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return number


def _ranged(read, lo: int = 0, hi=math.inf):
    """A number in [lo, hi], read by `read(value, name)`."""
    def parse(value, name, top):
        number = read(value, name)
        if not lo <= number <= hi:
            raise ConfigError(f"{name}: {number} is outside [{lo}, {hi}]")
        return number
    return parse


_int = partial(_ranged, _integer)
_time = partial(_ranged, parse_time_ns)
_node = _typed(str, "a node name")
_client = _typed(str, "the name of a client", lambda top: top["clients"])
_link_end = _typed(str, "the name of a client or a switch",
                   lambda top: top["clients"] + top["switches"])


def _multicast(value, name, top) -> MacAddress:
    if not isinstance(value, str):      # YAML reads 91:00:00:00:00:01 as a number
        raise ConfigError(f"{name}: expected a MAC address in quotes, as "
                          f"\"91:E0:F0:00:00:01\", got {value!r}")
    try:
        group = MacAddress.parse(value)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}")
    if not group.is_multicast:
        raise ConfigError(f"{name}: must be a multicast address")
    return group


# Every scenario key, by section ("" is the top level), read in this order,
# and each the name of its section's attribute. A default is a YAML value, read like a given one; a function of the top-level
# values and the section read so far; None, for absent; or REQUIRED. An `sdn`
# key is refused without `sdn_enabled: true`, and is None there.
SCHEMA = {
    "": {
        "name": Field(_typed(str, "a string"), None),
        "sdn_enabled": Field(_typed(bool, "true or false")),
        "idle_setup": Field(_time(), "100ms"),
        "run_until": Field(_time()),
        # a queue that holds no frame drops every one
        "queue_capacity": Field(_int(1), 100),
        "shaper_enabled": Field(_typed(bool, "true or false"), True),
        "convergence_bound": Field(_time(), "10ms"),
        "clients": Field(_items(_node)),
        "switches": Field(_items(_node)),
        "control": Field(_section("control"), {}, sdn=True),
        "defaults": Field(_section("defaults"), {}),
        "links": Field(_items(_section("links"))),
        "talker": Field(_section("talker"), None),
        "listeners": Field(_items(_section("listeners")), []),
        "cross_traffic": Field(_section("cross_traffic"), None),
    },
    "control": {"one_way_delay": Field(_time(), "25us"),
                "processing_delay": Field(_time(), "25us")},
    "defaults": {"link_rate_bps": Field(_int(1), 100_000_000),
                 "propagation": Field(_time(), 0)},
    "links": {
        "a": Field(_link_end),
        "b": Field(_link_end),
        "rate_bps": Field(_int(1), lambda top, link: top["defaults"].link_rate_bps),
        "propagation": Field(_time(), lambda top, link: top["defaults"].propagation),
    },
    "talker": {
        "node": Field(_client),
        "unique_id": Field(_int(0, MAX_UNIQUE_ID), 1),
        "dst_group": Field(_multicast),
        # VID 0 tags a frame with its priority alone, in no VLAN
        "vid": Field(_int(1, MAX_VID)),
        "sr_class": Field(_typed(str, "an SR class", lambda top: SR_CLASSES), "A"),
        # shorter frames are padded to the Ethernet minimum when built
        "frame_bytes": Field(_int(1, MAX_FRAME_BYTES), 150),
        "interval": Field(_time(1), "125us"),
        "advertise_at": Field(_time(), lambda top, talker: top["idle_setup"]),
    },
    "listeners": {"node": Field(_client)},
    "cross_traffic": {
        "node": Field(_client),
        "dst_node": Field(_client),
        "frame_bytes": Field(_int(1, MAX_FRAME_BYTES), 1000),
        "send_interval": Field(_time(1), "100us"),
        "start_at": Field(_time(), lambda top, cross: top["idle_setup"]),
        "count": Field(_int(1), None),
        "vid": Field(_int(0, MAX_VID), None),
        "pcp": Field(_int(0, MAX_PCP), lambda top, cross: None if cross["vid"] is None else 0),
    },
}


class _KeyGivenTwice(yaml.YAMLError):
    """A key given twice in one mapping, of which YAML keeps the last value."""


class _UniqueKeys:
    """Mixed into a PyYAML loader: a mapping that gives a key twice is refused."""

    def construct_mapping(self, node, deep=False):
        lines: dict = {}        # each key -> the line it is first given on, from 1
        for key_node, _ in node.value:
            # `<<` merges in a mapping whose keys this one may override, and a
            # key that is no scalar the base refuses as unhashable
            if key_node.tag == "tag:yaml.org,2002:merge" \
                    or not isinstance(key_node, yaml.ScalarNode):
                continue
            key = self.construct_object(key_node)
            line = key_node.start_mark.line + 1
            if key in lines:
                raise _KeyGivenTwice(f"line {line}: {key}: given twice "
                                     f"(first on line {lines[key]})")
            lines[key] = line
        return super().construct_mapping(node, deep)


@cache
def _unique_keys(loader: type) -> type:
    return type(loader.__name__, (_UniqueKeys, loader), {})


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    # libyaml's parser when PyYAML was built with it: the same documents
    loader = _unique_keys(getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    try:
        raw = yaml.load(path.read_text(), Loader=loader)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}")
    except IsADirectoryError:
        raise ConfigError(f"scenario is a directory, not a file: {path}")
    except PermissionError:
        raise ConfigError(f"scenario file not readable: {path}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}")
    except _KeyGivenTwice as exc:
        raise ConfigError(f"{path}: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return parse_config(raw, source=str(path))


def parse_config(raw: dict, source: str = "<config>") -> ScenarioConfig:
    top: dict = {}
    cfg = ScenarioConfig(**_fields(raw, SCHEMA[""], f"{source}: ", top, top))
    del cfg.defaults
    if cfg.name is None:
        cfg.name = source
    names = cfg.clients + cfg.switches
    if len(set(names)) != len(names):
        raise ConfigError(f"{source}: duplicate node names")
    if len(cfg.clients) > MAX_CLIENTS:
        raise ConfigError(f"{source}: clients: {len(cfg.clients)} clients; at most "
                          f"{MAX_CLIENTS}")
    t = cfg.talker
    listening: dict = {}        # node -> the index of its listener
    for i, listener in enumerate(cfg.listeners):
        # a listener subscribes to the talker's stream, over a path with a port
        if t is not None and listener.node == t.node:
            raise ConfigError(f"{source}: listeners[{i}].node: {t.node!r} is the "
                              "talker's node")
        # each listener records the stream under a flow named after its node
        if listener.node in listening:
            raise ConfigError(f"{source}: listeners[{i}].node: {listener.node!r} already "
                              f"listens (listeners[{listening[listener.node]}])")
        listening[listener.node] = i
    c = cfg.cross_traffic
    if c is not None:
        where = f"{source}: cross_traffic"
        if c.vid is None and c.pcp is not None:
            raise ConfigError(f"{where}.pcp: needs a vid, the VLAN tag that carries it")
        if c.dst_node == c.node:
            raise ConfigError(f"{where}.dst_node: {c.node!r} is the sending node itself")

    if names:
        adjacency = cfg.adjacency()
        if len(_walk(adjacency, names[0])) != len(names):
            raise ConfigError(f"{source}: topology graph is not connected")
        # a connected graph is a tree iff it has one link fewer than nodes; this
        # also refuses parallel links and self-loops, which no bridge forwards over
        links = len(cfg.links)
        if links != len(names) - 1:
            raise ConfigError(f"{source}: topology is not a tree: {links} links for "
                              f"{len(names)} nodes (a loop-free network has {len(names) - 1})")
        for client in cfg.clients:      # a host sends on its first port only
            if len(adjacency[client]) != 1:
                raise ConfigError(f"{source}: client {client!r} has "
                                  f"{len(adjacency[client])} links; a client needs exactly 1")
    return cfg
