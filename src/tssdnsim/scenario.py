"""Scenario construction and execution: build the network, run it, emit outputs."""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple, Optional

from .config import ScenarioConfig, paths
from .control import Controller
from .engine import Simulator, Trace
from .fastforward import Skipped, SteadyState
from .frames import MacAddress
from .hosts import UDP_FLOW, Host, Talker, UdpSource, listener_flows
from .metrics import (FlowSeqs, GuaranteeResult, MetricsSink, flow_seqs, guarantee_result,
                      pair_by_seq, write_control_trace, write_counters, write_frame_csv,
                      write_summary_csv)
from .network import connect
from .srp import SR_CLASSES
from .switching import Switch


def client_mac(index: int) -> MacAddress:
    """The MAC of the client declared `index`-th, numbered from 1 in its last
    two octets; the loader refuses more clients than these number."""
    return MacAddress(b"\x02\x00\x00\x00" + (index + 1).to_bytes(2, "big"))


class RunResult(NamedTuple):
    config: ScenarioConfig
    sink: MetricsSink
    stats: dict               # the whole run's `FlowStats` per flow
    stream_flows: tuple       # the talker's flow per listener, in `listeners` order
    counters: dict
    control_trace: list
    flow_installs: list
    stream_start_ns: Optional[int]
    lr_arrival_ns: Optional[int]
    udp_first_send_ns: Optional[int]
    scheduled_ports: Optional[int]
    skipped: Skipped
    rejected_ports: tuple     # names of the ports that rejected a reservation
    arp_given_up: tuple       # names of the hosts whose UDP source gave up on ARP

    @property
    def traffic_start_ns(self) -> Optional[int]:
        starts = [t for t in (self.stream_start_ns, self.udp_first_send_ns) if t is not None]
        return min(starts) if starts else None

    def steady_window(self) -> tuple:
        """Send-time window after the configured convergence bound, to run end."""
        start = self.traffic_start_ns
        if start is None:
            return (self.config.run_until, self.config.run_until)
        return (start + self.config.convergence_bound, self.config.run_until)

    def check_guarantee(self) -> GuaranteeResult:
        """The latency check of the talker's flows over the whole run: the
        greatest (latency, seq) of any listener's, the earlier listener's on
        a tie. A rejected reservation fails it whatever the latencies, since
        the stream then ran unreserved, and so does a host that gave up on
        ARP, since the cross traffic it was to send never met the stream.
        Without a talker and a listener there is no stream, and so no bound
        to check."""
        cfg = self.config
        if cfg.talker is None:
            return GuaranteeResult(False, None, None, "no talker configured")
        if not cfg.listeners:
            return GuaranteeResult(False, None, None, "no listener configured")
        observed = [st for st in map(self.stats.get, self.stream_flows) if st is not None]
        worst = max(observed, key=lambda st: (st.worst.latency_ns, st.worst.seq), default=None)
        result = guarantee_result(worst, SR_CLASSES[cfg.talker.sr_class], self.scheduled_ports)
        failures = ["reservation rejected on " + ", ".join(self.rejected_ports)] \
            if self.rejected_ports else []
        failures += [f"{host} gave up on ARP: its cross traffic never started"
                     for host in self.arp_given_up]
        if failures:
            return result._replace(passed=False, reason="; ".join(failures))
        return result

    def frame_csv_hash(self) -> str:
        # imported here: no run, check or compare hashes, and the import costs
        import hashlib
        lines = "\n".join(f"{flow}|{seq}|{send}|{recv}"
                          for flow, seq, send, recv in self.sink.rows())
        return hashlib.sha256(lines.encode()).hexdigest()


class Network(NamedTuple):
    """A scenario's model, built and with its traffic sources started."""

    sim: Simulator
    sink: MetricsSink
    hosts: dict
    switches: dict
    controller: Optional[Controller]
    sources: list       # the `Talker` and `UdpSource` of each configured flow

    def models(self) -> list:
        """Every model object the fast-forward covers."""
        nodes = [*self.hosts.values(), *self.switches.values()]
        models = [*self.sources, *nodes, *[port for node in nodes for port in node.ports]]
        for switch in self.switches.values():
            models += [switch.flow_table, switch.sr_table]
        if self.controller is not None:
            models += [self.controller, *self.controller.sr_tables.values(),
                       *self.controller.channels.values()]
        return models + [self.sink]


def build_network(cfg: ScenarioConfig, trace: Optional[Trace] = None) -> Network:
    """Build the scenario's network and start its applications; `trace`
    becomes `Simulator.trace`. Unless a trace hook is attached, `run_until`
    fast-forwards over the cycles the network repeats."""
    sim = Simulator()
    sim.trace = trace
    sink = MetricsSink()

    hosts: dict = {}
    for i, name in enumerate(cfg.clients):
        hosts[name] = Host(sim, name, client_mac(i), sink)

    switches: dict = {}
    for name in cfg.switches:
        switches[name] = Switch(sim, name, sdn=cfg.sdn_enabled, sink=sink)
    nodes = {**hosts, **switches}

    for link in cfg.links:
        connect(nodes[link.a], nodes[link.b], link.rate_bps, link.propagation,
                cfg.queue_capacity, cfg.shaper_enabled)

    controller = None
    if cfg.sdn_enabled:
        controller = Controller(sim)
        for name in cfg.switches:
            controller.attach_switch(switches[name], cfg.control)
        controller.start()

    sources = []
    if cfg.talker is not None:
        flows = listener_flows(cfg.talker.unique_id,
                               [listener.node for listener in cfg.listeners])
        sources.append(Talker(hosts[cfg.talker.node], cfg.talker, flows))
        for listener, flow in zip(cfg.listeners, flows):
            hosts[listener.node].run_listener(cfg.talker.unique_id, flow)
    if cfg.cross_traffic is not None:
        sources.append(UdpSource(hosts[cfg.cross_traffic.node], cfg.cross_traffic))

    net = Network(sim, sink, hosts, switches, controller, sources)
    if sources:
        # the hyperperiod, the period a settled network repeats with
        period = math.lcm(*[source.interval for source in sources])
        sim.boundary = SteadyState(sim, period, net.models(), sources)
    return net


def run_scenario(cfg: ScenarioConfig, trace: Optional[Trace] = None) -> RunResult:
    """Build the scenario's network and run it; `trace` becomes `Simulator.trace`."""
    net = build_network(cfg, trace)
    sim, sink, hosts, switches = net.sim, net.sink, net.hosts, net.switches
    sim.run_until(cfg.run_until)
    sources = {type(source): source for source in net.sources}
    talker, udp = sources.get(Talker), sources.get(UdpSource)
    controller = net.controller

    scheduled_ports = None
    if cfg.talker is not None and cfg.listeners:
        # the nearest listener's: every frame is held to the tightest bound
        scheduled_ports = min(len(path) - 1 for path in paths(cfg))

    counters = {name: switches[name].counters() for name in cfg.switches}
    sent = {(type(source), source.host.name): source.seq for source in net.sources}
    for name, host in hosts.items():
        counters[name] = {
            "sent_stream": sent.get((Talker, name), 0),
            "sent_udp": sent.get((UdpSource, name), 0),
            "dropped_overflow": sum(p.dropped_overflow for p in host.ports),
        }

    stats = sink.flow_stats()
    # each source's first send, the earliest in the stats of its flows
    first = {flow: st.first_send_ns for flow, st in stats.items()}
    stream_flows = talker.flows if talker is not None else ()
    stream_start = min([first[flow] for flow in stream_flows if flow in first], default=None)
    if stream_start is None and talker is not None and talker.seq:
        stream_start = talker.lr_arrival_ns + talker.interval

    return RunResult(
        config=cfg,
        sink=sink,
        stats=stats,
        stream_flows=stream_flows,
        counters=counters,
        control_trace=list(controller.trace) if controller else [],
        flow_installs=list(controller.flow_installs) if controller else [],
        stream_start_ns=stream_start,
        lr_arrival_ns=talker.lr_arrival_ns if talker else None,
        udp_first_send_ns=first.get(UDP_FLOW),
        scheduled_ports=scheduled_ports,
        rejected_ports=tuple(port.name for node in (*hosts.values(), *switches.values())
                             for port in node.ports if port.reservations_rejected),
        arp_given_up=(udp.host.name,) if udp is not None and udp.arp_given_up else (),
        skipped=(sim.boundary.summary() if sim.boundary is not None
                 else Skipped(0, None, reason="no periodic traffic source")),
    )


def emit_outputs(result: RunResult, outdir) -> None:
    """Write per-frame CSV, summary CSV, control trace, counters and a report."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ws, we = result.steady_window()
    stats = result.sink.flow_stats(ws, we)
    write_frame_csv(outdir / "frames.csv", result.sink)
    write_summary_csv(outdir / "summary.csv", stats, ws, we)
    write_counters(outdir / "counters.json", result.counters)
    if result.control_trace:
        write_control_trace(outdir / "control_trace.log", result.control_trace)
    (outdir / "report.txt").write_text(format_report(result, stats, ws, we))


def format_report(result: RunResult, stats: dict, ws: int, we: int) -> str:
    cfg = result.config
    lines = [f"scenario: {cfg.name}",
             f"sdn_enabled: {cfg.sdn_enabled}",
             f"run_until_ns: {cfg.run_until}",
             f"frames recorded: {result.sink.count}",
             f"summary window (send_ns): [{ws}, {we})"]
    for flow in sorted(stats):
        st = stats[flow]
        if st is None:
            lines.append(f"  {flow}: empty window")
        else:
            lines.append(f"  {flow}: n={st.count} min={st.min_ns} "
                         f"mean={st.mean_ns:.1f} max={st.max_ns} (ns)")
    if result.stream_start_ns is not None:
        lines.append(f"stream start: {result.stream_start_ns} ns")
    if result.udp_first_send_ns is not None:
        lines.append(f"first UDP send: {result.udp_first_send_ns} ns")
    lines.append(result.skipped.line())
    gr = result.check_guarantee()
    bound = ("" if gr.limit_ns is None else
             f" ({gr.limit_ns} ns over {result.scheduled_ports} scheduled ports)")
    lines.append(f"guarantee check{bound}: {'PASS' if gr.passed else 'FAIL'} -- {gr.reason}")
    for warning in result.sink.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def compare_report(sdn: RunResult, nosdn: RunResult) -> str:
    """Differential SDN vs no-SDN report over the seqs both steady windows hold.

    Each run keeps its own steady window; records are paired by (flow, seq),
    so a setup shift that moves which seqs a window holds adds no delta. The
    pairs are counted from each block's progressions without expanding
    them, and the latency sums are integers, so each mean is the one a
    per-seq pairing gives.

    A flow recorded in one run only is named with that run, and then every
    delta is marked: it compares runs that carried different traffic.
    """
    (sws, swe), (nws, nwe) = sdn.steady_window(), nosdn.steady_window()
    sdn_seqs, nosdn_seqs = flow_seqs(sdn.sink, sws, swe), flow_seqs(nosdn.sink, nws, nwe)
    sdn_flows, nosdn_flows = sdn.sink.flows(), nosdn.sink.flows()
    only_in = {**dict.fromkeys(sdn_flows - nosdn_flows, "SDN"),
               **dict.fromkeys(nosdn_flows - sdn_flows, "noSDN")}
    unlike = "; the runs carried different traffic" if only_in else ""
    lines = ["SDN vs no-SDN comparison",
             f"steady-state windows (send_ns): SDN [{sws}, {swe}), noSDN [{nws}, {nwe})"]
    if sdn.stream_start_ns is not None and nosdn.stream_start_ns is not None:
        delta = sdn.stream_start_ns - nosdn.stream_start_ns
        lines.append(f"stream start delta (SDN - noSDN): {delta} ns")
    for flow in sorted(sdn_seqs.keys() | nosdn_seqs.keys() | only_in.keys()):
        if flow in only_in:
            lines.append(f"  {flow}: recorded only in the {only_in[flow]} run")
            continue
        count, sum_sdn, sum_nosdn = pair_by_seq(sdn_seqs.get(flow, FlowSeqs()),
                                                nosdn_seqs.get(flow, FlowSeqs()))
        if not count:
            lines.append(f"  {flow}: no seq in both steady windows")
            continue
        mean_a = sum_sdn / count
        mean_b = sum_nosdn / count
        lines.append(f"  {flow}: steady mean delta {mean_a - mean_b:+.1f} ns over "
                     f"{count} seqs (SDN {mean_a:.1f} vs noSDN {mean_b:.1f}){unlike}")
    return "\n".join(lines) + "\n"
