"""Scenario construction and execution: build the network, run it, emit outputs."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

from .config import ScenarioConfig
from .control import Controller
from .engine import Endpoint, Link, Simulator, Trace
from .fastforward import Skipped, SteadyState
from .frames import MacAddress
from .hosts import Host
from .metrics import (GuaranteeResult, LatencyRecord, MetricsSink, write_control_trace,
                      write_counters, write_frame_csv, write_summary_csv)
from .srp import SR_CLASSES, count_scheduled_ports
from .switching import Switch


def client_mac(index: int) -> MacAddress:
    return MacAddress(bytes([0x02, 0, 0, 0, 0, index + 1]))


@dataclass
class RunResult:
    config: ScenarioConfig
    sink: MetricsSink
    counters: dict
    control_trace: list
    flow_installs: list
    stream_start_ns: Optional[int]
    lr_arrival_ns: Optional[int]
    udp_first_send_ns: Optional[int]
    scheduled_ports: Optional[int]
    skipped: Skipped

    @property
    def records(self) -> list:
        """Every record, each block's copies expanded, in `frames.csv` order."""
        return list(map(LatencyRecord._make, self.sink.rows()))

    def stream_records(self) -> list:
        return sorted((r for r in self.records if r.flow.startswith("stream")),
                      key=lambda r: r.seq)

    def udp_records(self) -> list:
        return sorted((r for r in self.records if r.flow == "udp"), key=lambda r: r.seq)

    @property
    def traffic_start_ns(self) -> Optional[int]:
        starts = [t for t in (self.stream_start_ns, self.udp_first_send_ns) if t is not None]
        return min(starts) if starts else None

    def steady_window(self) -> tuple:
        """Send-time window after the configured convergence bound, to run end."""
        start = self.traffic_start_ns
        if start is None:
            return (self.config.run_until_ns, self.config.run_until_ns)
        return (start + self.config.convergence_bound_ns, self.config.run_until_ns)

    def check_guarantee(self) -> GuaranteeResult:
        cls = SR_CLASSES[self.config.talker.sr_class] if self.config.talker else SR_CLASSES["A"]
        ports = self.scheduled_ports if self.scheduled_ports else 1
        return self.sink.check_guarantee(cls, ports)

    def frame_csv_hash(self) -> str:
        lines = "\n".join(f"{flow}|{seq}|{send}|{recv}"
                          for flow, seq, send, recv in self.sink.rows())
        return hashlib.sha256(lines.encode()).hexdigest()


class Network(NamedTuple):
    """A scenario's model, built and with its applications started."""

    sim: Simulator
    sink: MetricsSink
    hosts: dict
    switches: dict
    controller: Optional[Controller]

    def models(self) -> list:
        """Every model object the fast-forward covers, hosts first."""
        nodes = [*self.hosts.values(), *self.switches.values()]
        models = nodes + [port for node in nodes for port in node.ports]
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
        hosts[name] = Host(sim, name, client_mac(i), protocol_addr=name, sink=sink)

    switches: dict = {}
    for name in cfg.switches:
        switches[name] = Switch(sim, name, sdn=cfg.sdn_enabled, log=sink.warn)
    nodes = {**hosts, **switches}

    for link_cfg in cfg.links:
        node_a, node_b = nodes[link_cfg.a], nodes[link_cfg.b]
        link = Link(a=None, b=None, rate_bps=link_cfg.rate_bps,
                    propagation_ns=link_cfg.propagation_ns,
                    name=f"{link_cfg.a}--{link_cfg.b}")
        port_a = node_a.attach_port(link, queue_capacity=cfg.queue_capacity,
                                    shaper_enabled=cfg.shaper_enabled)
        port_b = node_b.attach_port(link, queue_capacity=cfg.queue_capacity,
                                    shaper_enabled=cfg.shaper_enabled)
        link.a = Endpoint(node_a, port_a)
        link.b = Endpoint(node_b, port_b)

    controller = None
    if cfg.sdn_enabled:
        controller = Controller(sim, cfg.controller, log=sink.warn)
        for name in cfg.switches:
            controller.attach_switch(switches[name],
                                     cfg.control.one_way_delay_ns,
                                     cfg.control.processing_delay_ns)
        controller.start()

    if cfg.talker is not None:
        hosts[cfg.talker.node].run_talker(cfg.talker)
    for spec in cfg.listeners:
        hosts[spec.node].run_listener(spec.unique_id)

    if cfg.cross_traffic is not None:
        hosts[cfg.cross_traffic.node].run_udp_source(cfg.cross_traffic)

    net = Network(sim, sink, hosts, switches, controller)
    period = cfg.hyperperiod_ns()
    if period is not None:
        sim.boundary = SteadyState(sim, period, net.models())
    return net


def run_scenario(cfg: ScenarioConfig, trace: Optional[Trace] = None) -> RunResult:
    """Build the scenario's network and run it; `trace` becomes `Simulator.trace`."""
    net = build_network(cfg, trace)
    sim, sink, hosts, switches = net.sim, net.sink, net.hosts, net.switches
    sim.run_until(cfg.run_until_ns)
    talker_host = hosts[cfg.talker.node] if cfg.talker is not None else None
    cross_host = hosts[cfg.cross_traffic.node] if cfg.cross_traffic is not None else None
    controller = net.controller

    scheduled_ports = None
    if cfg.talker is not None and cfg.listeners:
        scheduled_ports = count_scheduled_ports(
            cfg.adjacency(), cfg.talker.node, cfg.listeners[0].node)

    # the first sends are stored records: a block's copies come after its template
    stream_records = [r for r in sink.records if r.flow.startswith("stream")]
    udp_sent = cross_host.udp_seq if cross_host is not None else 0
    first_udp = None
    if cross_host is not None and udp_sent:
        udp_recs = [r for r in sink.records if r.flow == "udp"]
        if udp_recs:
            first_udp = min(r.send_ns for r in udp_recs)

    counters = {name: switches[name].counters() for name in cfg.switches}
    for name, host in hosts.items():
        counters[name] = {
            "sent_stream": host.sent_stream,
            "sent_udp": host.sent_udp,
            "dropped_overflow": sum(p.dropped_overflow for p in host.ports),
        }

    stream_start = None
    if talker_host is not None and talker_host.lr_arrival_ns is not None \
            and talker_host.sent_stream:
        stream_start = min(r.send_ns for r in stream_records) if stream_records else None
        if stream_start is None:
            stream_start = talker_host.lr_arrival_ns + cfg.talker.interval_ns

    return RunResult(
        config=cfg,
        sink=sink,
        counters=counters,
        control_trace=list(controller.trace) if controller else [],
        flow_installs=list(controller.flow_installs) if controller else [],
        stream_start_ns=stream_start,
        lr_arrival_ns=talker_host.lr_arrival_ns if talker_host else None,
        udp_first_send_ns=first_udp,
        scheduled_ports=scheduled_ports,
        skipped=(sim.boundary.summary() if sim.boundary is not None
                 else Skipped(0, None, reason="no periodic traffic source")),
    )


def emit_outputs(result: RunResult, outdir) -> dict:
    """Write per-frame CSV, summary CSV, control trace, counters and a report."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ws, we = result.steady_window()
    stats = result.sink.summarize(ws, we)
    paths = {
        "frames": outdir / "frames.csv",
        "summary": outdir / "summary.csv",
        "counters": outdir / "counters.json",
        "report": outdir / "report.txt",
    }
    write_frame_csv(paths["frames"], result.sink)
    write_summary_csv(paths["summary"], stats, ws, we)
    write_counters(paths["counters"], result.counters)
    if result.control_trace:
        paths["control_trace"] = outdir / "control_trace.log"
        write_control_trace(paths["control_trace"], result.control_trace)
    paths["report"].write_text(format_report(result, stats, ws, we))
    return paths


PAPER_REFERENCE_NOTE = """\
Reference magnitudes (calibration-dependent, not pass/fail):
  no-SDN stream  min/mean/max = 110/390/499 us
  no-SDN UDP     min/mean/max = 423/481/820 us
  SDN stream     min/mean/max = 210/373/483 us
  SDN UDP        min/mean/max = 408/466/1478 us
"""


def format_report(result: RunResult, stats: dict, ws: int, we: int) -> str:
    cfg = result.config
    lines = [f"scenario: {cfg.name}",
             f"sdn_enabled: {cfg.sdn_enabled}",
             f"run_until_ns: {cfg.run_until_ns}",
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
    lines.append(f"guarantee check ({gr.limit_ns} ns over "
                 f"{result.scheduled_ports} scheduled ports): "
                 f"{'PASS' if gr.passed else 'FAIL'} -- {gr.reason}")
    for warning in result.sink.warnings:
        lines.append(f"warning: {warning}")
    lines.append("")
    lines.append(PAPER_REFERENCE_NOTE)
    return "\n".join(lines) + "\n"


def _steady_latencies(result: RunResult) -> dict:
    """flow -> {seq: latency_ns} for the frames sent in the run's steady window."""
    ws, we = result.steady_window()
    out: dict = {}
    for r in result.records:
        if ws <= r.send_ns < we:
            out.setdefault(r.flow, {})[r.seq] = r.latency_ns
    return out


def compare_report(sdn: RunResult, nosdn: RunResult) -> str:
    """Differential SDN vs no-SDN report over the seqs both steady windows hold.

    Each run keeps its own steady window; records are paired by (flow, seq),
    so a setup shift that moves which seqs a window holds adds no delta.
    """
    sdn_lat, nosdn_lat = _steady_latencies(sdn), _steady_latencies(nosdn)
    (sws, swe), (nws, nwe) = sdn.steady_window(), nosdn.steady_window()
    lines = ["SDN vs no-SDN comparison",
             f"steady-state windows (send_ns): SDN [{sws}, {swe}), noSDN [{nws}, {nwe})"]
    if sdn.stream_start_ns is not None and nosdn.stream_start_ns is not None:
        delta = sdn.stream_start_ns - nosdn.stream_start_ns
        lines.append(f"stream start delta (SDN - noSDN): {delta} ns")
    for flow in sorted(set(sdn_lat) | set(nosdn_lat)):
        a, b = sdn_lat.get(flow, {}), nosdn_lat.get(flow, {})
        common = a.keys() & b.keys()
        if not common:
            lines.append(f"  {flow}: no seq in both steady windows")
            continue
        mean_a = sum(a[s] for s in common) / len(common)
        mean_b = sum(b[s] for s in common) / len(common)
        lines.append(f"  {flow}: steady mean delta {mean_a - mean_b:+.1f} ns over "
                     f"{len(common)} seqs (SDN {mean_a:.1f} vs noSDN {mean_b:.1f})")
    return "\n".join(lines) + "\n"
