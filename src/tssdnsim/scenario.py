"""Scenario construction and execution: build the network, run it, emit outputs."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Optional

from .config import ScenarioConfig, hops
from .control import Controller
from .engine import Simulator, Trace
from .fastforward import Skipped, SteadyState
from .frames import MacAddress
from .hosts import UDP_FLOW, Host
from .metrics import (FlowSeqs, GuaranteeResult, MetricsSink, flow_seqs, pair_by_seq,
                      write_control_trace, write_counters, write_frame_csv, write_summary_csv)
from .network import connect
from .srp import SR_CLASSES
from .switching import Switch


def client_mac(index: int) -> MacAddress:
    return MacAddress(bytes([0x02, 0, 0, 0, 0, index + 1]))


class RunResult(NamedTuple):
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
    rejected_ports: tuple     # names of the ports that rejected a reservation

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
        """The sink's latency check; a rejected reservation fails it whatever
        the latencies, since the stream then ran unreserved. Without a talker
        and a listener there is no stream, and so no bound to check."""
        cfg = self.config
        if cfg.talker is None:
            return GuaranteeResult(False, None, None, "no talker configured")
        if not cfg.listeners:
            return GuaranteeResult(False, None, None, "no listener configured")
        if not self.scheduled_ports:
            return GuaranteeResult(False, None, None,
                                   f"listener {cfg.talker.node} is the talker's node")
        result = self.sink.check_guarantee(SR_CLASSES[cfg.talker.sr_class],
                                           self.scheduled_ports)
        if self.rejected_ports:
            return result._replace(passed=False, reason="reservation rejected on "
                                                   + ", ".join(self.rejected_ports))
        return result

    def frame_csv_hash(self) -> str:
        # imported here: no run, check or compare hashes, and the import costs
        import hashlib
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

    for link in cfg.links:
        connect(nodes[link.a], nodes[link.b], link.rate_bps, link.propagation_ns,
                cfg.queue_capacity, cfg.shaper_enabled)

    controller = None
    if cfg.sdn_enabled:
        controller = Controller(sim, cfg.controller, log=sink.warn)
        for name in cfg.switches:
            controller.attach_switch(switches[name], cfg.control)
        controller.start()

    if cfg.talker is not None:
        hosts[cfg.talker.node].run_talker(cfg.talker)
        for node in cfg.listeners:
            hosts[node].run_listener(cfg.talker.unique_id)

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
    controller = net.controller

    scheduled_ports = None
    if cfg.talker is not None and cfg.listeners:
        # the nearest listener's: every frame is held to the tightest bound
        ports = hops(cfg.adjacency(), cfg.talker.node)
        scheduled_ports = min(ports[node] for node in cfg.listeners)

    first_stream = first_udp = None
    for flow, _, _, send, _, _, _ in sink.progressions():
        if flow == UDP_FLOW:
            if first_udp is None or send < first_udp:
                first_udp = send
        elif first_stream is None or send < first_stream:
            first_stream = send

    counters = {name: switches[name].counters() for name in cfg.switches}
    for name, host in hosts.items():
        counters[name] = {
            "sent_stream": host.stream_seq,
            "sent_udp": host.udp_seq,
            "dropped_overflow": sum(p.dropped_overflow for p in host.ports),
        }

    stream_start = None
    if talker_host is not None and talker_host.lr_arrival_ns is not None \
            and talker_host.stream_seq:
        stream_start = first_stream
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
        rejected_ports=tuple(port.name for node in (*hosts.values(), *switches.values())
                             for port in node.ports if port.reservations_rejected),
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
    bound = ("" if gr.limit_ns is None else
             f" ({gr.limit_ns} ns over {result.scheduled_ports} scheduled ports)")
    lines.append(f"guarantee check{bound}: {'PASS' if gr.passed else 'FAIL'} -- {gr.reason}")
    for warning in result.sink.warnings:
        lines.append(f"warning: {warning}")
    lines.append("")
    lines.append(PAPER_REFERENCE_NOTE)
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
        paired = pair_by_seq(sdn_seqs.get(flow, FlowSeqs()), nosdn_seqs.get(flow, FlowSeqs()))
        if paired is None:
            lines.append(f"  {flow}: a seq recorded more than once in a run; not paired")
            continue
        count, sum_sdn, sum_nosdn = paired
        if not count:
            lines.append(f"  {flow}: no seq in both steady windows")
            continue
        mean_a = sum_sdn / count
        mean_b = sum_nosdn / count
        lines.append(f"  {flow}: steady mean delta {mean_a - mean_b:+.1f} ns over "
                     f"{count} seqs (SDN {mean_a:.1f} vs noSDN {mean_b:.1f}){unlike}")
    return "\n".join(lines) + "\n"
