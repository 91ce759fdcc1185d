"""One measured simulator run in a fresh interpreter; started by `run.py`.

It does the work of `tssdn-sim run --scenario S --until U --out O` through the
CLI's own entry point, and times `Simulator.run_until` from outside. The last
line of its standard output is a JSON object with what it measured.

Modes:
  time    untraced; the end-to-end numbers come from this mode only
  trace   every layer's public calls recorded as spans (see tracing.py)
  memory  tracemalloc on; live allocations grouped by source module at the
          end of run_until
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

MB = 1 << 20
SRC = Path(__file__).resolve().parent.parent / "src"


def memory_by_module(snapshot, package_dir: str) -> dict:
    """Live bytes per `tssdnsim` module that allocated them; allocations made
    outside the package go to `other`."""
    sizes: dict = {}
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename
        module = Path(filename).stem if filename.startswith(package_dir) else "other"
        sizes[module] = sizes.get(module, 0) + stat.size
    return sizes


def layer_metrics(tracer) -> dict:
    """Per-layer counts and self times (host seconds) from one traced run."""
    from tracing import DISPATCH

    calls, self_ns, total_ns, truthy = tracer.calls, tracer.self_ns, tracer.total_ns, tracer.truthy

    def n(name):
        return tracer.get(calls, name)

    def self_s(name):
        return tracer.get(self_ns, name) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    def first_start(name):
        return tracer.start_col[tracer.name_col.index(tracer.name_id(name))]

    dispatched = tracer.with_prefix(calls, DISPATCH)
    enqueues, accepted = n("shaping.enqueue"), tracer.get(truthy, "shaping.enqueue")
    lookups, hits = n("switching.lookup"), tracer.get(truthy, "switching.lookup")
    tx_done = DISPATCH + "EgressPort._on_tx_done"
    return {
        "engine.events": sum(dispatched.values()),
        "engine.scheduled": n("engine.schedule"),
        "engine.cancelled": n("engine.cancel"),
        "engine.self_s": self_s("engine.run_until"),
        "engine.schedule_s": self_s("engine.schedule"),
        "shaping.enqueue.calls": enqueues,
        "shaping.enqueue_s": self_s("shaping.enqueue"),
        "shaping.tx_done.events": n(tx_done),
        "shaping.tx_done_s": self_s(tx_done),
        "shaping.credit_wakeup.events": n(DISPATCH + "EgressPort._on_wakeup"),
        "shaping.drops": enqueues - accepted,
        "shaping.accept_ratio": ratio(accepted, enqueues),
        "switching.handle_frame.calls": n("switching.handle_frame"),
        "switching.handle_frame_s": self_s("switching.handle_frame"),
        "switching.lookup.calls": lookups,
        "switching.lookup_s": self_s("switching.lookup"),
        "switching.lookup.hit_ratio": ratio(hits, lookups),
        "switching.flow_entries_max": tracer.flow_entries_max,
        "control.messages": n("control.send_to_controller") + n("control.send_to_switch"),
        "control.packet_in": n("control.packet_in"),
        "control.on_message_s": self_s("control.on_message"),
        "hosts.handle_frame.calls": n("hosts.handle_frame"),
        "hosts.handle_frame_s": self_s("hosts.handle_frame"),
        "frames.make_frame.calls": n("frames.make_frame"),
        "frames.make_frame_s": self_s("frames.make_frame"),
        "metrics.record.calls": n("metrics.record"),
        "metrics.record_s": self_s("metrics.record"),
        "metrics.emit_s": tracer.get(total_ns, "metrics.emit_outputs") / 1e9,
        "config.load_s": tracer.get(total_ns, "config.load_config") / 1e9,
        "scenario.build_s": (first_start("engine.run_until")
                             - first_start("scenario.run_scenario")) / 1e9,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("time", "trace", "memory"), required=True)
    parser.add_argument("--t0", type=int, required=True,
                        help="time.monotonic_ns() of the parent just before launch")
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--until", required=True)
    parser.add_argument("--out", required=True,
                        help="output directory; trace mode writes spans.csv beside it")
    args = parser.parse_args()

    if args.mode == "memory":
        tracemalloc.start()
    sys.path.insert(0, str(SRC))
    from tssdnsim import cli, engine
    package_dir = str(SRC / "tssdnsim")
    if not str(Path(engine.__file__).resolve()).startswith(package_dir):
        print(f"tssdnsim imported from {engine.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.mode == "trace":
        from tracing import DISPATCH, Tracer, install
        tracer = Tracer()
        install(tracer)

    measured: dict = {}
    run_until = engine.Simulator.run_until

    def timed_run_until(self, t_end):
        start = time.monotonic_ns()
        measured.setdefault("entry_ns", start)
        run_until(self, t_end)
        measured["run_until_ns"] = measured.get("run_until_ns", 0) + time.monotonic_ns() - start
        measured["sim_ns"] = t_end
        if args.mode == "memory":
            measured["mem_bytes"] = memory_by_module(tracemalloc.take_snapshot(), package_dir)
            tracemalloc.stop()

    engine.Simulator.run_until = timed_run_until
    rc = cli.main(["run", "--scenario", args.scenario, "--until", args.until,
                   "--out", args.out])

    report = {
        "rc": rc,
        "setup_s": (measured["entry_ns"] - args.t0) / 1e9,
        "run_until_s": measured["run_until_ns"] / 1e9,
        "sim_s": measured["sim_ns"] / 1e9,
    }
    if "mem_bytes" in measured:
        report["mem_mb"] = {k: v / MB for k, v in sorted(measured["mem_bytes"].items())}
    if tracer is not None:
        report["layers"] = layer_metrics(tracer)
        report["dispatch_counts"] = tracer.with_prefix(tracer.calls, DISPATCH)
        tracer.write(Path(args.out).parent / "spans.csv")
    print(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main())
