"""The public-call counts of a traced run, pinned: a change that makes the hop
cheaper must not add, drop or move a call that `bench/tracing.py` records.

`tracing.install` patches the simulator's classes for the rest of the process,
so the traced run is `bench/child.py --mode trace` in a fresh interpreter."""

import json
import subprocess
import sys
import time
from pathlib import Path

import yaml

from conftest import workloads

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"

# `line_scenario(8)` at its default run_until, 140 ms
LINE8_LAYER_COUNTS = {
    "engine.scheduled": 7_931,
    "engine.events": 7_919,
    "engine.cancelled": 2,
    "shaping.enqueue.calls": 6_267,
    "shaping.drops": 0,
    "shaping.tx_done.events": 6_254,
    "shaping.credit_wakeup.events": 815,
    "switching.handle_frame.calls": 5_565,
    "switching.lookup.calls": 5_549,
    "hosts.handle_frame.calls": 689,
    "metrics.record.calls": 683,
    "frames.make_frame.calls": 702,
    "control.messages": 144,
    "control.packet_in": 32,
}


# the shipped `fault_injection` at 300 ms: no shaper, no SDN, and client0's
# PCP 6 queue full and dropping
OVERLOAD_LAYER_COUNTS = {
    "engine.scheduled": 13_555,
    "engine.events": 13_548,
    "engine.cancelled": 2,
    "shaping.enqueue.calls": 10_237,
    "shaping.drops": 185,
    "shaping.tx_done.events": 9_948,
    "shaping.credit_wakeup.events": 0,
    "switching.handle_frame.calls": 6_634,
    "switching.lookup.calls": 0,
    "hosts.handle_frame.calls": 3_314,
    "metrics.record.calls": 3_310,
    "frames.make_frame.calls": 3_603,
    "control.messages": 0,
}


def _traced_layers(tmp_path, scenario, until) -> dict:
    """The per-layer counts of one `bench/child.py --mode trace` run."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), "--mode", "trace", "--t0", str(time.monotonic_ns()),
         "--scenario", str(scenario), "--until", until, "--out", str(tmp_path / "run")],
        capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["rc"] == 0
    return report["layers"]


def test_a_traced_line_of_8_switches_makes_its_pinned_public_calls(tmp_path):
    scenario = tmp_path / "line8.yaml"
    scenario.write_text(yaml.safe_dump(workloads.line_scenario(8), sort_keys=True))
    layers = _traced_layers(tmp_path, scenario, "140ms")
    assert {name: layers[name] for name in LINE8_LAYER_COUNTS} == LINE8_LAYER_COUNTS
    # 5,517 of the lookups hit an entry
    assert round(layers["switching.lookup.hit_ratio"] * layers["switching.lookup.calls"]) \
        == 5_517


def test_the_traced_overload_makes_its_pinned_public_calls(tmp_path):
    # the TSN-only hop: MAC learning and the SR table, no flow table
    layers = _traced_layers(tmp_path, "fault_injection", "300ms")
    assert {name: layers[name] for name in OVERLOAD_LAYER_COUNTS} == OVERLOAD_LAYER_COUNTS
