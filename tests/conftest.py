from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from tssdnsim.config import load_config
from tssdnsim.cli import resolve_scenario
from tssdnsim.engine import Simulator
from tssdnsim.frames import MacAddress
from tssdnsim.metrics import LatencyRecord
from tssdnsim.network import Node, connect
from tssdnsim.scenario import run_scenario


class Recorder(Node):
    """Terminal node that just records what arrives on each port."""

    def __init__(self, sim, name="recorder"):
        super().__init__(sim, name)
        self.received = []  # (time_ns, in_port, frame)

    def handle_frame(self, in_port, frame):
        self.received.append((self.sim.now(), in_port, frame))


def wire(sim, node_a, node_b, rate_bps=100_000_000, propagation_ns=0,
         queue_capacity=100, shaper_enabled=True):
    """`network.connect` with the defaults the unit tests share."""
    return connect(node_a, node_b, rate_bps, propagation_ns, queue_capacity, shaper_enabled)


# the benchmark's line-topology generator, loaded from its file
_spec = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
workloads = sys.modules["bench_workloads"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def mac(text):
    return MacAddress.parse(text)


def records(sink):
    """Every record of a sink, each block's copies expanded, in `frames.csv` order."""
    return list(map(LatencyRecord._make, sink.rows()))


def stream_records(sink):
    return sorted((r for r in records(sink) if r.flow.startswith("stream")),
                  key=lambda r: r.seq)


def udp_records(sink):
    return sorted((r for r in records(sink) if r.flow == "udp"), key=lambda r: r.seq)


@pytest.fixture(scope="session")
def sdn_result():
    return run_scenario(load_config(resolve_scenario("case_study_sdn")))


@pytest.fixture(scope="session")
def nosdn_result():
    return run_scenario(load_config(resolve_scenario("case_study_nosdn")))


@pytest.fixture(scope="session")
def fault_result():
    return run_scenario(load_config(resolve_scenario("fault_injection")))
