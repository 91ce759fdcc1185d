"""Benchmark workloads, the line-topology generator and the pinned outputs.

Every workload is a shipped or generated scenario run to a fixed simulated
length. The simulator has no randomness, so a workload's outputs are fully
determined by its scenario and length; the pins below were measured on the
unmodified simulator and any difference is a correctness failure.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import yaml

from tssdnsim.cli import resolve_scenario
from tssdnsim.config import load_config, parse_config
from tssdnsim.scenario import run_scenario
from tssdnsim.switching import STREAM_RULE_PRIORITY


@dataclass(frozen=True)
class Pin:
    """What one run must reproduce: frame hash prefix, delivered frames, verdict."""

    hash16: str
    frames: int
    guarantee_pass: bool


@dataclass(frozen=True)
class Workload:
    name: str
    until: str                      # simulated run length, as `--until` takes it
    pin: Pin
    line_switches: Optional[int] = None   # generated line topology, else shipped
    shipped: Optional[str] = None

    def scenario_arg(self, workdir: Path) -> str:
        """The `--scenario` argument: a shipped name or a generated YAML file."""
        if self.line_switches is None:
            return self.shipped
        path = workdir / f"line{self.line_switches}.yaml"
        path.write_text(yaml.safe_dump(line_scenario(self.line_switches), sort_keys=True))
        return str(path)


WORKLOADS = {w.name: w for w in (
    Workload("sdn_steady", "1500ms", Pin("17d12910d164c0c1", 25190, True),
             shipped="case_study_sdn"),
    Workload("overload_noshaper", "2s", Pin("942796adaa827cd4", 32335, False),
             shipped="fault_injection"),
    Workload("line8_sdn", "600ms", Pin("cc1513cfeed426b2", 8963, True),
             line_switches=8),
)}

# The shipped scenarios at their own run_until (ROADMAP frame hashes).
SHIPPED_HASHES = {
    "case_study_sdn": "f47a4c7537222220",
    "case_study_nosdn": "3db977c48b957ca1",
    "fault_injection": "08f4d0605f1105e8",
}


def line_scenario(n_switches: int) -> dict:
    """`case_study_sdn` with its two switches replaced by a line of `n_switches`."""
    if n_switches < 1:
        raise ValueError("a line needs at least one switch")
    text = (resources.files("tssdnsim.scenarios") / "case_study_sdn.yaml").read_text()
    raw = yaml.safe_load(text)
    switches = [f"switch{i}" for i in range(n_switches)]
    chain = [raw["talker"]["node"], *switches, raw["listeners"][0]["node"]]
    raw["name"] = f"line{n_switches}-sdn"
    raw["switches"] = switches
    raw["links"] = [{"a": a, "b": b} for a, b in zip(chain, chain[1:])]
    return raw


def check_line_generator(n_switches: int) -> list:
    """Problems with the generated line at its default length; empty when sound."""
    cfg = parse_config(line_scenario(n_switches), source=f"line{n_switches}")
    result = run_scenario(cfg)
    problems = []
    if result.scheduled_ports != n_switches + 1:
        problems.append(f"scheduled ports {result.scheduled_ports} != {n_switches + 1}")
    if not result.check_guarantee().passed:
        problems.append("guarantee check FAIL")
    with_rule = {i.switch for i in result.flow_installs if i.priority == STREAM_RULE_PRIORITY}
    missing = sorted(set(cfg.switches) - with_rule)
    if missing:
        problems.append(f"no stream rule on {', '.join(missing)}")
    return problems


def check_shipped_hashes() -> list:
    """Problems with the shipped scenarios' frame hashes; empty when all match."""
    problems = []
    for name, want in SHIPPED_HASHES.items():
        got = run_scenario(load_config(resolve_scenario(name))).frame_csv_hash()[:16]
        if got != want:
            problems.append(f"{name}: frame hash {got} != {want}")
    return problems


def guarantee_verdict(report: Path) -> Optional[bool]:
    """The PASS/FAIL verdict of the guarantee check line in `report.txt`."""
    for line in report.read_text().splitlines():
        if line.startswith("guarantee check"):
            return line.split("): ", 1)[1].startswith("PASS")
    return None


def frames_csv_digest(path: Path) -> tuple:
    """(hash prefix, frame count) of a `frames.csv`, as `RunResult.frame_csv_hash`.

    `frames.csv` is written in the hash's own order (recv_ns, flow, seq), so the
    hash is recomputed from its first four columns without rerunning anything.
    """
    lines = path.read_text().splitlines()[1:]
    joined = "\n".join("|".join(line.split(",")[:4]) for line in lines)
    return hashlib.sha256(joined.encode()).hexdigest()[:16], len(lines)
