"""Per-frame latency records, summary statistics, guarantee checking, file emission."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .fastforward import fields
from .srp import SrClass, analytic_guarantee

FRAME_CSV_HEADER = ["flow", "seq", "send_ns", "recv_ns", "latency_ns"]
SUMMARY_CSV_HEADER = ["flow", "min_ns", "mean_ns", "max_ns", "window_start_ns", "window_end_ns"]


class LatencyRecord(NamedTuple):
    # a tuple: a fast-forward skip appends one per record it repeats
    flow: str
    seq: int
    send_ns: int
    recv_ns: int

    @property
    def latency_ns(self) -> int:
        return self.recv_ns - self.send_ns


class MetricsSink:
    """Collects latency records and warnings from hosts during one run."""

    FF_FIELDS = fields(normalised="warnings", shifted="records")

    def __init__(self) -> None:
        self.records: list[LatencyRecord] = []
        self.warnings: list[str] = []

    def record(self, flow: str, seq: int, send_ns: int, recv_ns: int) -> None:
        rec = LatencyRecord(flow, seq, send_ns, recv_ns)
        if rec.latency_ns <= 0:
            raise ValueError(f"non-positive latency for {flow} seq {seq}")
        self.records.append(rec)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    # -- steady-state fast-forward (see fastforward.py) --------------------

    def ff_state(self, cx) -> None:
        """Records are not compared: the last cycle's are what a skip repeats.
        Each must be of a flow with a registered source, whose counter gives
        its seq step per cycle."""
        end = cx.marks[self] = len(self.records)
        if cx.prev is not None:
            for rec in self.records[cx.prev.marks[self]:end]:
                cx.flow_step(rec.flow)

    def ff_shift(self, cx) -> None:
        """Append the last cycle's records once per skipped cycle, each a
        further cycle later."""
        last = [(rec, cx.flow_step(rec.flow))
                for rec in self.records[cx.prev.marks[self]:cx.marks[self]]]
        append = self.records.append
        for j in range(1, cx.cycles + 1):
            dt = j * cx.period
            for rec, step in last:
                append(LatencyRecord(rec.flow, rec.seq + j * step,
                                     rec.send_ns + dt, rec.recv_ns + dt))


@dataclass(frozen=True)
class FlowStats:
    flow: str
    count: int
    min_ns: int
    mean_ns: float
    max_ns: int


def summarize(records: Iterable[LatencyRecord], window_start_ns: int,
              window_end_ns: int) -> dict:
    """Exact min/mean/max per flow over records sent inside the window.

    Flows present in `records` but empty in the window map to None (an explicit
    empty marker, never zeros).
    """
    flows = sorted({r.flow for r in records})
    out: dict = {}
    for flow in flows:
        in_window = [r.latency_ns for r in records
                     if r.flow == flow and window_start_ns <= r.send_ns < window_end_ns]
        if not in_window:
            out[flow] = None
            continue
        out[flow] = FlowStats(flow, len(in_window), min(in_window),
                              sum(in_window) / len(in_window), max(in_window))
    return out


@dataclass(frozen=True)
class GuaranteeResult:
    passed: bool
    limit_ns: int
    worst: Optional[LatencyRecord]
    reason: str


def check_guarantee(records: Iterable[LatencyRecord], sr_class: SrClass,
                    scheduled_ports: int, flow_prefix: str = "stream") -> GuaranteeResult:
    """Pass iff every stream frame met the analytic per-class latency bound."""
    limit = analytic_guarantee(sr_class, scheduled_ports)
    stream_records = [r for r in records if r.flow.startswith(flow_prefix)]
    if not stream_records:
        return GuaranteeResult(False, limit, None, "no stream frames observed")
    worst = max(stream_records, key=lambda r: (r.latency_ns, r.seq))
    if worst.latency_ns > limit:
        return GuaranteeResult(False, limit, worst,
                               f"latency {worst.latency_ns} ns exceeds {limit} ns "
                               f"(flow {worst.flow} seq {worst.seq})")
    return GuaranteeResult(True, limit, worst, "all deadlines met")


def write_frame_csv(path: Path, records: Iterable[LatencyRecord]) -> None:
    ordered = sorted(records, key=lambda r: (r.recv_ns, r.flow, r.seq))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FRAME_CSV_HEADER)
        for r in ordered:
            writer.writerow([r.flow, r.seq, r.send_ns, r.recv_ns, r.latency_ns])


def write_summary_csv(path: Path, stats: dict, window_start_ns: int,
                      window_end_ns: int) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_CSV_HEADER)
        for flow in sorted(stats):
            st = stats[flow]
            if st is None:
                writer.writerow([flow, "empty", "empty", "empty",
                                 window_start_ns, window_end_ns])
            else:
                writer.writerow([flow, st.min_ns, f"{st.mean_ns:.1f}", st.max_ns,
                                 window_start_ns, window_end_ns])


def write_control_trace(path: Path, trace) -> None:
    with open(path, "w") as fh:
        fh.write("time_ns,dir,switch,kind,xid\n")
        for entry in trace:
            fh.write(f"{entry.time_ns},{entry.direction},{entry.switch},"
                     f"{entry.kind},{entry.xid}\n")


def write_counters(path: Path, counters: dict) -> None:
    with open(path, "w") as fh:
        json.dump(counters, fh, indent=2, sort_keys=True)
        fh.write("\n")
