"""Per-frame latency records, summary statistics, guarantee checking, file emission."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

from .fastforward import fields
from .srp import SrClass, analytic_guarantee

FRAME_CSV_HEADER = ["flow", "seq", "send_ns", "recv_ns", "latency_ns"]
FRAME_ORDER = itemgetter(3, 0, 1)     # a record's (recv_ns, flow, seq)
SUMMARY_CSV_HEADER = ["flow", "min_ns", "mean_ns", "max_ns", "window_start_ns", "window_end_ns"]


class LatencyRecord(NamedTuple):
    flow: str
    seq: int
    send_ns: int
    recv_ns: int

    @property
    def latency_ns(self) -> int:
        return self.recv_ns - self.send_ns


class Repeat(NamedTuple):
    """A fast-forward skip: `copies` more copies of the stored records
    [start, end), the last period's; copy j is j periods later, and each
    record's seq is j of its steps on."""

    start: int
    end: int
    steps: tuple        # each template record's seq step per period
    copies: int         # k, the periods skipped
    period: int         # P, in ns


@dataclass(frozen=True)
class FlowStats:
    flow: str
    count: int
    min_ns: int
    mean_ns: float
    max_ns: int


@dataclass(frozen=True)
class GuaranteeResult:
    passed: bool
    limit_ns: int
    worst: Optional[LatencyRecord]
    reason: str


class MetricsSink:
    """Collects latency records and warnings from hosts during one run.

    `records` holds the records simulated, in the order received; `repeats`
    holds one block per fast-forward skip, whose copies are received after
    its template and before the next stored record. The readers below use
    the blocks as they are; only `rows` expands them.
    """

    FF_FIELDS = fields(normalised="warnings", shifted="records repeats")

    def __init__(self) -> None:
        self.records: list[LatencyRecord] = []
        self.repeats: list[Repeat] = []
        self.warnings: list[str] = []

    def record(self, flow: str, seq: int, send_ns: int, recv_ns: int) -> None:
        rec = LatencyRecord(flow, seq, send_ns, recv_ns)
        if rec.latency_ns <= 0:
            raise ValueError(f"non-positive latency for {flow} seq {seq}")
        self.records.append(rec)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    @property
    def count(self) -> int:
        """How many records there are, the copies of every block included."""
        return len(self.records) + sum((rep.end - rep.start) * rep.copies
                                       for rep in self.repeats)

    def rows(self) -> Iterator[tuple]:
        """Every record as (flow, seq, send_ns, recv_ns), in `frames.csv`
        order: by recv_ns, then flow and seq.

        The stored records are in recv_ns order, and a block's copies fall
        between its template and the next stored record. So sorting moves
        only records that share a recv_ns: each run sorted here is already
        in order but for those, and a template's order holds for its copies.
        """
        records = self.records
        done = 0
        for rep in self.repeats:
            yield from sorted(records[done:rep.end], key=FRAME_ORDER)
            done = rep.end
            template = sorted(zip(records[rep.start:rep.end], rep.steps),
                              key=lambda pair: FRAME_ORDER(pair[0]))
            for j in range(1, rep.copies + 1):
                dt = j * rep.period
                for (flow, seq, send, recv), step in template:
                    yield flow, seq + j * step, send + dt, recv + dt
        yield from sorted(records[done:], key=FRAME_ORDER)

    def summarize(self, window_start_ns: int, window_end_ns: int) -> dict:
        """Exact count and min/mean/max latency per flow over the records sent
        inside the window; the copies of a block's record are counted by
        arithmetic over j, since they share its latency.

        Flows with records but none in the window map to None (an explicit
        empty marker, never zeros).
        """
        acc: dict = {}      # flow -> [count, sum, min, max], None while none in the window
        for flow, latency, n in self._in_window(window_start_ns, window_end_ns):
            st = acc.get(flow)
            if not n:
                acc.setdefault(flow, None)
            elif st is None:
                acc[flow] = [n, n * latency, latency, latency]
            else:
                st[0] += n
                st[1] += n * latency
                st[2] = min(st[2], latency)
                st[3] = max(st[3], latency)
        return {flow: None if st is None else FlowStats(flow, st[0], st[2], st[1] / st[0], st[3])
                for flow, st in sorted(acc.items())}

    def _in_window(self, ws: int, we: int) -> Iterator[tuple]:
        """(flow, latency, how many sent in [ws, we)) for each stored record
        and for the copies of each block's record."""
        records = self.records
        for flow, _, send, recv in records:
            yield flow, recv - send, int(ws <= send < we)
        for rep in self.repeats:
            period, k = rep.period, rep.copies
            for flow, _, send, recv in records[rep.start:rep.end]:
                first = max(1, -((send - ws) // period))    # copy j sent at or after ws
                last = min(k, (we - 1 - send) // period)    # copy j sent before we
                yield flow, recv - send, max(0, last - first + 1)

    def check_guarantee(self, sr_class: SrClass, scheduled_ports: int) -> GuaranteeResult:
        """Pass iff every stream frame met the analytic per-class latency bound.

        The worst frame is the greatest by (latency, seq); the copies of a
        block's record share its latency, so only the last copy can be it."""
        limit = analytic_guarantee(sr_class, scheduled_ports)
        worst = max((row for row in self._last_copies() if row[0].startswith("stream")),
                    key=lambda r: (r[3] - r[2], r[1]), default=None)
        if worst is None:
            return GuaranteeResult(False, limit, None, "no stream frames observed")
        worst = LatencyRecord(*worst)
        if worst.latency_ns > limit:
            return GuaranteeResult(False, limit, worst,
                                   f"latency {worst.latency_ns} ns exceeds {limit} ns "
                                   f"(flow {worst.flow} seq {worst.seq})")
        return GuaranteeResult(True, limit, worst, "all deadlines met")

    def _last_copies(self) -> Iterator[tuple]:
        """Each stored record, and the last copy of each block's record."""
        yield from self.records
        for rep in self.repeats:
            dt = rep.copies * rep.period
            for (flow, seq, send, recv), step in zip(self.records[rep.start:rep.end],
                                                     rep.steps):
                yield flow, seq + rep.copies * step, send + dt, recv + dt

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
        """Store the last cycle's records as one block of the skipped cycles' copies."""
        start, end = cx.prev.marks[self], cx.marks[self]
        if start < end:
            steps = tuple(cx.flow_step(rec.flow) for rec in self.records[start:end])
            self.repeats.append(Repeat(start, end, steps, cx.cycles, cx.period))


def write_frame_csv(path: Path, sink: MetricsSink) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FRAME_CSV_HEADER)
        writer.writerows((flow, seq, send, recv, recv - send)
                         for flow, seq, send, recv in sink.rows())


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
