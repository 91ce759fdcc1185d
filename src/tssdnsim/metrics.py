"""Per-frame latency records, summary statistics, guarantee checking, file emission."""

from __future__ import annotations

import csv
import json
from math import gcd
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator, NamedTuple, Optional

from .fastforward import fields
from .srp import SrClass, analytic_guarantee

FRAME_CSV_HEADER = ["flow", "seq", "send_ns", "recv_ns", "latency_ns"]
FRAME_ORDER = itemgetter(3, 0, 1)     # a record's (recv_ns, flow, seq)
SUMMARY_CSV_HEADER = ["flow", "min_ns", "mean_ns", "max_ns", "window_start_ns", "window_end_ns"]

# `_tuple_new(cls, fields)`: a value of a `NamedTuple` that checks nothing,
# built without a call to its generated `__new__` (see frames.py)
_tuple_new = tuple.__new__


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


class FlowStats(NamedTuple):
    flow: str
    count: int
    min_ns: int
    mean_ns: float
    max_ns: int


class GuaranteeResult(NamedTuple):
    passed: bool
    limit_ns: Optional[int]     # None when there is no stream to bound
    worst: Optional[LatencyRecord]
    reason: str


class MetricsSink:
    """Collects latency records and warnings from hosts during one run.

    `records` holds the records simulated, in the order received; `repeats`
    holds one block per fast-forward skip, whose copies are received after
    its template and before the next stored record. No other module reads
    them: every reader walks `progressions`, and only `rows` and
    `write_frame_csv` expand a block.
    """

    FF_FIELDS = fields(normalised="warnings", shifted="records repeats")

    def __init__(self) -> None:
        self.records: list[LatencyRecord] = []
        self.repeats: list[Repeat] = []
        self.warnings: list[str] = []

    def record(self, flow: str, seq: int, send_ns: int, recv_ns: int) -> None:
        if recv_ns <= send_ns:
            raise ValueError(f"non-positive latency for {flow} seq {seq}")
        self.records.append(_tuple_new(LatencyRecord, (flow, seq, send_ns, recv_ns)))

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def flows(self) -> set:
        """The flows with a record; a block's template records are stored ones."""
        return {rec[0] for rec in self.records}

    @property
    def count(self) -> int:
        """How many records there are, the copies of every block included."""
        return len(self.records) + sum((rep.end - rep.start) * rep.copies
                                       for rep in self.repeats)

    def runs(self) -> Iterator[tuple]:
        """The records in `frames.csv` order, as (run, repeat) pairs: a run of
        stored records with repeat None, or a block's template as
        (record, seq step) pairs with its `Repeat`, which stands for the
        template's copies 1..k.

        The stored records are in recv_ns order, and a block's copies fall
        between its template and the next stored record. So sorting moves
        only records that share a recv_ns: each run sorted here is already
        in order but for those, and a template's order holds for its copies.
        """
        records = self.records
        done = 0
        for rep in self.repeats:
            yield sorted(records[done:rep.end], key=FRAME_ORDER), None
            done = rep.end
            yield sorted(zip(records[rep.start:rep.end], rep.steps),
                         key=lambda pair: FRAME_ORDER(pair[0])), rep
        yield sorted(records[done:], key=FRAME_ORDER), None

    def rows(self) -> Iterator[tuple]:
        """Every record as (flow, seq, send_ns, recv_ns), in `frames.csv`
        order: by recv_ns, then flow and seq."""
        for run, rep in self.runs():
            if rep is None:
                yield from run
                continue
            for j in range(1, rep.copies + 1):
                dt = j * rep.period
                for (flow, seq, send, recv), step in run:
                    yield flow, seq + j * step, send + dt, recv + dt

    def progressions(self, ws: int = 0, we: Optional[int] = None) -> Iterator[tuple]:
        """Each record as the arithmetic progression of its copies sent in
        [ws, we) (to the end of the run when `we` is None):
        (flow, seq, step, send_ns, period, n, latency_ns), whose element i,
        for i < n, has seq + i*step and send_ns + i*period. A stored record
        gives n = 0 or 1, with step and period 0; a block's template record
        gives the run of its copies 1..k that falls in the window. Every
        copy shares its template's latency, so the last element of a
        progression is its worst. Records with n = 0 are walked too: they
        say that a flow has records, though none in the window.
        """
        records = self.records
        if we is None:
            for flow, seq, send, recv in records:
                yield flow, seq, 0, send, 0, 1 if ws <= send else 0, recv - send
        else:
            for flow, seq, send, recv in records:
                yield flow, seq, 0, send, 0, 1 if ws <= send < we else 0, recv - send
        for rep in self.repeats:
            period, k = rep.period, rep.copies
            for (flow, seq, send, recv), step in zip(records[rep.start:rep.end], rep.steps):
                first = max(1, -((send - ws) // period))    # copy j sent at or after ws
                last = k if we is None else min(k, (we - 1 - send) // period)
                yield (flow, seq + first * step, step, send + first * period, period,
                       max(0, last - first + 1), recv - send)

    def summarize(self, window_start_ns: int, window_end_ns: int) -> dict:
        """Exact count and min/mean/max latency per flow over the records sent
        inside the window; the copies of a block's record are counted by
        arithmetic over j, since they share its latency.

        Flows with records but none in the window map to None (an explicit
        empty marker, never zeros).
        """
        acc: dict = {}      # flow -> [count, sum, min, max], None while none in the window
        for flow, _, _, _, _, n, latency in self.progressions(window_start_ns, window_end_ns):
            st = acc.get(flow)
            if not n:
                acc.setdefault(flow, None)
            elif st is None:
                acc[flow] = [n, n * latency, latency, latency]
            else:
                st[0] += n
                st[1] += n * latency
                if latency < st[2]:
                    st[2] = latency
                elif latency > st[3]:
                    st[3] = latency
        return {flow: None if st is None else FlowStats(flow, st[0], st[2], st[1] / st[0], st[3])
                for flow, st in sorted(acc.items())}

    def check_guarantee(self, sr_class: SrClass, scheduled_ports: int) -> GuaranteeResult:
        """Pass iff every stream frame met the analytic per-class latency bound.

        The worst frame is the greatest by (latency, seq): the last element
        of some progression, since its copies share its latency."""
        limit = analytic_guarantee(sr_class, scheduled_ports)
        worst, top = None, (-1, -1)     # the first greatest (latency, seq) so far
        for flow, seq, step, send, period, n, latency in self.progressions():
            if latency >= top[0] and flow.startswith("stream"):
                last = n - 1    # every record is sent in the whole run's window
                if (latency, seq + last * step) > top:
                    top = latency, seq + last * step
                    worst = flow, send + last * period
        if worst is None:
            return GuaranteeResult(False, limit, None, "no stream frames observed")
        (latency, seq), (flow, send) = top, worst
        worst = LatencyRecord(flow, seq, send, send + latency)
        if latency > limit:
            return GuaranteeResult(False, limit, worst,
                                   f"latency {latency} ns exceeds {limit} ns "
                                   f"(flow {flow} seq {seq})")
        return GuaranteeResult(True, limit, worst, "all deadlines met")

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


def shared_seqs(a: tuple, b: tuple) -> int:
    """How many seqs two runs (first seq, last seq, step, ...) both hold.

    A common seq x is a0 mod sa and b0 mod sb, so, by the Chinese remainder
    theorem, there is none unless g = gcd(sa, sb) divides b0 - a0, and
    otherwise they are x0 mod lcm(sa, sb) inside both ranges."""
    a0, a1, sa = a[:3]
    b0, b1, sb = b[:3]
    lo, hi = max(a0, b0), min(a1, b1)
    if lo > hi:
        return 0
    g = gcd(sa, sb)
    if (b0 - a0) % g:
        return 0
    m = sb // g
    x = a0 + sa * ((b0 - a0) // g * pow(sa // g, -1, m) % m)
    lcm = sa * m
    return (hi - x) // lcm + (x - lo) // lcm + 1


class FlowSeqs:
    """The seqs of one flow's records sent in a window, with their
    latencies, as `MetricsSink.progressions` walks them: each single record
    by its seq, and each progression of two or more copies as a run (first
    seq, last seq, step, latency_ns), filed by its step and by its first
    seq's residue modulo the step."""

    __slots__ = ("single", "runs", "by_step", "repeated")

    def __init__(self) -> None:
        self.single: dict = {}          # seq -> latency_ns
        self.runs: list = []
        self.by_step: dict = {}         # step -> {first seq % step: [run, ...]}
        self.repeated = False           # some seq is known to be recorded twice

    def add(self, seq: int, step: int, n: int, latency: int) -> None:
        if n == 1:
            self.repeated = self.repeated or seq in self.single
            self.single[seq] = latency
        else:
            run = (seq, seq + (n - 1) * step, step, latency)
            self.runs.append(run)
            self.by_step.setdefault(step, {}).setdefault(seq % step, []).append(run)

    def run_latency(self, seq: int) -> Optional[int]:
        """The latency of the first run that holds `seq`, None if none does."""
        for step, by_residue in self.by_step.items():
            for first, last, _, latency in by_residue.get(seq % step, ()):
                if first <= seq <= last:
                    return latency
        return None

    def candidates(self, run: tuple) -> Iterator[tuple]:
        """Each run that may share a seq with `run`. The seqs of `run` take
        t/gcd(step, t) residues modulo a step t, at most; those are looked
        up, or every run of step t is given when there are fewer of them."""
        first, last, step, _ = run
        n = (last - first) // step + 1
        for t, by_residue in self.by_step.items():
            residues = min(n, t // gcd(step, t))
            if residues > len(by_residue):
                for runs in by_residue.values():
                    yield from runs
            else:
                for i in range(residues):
                    yield from by_residue.get((first + i * step) % t, ())

    def repeats_a_seq(self) -> bool:
        return (self.repeated
                or any(self.run_latency(seq) is not None for seq in self.single)
                or any(shared_seqs(run, other) for run in self.runs
                       for other in self.candidates(run) if other is not run))


def flow_seqs(sink: MetricsSink, ws: int, we: int) -> dict:
    """flow -> `FlowSeqs` of its records sent in [ws, we), for each flow with one."""
    out: dict = {}
    for flow, seq, step, _, _, n, latency in sink.progressions(ws, we):
        if n:
            seqs = out.get(flow)
            if seqs is None:
                seqs = out[flow] = FlowSeqs()
            seqs.add(seq, step, n, latency)
    return out


def pair_by_seq(ours: FlowSeqs, theirs: FlowSeqs) -> Optional[tuple]:
    """(count, sum of our latencies, sum of theirs) over the seqs both hold;
    None when one of them holds a seq twice, as when two listeners record
    one stream, since a seq then names no one frame."""
    if ours.repeats_a_seq() or theirs.repeats_a_seq():
        return None
    count = sum_ours = sum_theirs = 0
    for seq, latency in ours.single.items():
        other = theirs.single.get(seq)
        if other is None:
            other = theirs.run_latency(seq)
        if other is not None:
            count += 1
            sum_ours += latency
            sum_theirs += other
    for seq, other in theirs.single.items():
        latency = ours.run_latency(seq)
        if latency is not None:
            count += 1
            sum_ours += latency
            sum_theirs += other
    for run in ours.runs:
        for other in theirs.candidates(run):
            n = shared_seqs(run, other)
            count += n
            sum_ours += n * run[3]
            sum_theirs += n * other[3]
    return count, sum_ours, sum_theirs


def write_frame_csv(path: Path, sink: MetricsSink) -> None:
    """`sink.rows()` as `csv.writer` writes them, CRLF included.

    A block's copies are written from strings built once per template
    record: the flow field and the latency field are the same in every copy,
    so only seq, send_ns and recv_ns are formatted per row.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FRAME_CSV_HEADER)
        # a writer whose file's write is `str` returns the line it renders
        render = csv.writer(SimpleNamespace(write=str)).writerow
        for run, rep in sink.runs():
            if rep is None:
                writer.writerows((flow, seq, send, recv, recv - send)
                                 for flow, seq, send, recv in run)
                continue
            template = [(render((flow, "")).removesuffix("\r\n"), seq, step, send, recv,
                         render(("", recv - send)))
                        for (flow, seq, send, recv), step in run]
            for j in range(1, rep.copies + 1):
                dt = j * rep.period
                fh.write("".join([f"{head}{seq + j * step},{send + dt},{recv + dt}{tail}"
                                  for head, seq, step, send, recv, tail in template]))


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
