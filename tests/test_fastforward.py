"""Steady-state fast-forward: a run that skips cycles equals one that runs them all.

A `Simulator.trace` hook turns the fast-forward off, so the same scenario run
with a no-op hook is the reference every untraced run is compared against.
"""

import csv
import math
import re
from collections import deque
from operator import attrgetter

import pytest
import yaml

from tssdnsim import fastforward
from tssdnsim.cli import main, resolve_scenario
from tssdnsim.config import load_config, parse_config
from tssdnsim.control import ControlChannel, Controller
from tssdnsim.engine import Event, Simulator
from tssdnsim.fastforward import (COUNTED, NORMALISED, SHIFTED, STATIC, Cycle,
                                  NotPeriodic, SteadyState, fields)
from tssdnsim.hosts import Host
from tssdnsim.frames import (ArpKind, ArpMessage, BROADCAST, MacAddress, SrpKind,
                             SrpMessage, StreamId, VlanTag, make_frame)
from tssdnsim.metrics import (FRAME_CSV_HEADER, FlowStats, LatencyRecord, MetricsSink,
                              Repeat, write_frame_csv)
from tssdnsim.scenario import build_network, emit_outputs, run_scenario
from tssdnsim.srp import CLASS_A
from tssdnsim.shaping import CreditState, EgressPort
from tssdnsim.switching import (Drop, FlowMatch, FlowTable, Output, SrTable, Switch,
                                ToController)

from conftest import records, workloads

MS = 1_000_000


def _shipped(name, **changes):
    """A shipped scenario as YAML data, changed as `_changed` does."""
    return _changed(yaml.safe_load(resolve_scenario(name).read_text()), **changes)


def _changed(raw, **changes):
    """Scenario data with each dotted path set; a value of None drops the key."""
    for path, value in changes.items():
        *parents, key = path.split(".")
        node = raw
        for step in parents:
            node = node[step]
        if value is None:
            del node[key]
        else:
            node[key] = value
    return raw


def _outputs(result):
    """Everything a run reports, except what the fast-forward did."""
    return {"frames": result.frame_csv_hash(), "records": records(result.sink),
            "counters": result.counters, "warnings": result.sink.warnings,
            "control": result.control_trace, "installs": result.flow_installs,
            "stream_start": result.stream_start_ns, "lr_arrival": result.lr_arrival_ns,
            "first_udp": result.udp_first_send_ns}


def _emitted(result, outdir):
    """The bytes of every file a run writes, by name; `report.txt` without its
    fast-forward line."""
    emit_outputs(result, outdir)
    files = {path.name: path.read_bytes() for path in outdir.iterdir()}
    files["report.txt"] = b"".join(
        line for line in files["report.txt"].splitlines(keepends=True)
        if not line.startswith(b"fast-forward:"))
    return files


# (id, scenario data, run_until, most ms not skipped): the network of a
# periodic case repeats from shortly after traffic starts, so all but a few
# ms of the run must be skipped; the other cases check equality alone.
EQUIVALENCE_CASES = [
    ("case_study_sdn", _shipped("case_study_sdn"), None, 30),
    ("case_study_sdn-500ms", _shipped("case_study_sdn"), "500ms", 30),
    ("case_study_nosdn", _shipped("case_study_nosdn"), None, 30),
    ("case_study_nosdn-500ms", _shipped("case_study_nosdn"), "500ms", 30),
    ("fault_injection", _shipped("fault_injection"), None, None),
    ("fault_injection-400ms", _shipped("fault_injection"), "400ms", None),
    # the overload repeats every 72 cycles from about 417 ms on; 2 s is the
    # benchmark's run length
    ("fault_injection-2s", _shipped("fault_injection"), "2s", 520),
    # frames on the wire at the boundaries
    ("propagation-500ns", _shipped("case_study_sdn", **{"defaults.propagation": "500ns"}),
     "400ms", 30),
    ("fault_injection-500ns-2s",
     _shipped("fault_injection", **{"defaults.propagation": "500ns"}), "2s", 520),
    ("line8-500ns", _changed(workloads.line_scenario(8), **{"defaults.propagation": "500ns"}),
     "400ms", 30),
    # control messages in flight at the boundaries
    ("control-delay-1ms", _shipped("case_study_sdn", **{"control.one_way_delay": "1ms"}),
     "500ms", 30),
    *[(f"line{n}", workloads.line_scenario(n), "400ms", 30) for n in (1, 2, 3, 5, 8)],
    # the source stops at 400 ms; the network repeats only from then on
    ("count-3000", _shipped("case_study_sdn", **{"cross_traffic.count": 3000}), "500ms",
     330),
    # the 130 us reservation does not divide evenly; rounded up, the Class A
    # credit settles and the network repeats
    ("talker-130us", _shipped("case_study_sdn", **{"talker.interval": "130us"}),
     "500ms", 30),
    # 1000-byte frames every 77 us overload the 100 Mbit/s path, and H = 9.625 ms
    ("send-77us", _shipped("case_study_sdn", **{"cross_traffic.send_interval": "77us"}),
     "500ms", None),
    ("no-cross-traffic", _shipped("case_study_sdn", cross_traffic=None), "400ms", 30),
    ("nosdn-shaper-off", _shipped("case_study_nosdn", shaper_enabled=False), "400ms", 30),
    ("fault-shaper-on", _shipped("fault_injection", shaper_enabled=True), "400ms", None),
    ("queue-capacity-3", _shipped("case_study_sdn", queue_capacity=3), "400ms", 30),
]


@pytest.mark.parametrize("propagation", ["0ns", "500ns"])
def test_no_model_schedules_a_lambda(propagation):
    # a snapshot compares a pending event by its owner and method, so every
    # callback the network dispatches must be a method of one of its models
    raw = _shipped("case_study_sdn", **{"defaults.propagation": propagation})
    cfg = parse_config(raw)
    callbacks = set()
    net = build_network(cfg, trace=lambda kind, _, ev, __: callbacks.add(ev.callback)
                        if kind == "dispatch" else None)
    net.sim.run_until(cfg.run_until_ns)
    owners = {id(model) for model in net.models()}
    strays = sorted({getattr(cb, "__qualname__", repr(cb)) for cb in callbacks
                     if id(getattr(cb, "__self__", None)) not in owners})
    assert not strays


@pytest.mark.parametrize("raw, until, most_run_ms",
                         [case[1:] for case in EQUIVALENCE_CASES],
                         ids=[case[0] for case in EQUIVALENCE_CASES])
def test_skipping_cycles_changes_no_output(raw, until, most_run_ms, tmp_path):
    raw = dict(raw, **({"run_until": until} if until else {}))
    fast = run_scenario(parse_config(raw))
    full = run_scenario(parse_config(raw), trace=lambda *_: None)
    assert full.skipped.cycles == 0
    assert _outputs(fast) == _outputs(full)
    assert _emitted(fast, tmp_path / "fast") == _emitted(full, tmp_path / "full")
    if most_run_ms is not None:
        skipped_ns = fast.skipped.cycles * fast.skipped.period_ns
        assert fast.config.run_until_ns - skipped_ns <= most_run_ms * MS


class Ticker:
    """A toy model: it ticks once a period, and each tick schedules a landing."""

    FF_FIELDS = fields(static="sim period delay as_lambda", counted="ticks landed")

    def __init__(self, sim, period, delay, as_lambda=False):
        self.sim, self.period, self.delay, self.as_lambda = sim, period, delay, as_lambda
        self.ticks = self.landed = 0
        sim.schedule(period // 2, self.tick)

    def tick(self):
        self.ticks += 1
        land = (lambda: self.land()) if self.as_lambda else self.land
        self.sim.schedule_in(self.delay, land)
        self.sim.schedule_in(self.period, self.tick)

    def land(self):
        self.landed += 1


class Drifter(Ticker):
    """A ticker whose tick count is compared, so its state differs every cycle."""

    FF_FIELDS = fields(static="sim period delay as_lambda", normalised="ticks",
                       counted="landed")


def _run_ticker(delay, as_lambda=False, trace=None, model=Ticker, cycles=100):
    period = 1_000
    sim = Simulator()
    ticker = model(sim, period, delay, as_lambda)
    sim.boundary = SteadyState(sim, period, [ticker])
    sim.trace = trace
    sim.run_until(cycles * period)
    return (ticker.ticks, ticker.landed), sim.boundary.summary()


@pytest.mark.parametrize("delay, as_lambda, skips", [
    # the landing is pending at each boundary
    (600, False, True),
    # each cycle adds an event beyond the next boundary: no two snapshots match
    (3_000, False, False),
    # a lambda has no owner whose state a snapshot could compare
    (600, True, False),
], ids=["near-method", "far-method", "lambda"])
def test_only_a_cycle_of_model_methods_within_the_period_is_skipped(delay, as_lambda, skips):
    fast, skipped = _run_ticker(delay, as_lambda)
    full, _ = _run_ticker(delay, as_lambda, trace=lambda *_: None)
    assert fast == full
    assert (skipped.cycles > 90) is skips, skipped
    if as_lambda:
        assert "<lambda>" in skipped.reason


def test_run_until_in_pieces_matches_one_call():
    cfg = load_config(resolve_scenario("case_study_sdn"))
    cfg.run_until_ns = 300 * MS
    whole = run_scenario(cfg)
    net = build_network(cfg)
    for t_end in (50 * MS, 100 * MS + 250_001, 230 * MS, 230 * MS, cfg.run_until_ns):
        net.sim.run_until(t_end)
    assert net.sim.boundary.cycles_skipped > 0
    assert list(net.sink.rows()) == records(whole.sink)


P = 1_000
STEPS = {"stream-1": 2, "udp": 1}


def _sink_with_block(copies):
    """A sink whose period [P, 2P) is stored once more as a block of `copies`
    further copies, and the records the sink expands to. The udp and stream
    frames received at 1_700 share a recv_ns; the stream latencies of the
    template tie, and the frames before and after the block are faster."""
    sink = MetricsSink()
    sink.record("stream-1", 0, 100, 300)
    prev = Cycle(P, P, None, frozenset())
    prev.add_source("s", "stream-1", 1)
    prev.add_source("u", "udp", 0)
    sink.ff_state(prev)
    template = [LatencyRecord("stream-1", 1, 1_100, 1_400),
                LatencyRecord("udp", 0, 1_200, 1_700),
                LatencyRecord("stream-1", 2, 1_400, 1_700)]
    for rec in template:
        sink.record(*rec)
    cx = Cycle(2 * P, P, prev, frozenset())
    cx.add_source("s", "stream-1", 1 + STEPS["stream-1"])
    cx.add_source("u", "udp", STEPS["udp"])
    sink.ff_state(cx)
    cx.cycles = copies
    sink.ff_shift(cx)
    end = (2 + copies) * P
    tail = [LatencyRecord("stream-1", 1 + 2 * (copies + 1), end + 100, end + 350)]
    for rec in tail:
        sink.record(*rec)
    copied = [LatencyRecord(f, s + j * STEPS[f], t + j * P, r + j * P)
              for j in range(1, copies + 1) for f, s, t, r in template]
    return sink, [LatencyRecord("stream-1", 0, 100, 300), *template, *copied, *tail]


def _summary_of(records, ws, we):
    """Per-flow stats of a record list, one record at a time."""
    out = {}
    for flow in sorted({r.flow for r in records}):
        lats = [r.latency_ns for r in records if r.flow == flow and ws <= r.send_ns < we]
        out[flow] = (FlowStats(flow, len(lats), min(lats), sum(lats) / len(lats), max(lats))
                     if lats else None)
    return out


def test_a_block_expands_to_its_copies_in_frame_order():
    sink, expanded = _sink_with_block(10)
    assert len(sink.records) == 5 and len(sink.repeats) == 1
    assert sink.count == len(expanded) == 35
    # at 1_700 + jP the stream frame sorts before the udp one it was stored after
    in_frame_order = sorted(expanded, key=lambda r: (r.recv_ns, r.flow, r.seq))
    assert in_frame_order != expanded
    assert list(sink.rows()) == in_frame_order


@pytest.mark.parametrize("ws, we", [
    (0, 10**9),                        # everything
    (0, P),                            # wholly before the block
    (12 * P, 10**9),                   # wholly after it
    (3 * P + 250, 7 * P + 600),        # starts and ends inside it
    (P + 1_150, 12 * P + 120),         # starts in the template, ends after the block
    (5 * P + 1_150, 5 * P + 1_150),    # empty
    (5 * P + 500, 5 * P + 1_000),      # no send inside
])
def test_the_summary_of_a_block_equals_that_of_its_copies(ws, we):
    sink, expanded = _sink_with_block(10)
    assert sink.summarize(ws, we) == _summary_of(expanded, ws, we)


def test_an_empty_window_gives_none_per_flow():
    sink, _ = _sink_with_block(10)
    assert sink.summarize(5 * P + 500, 5 * P + 1_000) == {"stream-1": None, "udp": None}


def test_the_worst_frame_of_a_block_is_its_last_copy():
    sink, expanded = _sink_with_block(10)
    result = sink.check_guarantee(CLASS_A, 3)
    # every copy of the template's stream frames takes 300 ns: the tie goes
    # to the highest seq, the last copy of seq 2
    assert result.worst == LatencyRecord("stream-1", 2 + 10 * 2, 1_400 + 10 * P,
                                         1_700 + 10 * P)
    assert result.worst == max((r for r in expanded if r.flow == "stream-1"),
                               key=lambda r: (r.latency_ns, r.seq))
    assert result.passed


def _sink_with_quoted_flows():
    """A block of two records whose flow names csv must quote, received at
    the same time."""
    sink = MetricsSink()
    sink.record("a,b", 0, 100, 300)
    sink.record('say "hi"', 0, 100, 300)
    sink.repeats.append(Repeat(0, 2, (1, 2), 3, P))
    return sink


@pytest.mark.parametrize("sink", [_sink_with_block(10)[0], _sink_with_quoted_flows()],
                         ids=["tied-recv", "quoted-flows"])
def test_frames_csv_is_the_csv_writer_rendering_of_the_rows(sink, tmp_path):
    write_frame_csv(tmp_path / "frames.csv", sink)
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FRAME_CSV_HEADER)
        writer.writerows((flow, seq, send, recv, recv - send)
                         for flow, seq, send, recv in sink.rows())
    assert (tmp_path / "frames.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_the_key_tells_apart_frame_sizes_and_the_queue_they_wait_in():
    class Queues:
        FF_FIELDS = fields(normalised="queues")

        def __init__(self, *queues):
            self.queues = [deque(q) for q in queues]

    def key(*queues):
        return SteadyState(Simulator(), P, [Queues(*queues)])._key(0)

    def frame(frame_bytes):
        return make_frame(MacAddress(bytes(6)), BROADCAST,
                          ArpMessage(ArpKind.REQUEST, "x"), frame_bytes)

    small, large = frame(100), frame(200)
    assert key([small, large], []) == key([frame(100), frame(200)], [])
    # the same number of frames in the same queue, of other sizes or order
    assert key([small, small], []) != key([small, large], [])
    assert key([small, large], []) != key([large, small], [])
    # the same frames in another queue
    assert key([small], []) != key([], [small])


def _reference_key(boundary, b):
    """The key as first written: `pending_before` and one `_method` call per
    event, then every queue tested and its frames' sizes read by name."""
    owners = boundary._owners
    events = tuple((ev.fire_at - b, *fastforward._method(ev.callback, owners))
                   for ev in boundary.sim.pending_before(b + boundary.period))
    return events, tuple((i, tuple(map(attrgetter("frame_bytes"), q)))
                         for i, q in enumerate(boundary._queues) if q)


def _check_keys(monkeypatch, key):
    """Make `key` build each key of the runs that follow, and check it against
    the reference's at the same boundary; one bool per key, True when they
    are equal or both refused for the same reason."""
    matches = []

    def checked(self, b):
        try:
            expected = _reference_key(self, b)
        except NotPeriodic as exc:
            expected = str(exc)
        try:
            got = key(self, b)
        except NotPeriodic as exc:
            matches.append(str(exc) == expected)
            raise
        matches.append(got == expected)
        return got

    monkeypatch.setattr(SteadyState, "_key", checked)
    return matches


@pytest.fixture
def checked_keys(monkeypatch):
    return _check_keys(monkeypatch, SteadyState._key)


KEY_CASES = [
    ("case_study_sdn", _shipped("case_study_sdn"), None),
    ("case_study_nosdn", _shipped("case_study_nosdn"), None),
    ("fault_injection", _shipped("fault_injection"), None),
    ("line8-default", workloads.line_scenario(8), None),
    ("fault_injection-600ms", _shipped("fault_injection"), "600ms"),
]


@pytest.mark.parametrize("raw, until", [case[1:] for case in KEY_CASES],
                         ids=[case[0] for case in KEY_CASES])
def test_every_key_equals_the_reference_key(raw, until, checked_keys):
    raw = dict(raw, **({"run_until": until} if until else {}))
    run_scenario(parse_config(raw))
    assert checked_keys and all(checked_keys), checked_keys


@pytest.mark.parametrize("delay, as_lambda", [(600, False), (3_000, False), (600, True)],
                         ids=["near-method", "far-method", "lambda"])
def test_every_key_of_a_toy_model_equals_the_reference_key(delay, as_lambda, checked_keys):
    _run_ticker(delay, as_lambda)
    assert checked_keys and all(checked_keys), checked_keys


def test_a_method_of_an_object_outside_the_model_is_refused_as_the_reference_refuses_it(
        checked_keys):
    sim = Simulator()
    Ticker(sim, 1_000, 600)     # its pending tick is not a method of a model
    sim.boundary = SteadyState(sim, 1_000, [])
    sim.run_until(10_000)
    assert checked_keys and all(checked_keys), checked_keys
    reason = sim.boundary.summary().reason
    assert re.fullmatch(r"pending Ticker\.\w+ is not a model method", reason)


def test_a_key_that_drops_a_queued_frame_fails_the_reference(monkeypatch):
    # the negative control: the comparison above sees a frame left out
    key = SteadyState._key

    def short(self, b):
        events, queued = key(self, b)
        return events, tuple((i, sizes[1:]) for i, sizes in queued)

    matches = _check_keys(monkeypatch, short)
    run_scenario(parse_config(dict(_shipped("fault_injection"), run_until="300ms")))
    assert matches and not all(matches)


def test_a_longer_run_stores_no_more_records():
    # a skip stores one block, whatever the number of periods it skips
    def run(until_ns):
        cfg = load_config(resolve_scenario("case_study_sdn"))
        cfg.run_until_ns = until_ns
        return run_scenario(cfg)

    short, long = run(2_000 * MS), run(60_000 * MS)
    assert len(long.sink.records) == len(short.sink.records)
    assert len(long.sink.repeats) == len(short.sink.repeats)
    assert long.sink.count == sum(1 for _ in long.sink.rows())
    assert long.sink.count > 29 * short.sink.count


def test_a_run_that_never_repeats_backs_off():
    # its key comes round every cycle but its state never does: each failed
    # candidate doubles the wait before the keys are learnt again
    cycles = 4_000
    fast, skipped = _run_ticker(600, model=Drifter, cycles=cycles)
    full, _ = _run_ticker(600, model=Drifter, cycles=cycles, trace=lambda *_: None)
    assert fast == full
    assert skipped.cycles == 0
    assert skipped.reason == "the state changed over a 1000 ns cycle"
    assert 0 < skipped.snapshots <= 2 * (math.log2(cycles) + 2)


def test_the_overload_is_found_to_repeat_every_72_cycles():
    # the shaperless overload fills a queue and drops; its state comes round
    # every 72 hyperperiods, not every one
    cfg = load_config(resolve_scenario("fault_injection"))
    cfg.run_until_ns = 2_000 * MS
    skipped = run_scenario(cfg).skipped
    assert skipped.repeat_ns == 72 * skipped.period_ns == 36 * MS
    assert skipped.cycles == 3_149
    assert skipped.snapshots == 4
    assert skipped.line() == (
        f"fast-forward: {skipped.cycles} cycles of 500000 ns skipped, "
        f"{skipped.cycles * 500_000} ns of simulated time (period 36000000 ns = 72 cycles)")


def test_a_trace_hook_runs_every_cycle():
    result = run_scenario(load_config(resolve_scenario("case_study_sdn")),
                          trace=lambda *_: None)
    assert result.skipped.line() == ("fast-forward: 0 cycles of 500000 ns skipped "
                                     "(a trace hook sees every dispatch)")


def test_report_and_stdout_give_the_cycles_skipped(tmp_path, capsys):
    assert main(["run", "--scenario", "case_study_sdn", "--until", "500ms",
                 "--out", str(tmp_path)]) == 0
    # the network repeats every cycle, so the line names no longer period
    line = "fast-forward: 990 cycles of 500000 ns skipped, 495000000 ns of simulated time"
    assert line in capsys.readouterr().out.splitlines()
    assert line in (tmp_path / "report.txt").read_text().splitlines()


def test_a_period_confirmed_with_less_than_one_left_is_named(capsys, tmp_path):
    # the overload's 36 ms period is confirmed at 489 ms, 11 ms before the end
    assert main(["run", "--scenario", "fault_injection", "--until", "500ms",
                 "--out", str(tmp_path)]) == 0
    line = ("fast-forward: 197 cycles of 500000 ns skipped, 98500000 ns of simulated time; "
            "then a 36000000 ns period confirmed at 489000000 ns, with 11000000 ns left, "
            "less than one period")
    assert line in capsys.readouterr().out.splitlines()
    assert line in (tmp_path / "report.txt").read_text().splitlines()


def test_a_run_that_confirms_its_only_period_too_late_says_so():
    # the ticker's state repeats every cycle: keys at 1 and 2 us, confirmed at 3 us
    sim = Simulator()
    ticker = Ticker(sim, 1_000, 600)
    sim.boundary = SteadyState(sim, 1_000, [ticker])
    sim.run_until(3_500)
    assert sim.boundary.summary().line() == (
        "fast-forward: 0 cycles of 1000 ns skipped (a 1000 ns period confirmed at 3000 ns, "
        "with 500 ns left, less than one period)")


def test_a_period_confirmed_too_late_in_one_call_is_not_named_after_a_later_call():
    # the 36 ms period confirmed 11 ms before the end of the first call; the
    # second call goes on past that end, so the note no longer holds
    cfg = load_config(resolve_scenario("fault_injection"))
    net = build_network(cfg)
    net.sim.run_until(500 * MS)
    assert net.sim.boundary.summary().unused == (36 * MS, 489 * MS, 11 * MS)
    net.sim.run_until(505 * MS)
    assert net.sim.boundary.summary().line() == \
        "fast-forward: 197 cycles of 500000 ns skipped, 98500000 ns of simulated time"


def test_a_scenario_without_a_source_reports_why_nothing_was_skipped():
    raw = _shipped("case_study_nosdn", talker=None, cross_traffic=None, listeners=None)
    assert run_scenario(parse_config(raw)).skipped.line() == \
        "fast-forward: 0 cycles skipped (no periodic traffic source)"


# -- value copies of the records a snapshot holds -----------------------------


def _cycle():
    return Cycle(0, P, None, frozenset())


def _flow_table(miss_action):
    table = FlowTable()
    table.install(FlowMatch(in_port=1), 10, [Output([2])])
    table.miss_action = miss_action
    return table


def test_the_fieldless_actions_differ_and_freeze_by_their_type():
    # a NamedTuple without fields equals (), and so every other one
    cx = _cycle()
    assert Drop() != ToController()
    assert cx.freeze(Drop()) == cx.freeze(Drop()) != cx.freeze(ToController())


def test_flow_tables_that_differ_only_in_their_miss_action_freeze_apart():
    cx = _cycle()
    assert cx.state_of(_flow_table(Drop())) == cx.state_of(_flow_table(Drop()))
    assert cx.state_of(_flow_table(Drop())) != cx.state_of(_flow_table(ToController()))


def test_a_record_changed_after_a_snapshot_leaves_the_frozen_copy():
    # a snapshot holding the record itself would change with it, and a
    # changed table would pass as the state come round
    cx = _cycle()
    table = _flow_table(Drop())
    frozen = cx.state_of(table)
    table.install(FlowMatch(in_port=1), 10, [Output([3])])     # same entry, new actions
    assert cx.state_of(table) != frozen

    sid = StreamId(MacAddress.parse("02:00:00:00:00:01"), 1)
    streams = SrTable()
    streams.register_talker(SrpMessage(SrpKind.TALKER_ADVERTISE, sid,
                                       MacAddress.parse("91:E0:F0:00:00:01"),
                                       VlanTag(2, 6), 150, 125_000, "A"), 0)
    streams.add_listener(sid, 1)
    frozen = cx.state_of(streams)
    streams.add_listener(sid, 2)                                # the same list, grown
    assert cx.state_of(streams) != frozen


class Logger(Ticker):
    """A ticker that logs each tick in a deque, a normalised field."""

    FF_FIELDS = fields(static="sim period delay as_lambda", normalised="log",
                       counted="ticks landed")

    def __init__(self, *args):
        self.log = deque()
        super().__init__(*args)

    def tick(self):
        super().tick()
        self.log.append(self.ticks)


def test_a_snapshot_refuses_a_deque_it_cannot_copy():
    # kept as it is, the deque would be one object in both snapshots, which
    # would always match: the run would skip 97 of 100 cycles and log 3 ticks
    sim = Simulator()
    logger = Logger(sim, P, 600)
    sim.trace = lambda *_: None
    sim.run_until(100 * P)
    assert len(logger.log) == 100
    sim = Simulator()
    logger = Logger(sim, P, 600)
    sim.boundary = SteadyState(sim, P, [logger])
    with pytest.raises(TypeError, match="collections.deque"):
        sim.run_until(100 * P)


class Plain:
    """A record without `__slots__`: its fields live in a `__dict__`."""

    def __init__(self):
        self.x = 0


@pytest.mark.parametrize("value, name", [
    (deque([1]), "collections.deque"),
    (bytearray(b"x"), "builtins.bytearray"),
    (Plain(), "Plain"),
    ([1, {"a": deque()}], "collections.deque"),     # found inside a copied value
], ids=["deque", "bytearray", "no-slots", "nested-deque"])
def test_freeze_refuses_a_mutable_value_it_cannot_copy(value, name):
    with pytest.raises(TypeError, match=re.escape(name)):
        _cycle().freeze(value)


class Base:
    __slots__ = ("a",)


class Derived(Base):
    __slots__ = ("b",)


def test_a_record_freezes_the_slots_of_its_bases_after_its_own():
    record = Derived()
    record.a, record.b = 1, [2]
    assert _cycle().freeze(record) == (Derived, (2,), 1)


# -- the freeze table and plans against the generic freeze they replaced ------


class ReferenceCycle(Cycle):
    """A `Cycle` with the generic freeze that the kind table and the per-class
    plans replaced: an isinstance chain on every value, and the normalised
    names looked up at every snapshot. Every snapshot must equal the one it
    takes."""

    def freeze(self, value):
        if isinstance(value, dict):
            return {key: self.freeze(item) for key, item in value.items()}
        if isinstance(value, set):
            return frozenset(value)
        if isinstance(value, list):
            return tuple(self.freeze(item) for item in value)
        if isinstance(value, Event):
            return self.event(value)
        slots = getattr(type(value), "__slots__", None)
        if slots is not None and not isinstance(value, tuple):
            return (type(value),) + tuple(self.freeze(getattr(value, name))
                                          for name in slots)
        return value

    def state_of(self, model):
        own = model.ff_state(self) if hasattr(model, "ff_state") else None
        return tuple(self.freeze(getattr(model, name))
                     for name, kind in type(model).FF_FIELDS.items()
                     if kind == NORMALISED), own


@pytest.fixture
def checked_snapshots(monkeypatch):
    """Check each snapshot a run takes against the reference's, taken on a
    cycle of its own at the same boundary; one bool per snapshot, True when
    they are equal or both refused for the same reason."""
    matches = []
    snapshot = SteadyState._snapshot

    def checked(self, cx):
        ref = ReferenceCycle(cx.start, cx.period, cx.prev, cx._owners)
        try:
            expected = (self.sim.ff_state(ref), [ref.state_of(m) for m in self._models])
        except NotPeriodic as exc:
            expected = str(exc)
        try:
            snapshot(self, cx)
        except NotPeriodic as exc:
            matches.append(str(exc) == expected)
            raise
        matches.append(cx.state == expected)

    monkeypatch.setattr(SteadyState, "_snapshot", checked)
    return matches


SNAPSHOT_CASES = [case[:3] for case in EQUIVALENCE_CASES] + [
    ("line8-default", workloads.line_scenario(8), None)]


@pytest.mark.parametrize("raw, until", [case[1:] for case in SNAPSHOT_CASES],
                         ids=[case[0] for case in SNAPSHOT_CASES])
def test_every_snapshot_equals_the_generic_freeze(raw, until, checked_snapshots):
    raw = dict(raw, **({"run_until": until} if until else {}))
    run_scenario(parse_config(raw))
    assert checked_snapshots and all(checked_snapshots), checked_snapshots


def test_a_plan_that_drops_a_normalised_field_fails_the_reference(
        checked_snapshots, monkeypatch):
    # the negative control: the comparison above sees a field left out
    names = [name for name, kind in FlowTable.FF_FIELDS.items() if kind == NORMALISED]
    monkeypatch.setitem(fastforward.PLANS, FlowTable, fastforward.plan(None, names[:-1]))
    run_scenario(load_config(resolve_scenario("case_study_sdn")))
    assert checked_snapshots and not any(checked_snapshots)


GUARDED_CLASSES = (EgressPort, CreditState, Host, Switch, FlowTable, SrTable,
                   Controller, ControlChannel, MetricsSink)


def test_every_model_field_is_classified_for_the_fast_forward():
    # a field added later must say how a snapshot treats it, or fail here
    cfg = load_config(resolve_scenario("case_study_sdn"))
    net = build_network(cfg)
    net.sim.run_until(cfg.run_until_ns)
    models = net.models()
    models += [cs for port in models if isinstance(port, EgressPort)
               for cs in port.shaped.values()]
    seen = set()
    for model in models:
        cls = type(model)
        if cls not in GUARDED_CLASSES:
            continue
        seen.add(cls)
        kinds = cls.FF_FIELDS
        # a record with `__slots__` has no `__dict__`: its slots are its fields
        names = cls.__slots__ if hasattr(cls, "__slots__") else vars(model)
        assert set(names) == set(kinds), cls.__name__
        assert set(kinds.values()) <= {STATIC, NORMALISED, SHIFTED, COUNTED}
        if SHIFTED in kinds.values():
            assert hasattr(cls, "ff_state") and hasattr(cls, "ff_shift"), cls.__name__
        for name, kind in kinds.items():
            value = getattr(model, name)
            if kind == COUNTED:
                assert isinstance(value, int), f"{cls.__name__}.{name}"
            if kind == NORMALISED:
                # `Cycle.freeze` refuses a model, whose fields live in its
                # `__dict__`: a model is a static field and goes into
                # `Network.models()` on its own
                items = value.values() if isinstance(value, dict) else ()
                for item in (value, *items):
                    assert not hasattr(item, "FF_FIELDS"), f"{cls.__name__}.{name}"
    assert seen == set(GUARDED_CLASSES)
