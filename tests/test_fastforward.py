"""Steady-state fast-forward: a run that skips cycles equals one that runs them all.

A `Simulator.trace` hook turns the fast-forward off, so the same scenario run
with a no-op hook is the reference every untraced run is compared against.
"""

import csv
import math
import re
from collections import deque
from functools import partial
from operator import attrgetter

import pytest
import yaml

from tssdnsim import fastforward
from tssdnsim.cli import main, resolve_scenario
from tssdnsim.config import Section, load_config, parse_config
from tssdnsim.control import ControlChannel, Controller
from tssdnsim.engine import Event, SimulationError, Simulator
from tssdnsim.fastforward import (COUNTED, NORMALISED, SHIFTED, STATIC, TRACKED, Cycle,
                                  NotPeriodic, SteadyState, fields)
from tssdnsim.hosts import Host, Talker, UdpSource
from tssdnsim.frames import (ArpKind, ArpMessage, BROADCAST, MacAddress, SrpKind,
                             SrpMessage, StreamId, VlanTag, make_frame)
from tssdnsim.metrics import (FRAME_CSV_HEADER, FlowStats, LatencyRecord, MetricsSink,
                              Repeat, guarantee_result, write_frame_csv)
from tssdnsim.scenario import Network, build_network, emit_outputs, run_scenario
from tssdnsim.srp import CLASS_A, admit, release
from tssdnsim.shaping import CreditState, EgressPort
from tssdnsim.switching import (Drop, FlowEntry, FlowMatch, FlowTable, Output, SrTable,
                                Switch, ToController)

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


# three listeners: client3 on switch0, and client1 and client2 on switch1,
# behind one port of switch0, which so takes two readies on one port
STAR = {"clients": ["client0", "client1", "client2", "client3"],
        "links": [{"a": "client0", "b": "switch0"}, {"a": "switch0", "b": "switch1"},
                  {"a": "switch1", "b": "client1"}, {"a": "switch1", "b": "client2"},
                  {"a": "switch0", "b": "client3"}],
        "listeners": [{"node": "client1"}, {"node": "client2"}, {"node": "client3"}]}


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
    # 16 flow tables, 32 SR tables and 17 reserving ports, each compared by
    # its change count
    ("line16", workloads.line_scenario(16), "600ms", 30),
    # 40 ms each way to the controller: the set-up is idle stretches between
    # control messages in flight, which are jumped, though their snapshots
    # differ by the times they hold; the listener ready comes at 1.38 s
    ("line8-control-40ms", _changed(workloads.line_scenario(8),
                                    **{"control.one_way_delay": "40ms"}), "1500ms", 170),
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
    ("star-sdn", _shipped("case_study_sdn", **STAR), "500ms", 30),
    ("star-nosdn", _shipped("case_study_nosdn", **STAR), "500ms", 30),
]


@pytest.mark.parametrize("propagation", ["0ns", "500ns"])
def test_no_model_schedules_a_lambda(propagation):
    # a snapshot compares a pending event by its owner and method, so every
    # callback the network dispatches must be a method of one of its models
    raw = _shipped("case_study_sdn", **{"defaults.propagation": propagation})
    cfg = parse_config(raw)
    callbacks = set()
    net = build_network(cfg, trace=lambda kind, _, entry, __: callbacks.add(entry[2])
                        if kind == "dispatch" else None)
    net.sim.run_until(cfg.run_until)
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
        assert fast.config.run_until - skipped_ns <= most_run_ms * MS


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
        now = self.sim.now()
        self.sim.schedule(now + self.delay, land)
        self.sim.schedule(now + self.period, self.tick)

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
    cfg.run_until = 300 * MS
    whole = run_scenario(cfg)
    net = build_network(cfg)
    for t_end in (50 * MS, 100 * MS + 250_001, 230 * MS, 230 * MS, cfg.run_until):
        net.sim.run_until(t_end)
    assert net.sim.boundary.cycles_skipped > 0
    assert list(net.sink.rows()) == records(whole.sink)


def _pending_wakeups(net):
    """(port, fire_at) of each port's credit wakeup that has yet to fire."""
    return [(model.name, model._wakeup.fire_at) for model in net.models()
            if isinstance(model, EgressPort) and model._wakeup is not None
            and model._wakeup.entry[2] is not None]


def test_a_port_holds_its_credit_wakeup_at_its_full_run_time_after_a_skip():
    # on line 8, switch7:1 waits for Class A credit across every boundary
    # (until 15,480 ns after it), so its wakeup is among the events a skip
    # moves; moved in place, the port's handle reads the full run's time
    cfg = parse_config(workloads.line_scenario(8))
    t_end = 300_005_000
    fast, full = build_network(cfg), build_network(cfg, trace=lambda *_: None)
    fast.sim.run_until(t_end)
    full.sim.run_until(t_end)
    assert fast.sim.boundary.cycles_skipped > 500
    assert _pending_wakeups(fast) == _pending_wakeups(full) == [("switch7:1", 300_015_480)]


P = 1_000
STEPS = {"stream-1": 2, "udp": 1}


def _sink_with_block(copies):
    """A sink whose period [P, 2P) is stored once more as a block of `copies`
    further copies, and the records the sink expands to. The udp and stream
    frames received at 1_700 share a recv_ns; the stream latencies of the
    template tie, and the frames before and after the block are faster."""
    sink = MetricsSink()
    sink.record("stream-1", 0, 100, 300)
    flows = {"stream-1": "s", "udp": "u"}
    prev = Cycle(P, P, None)
    prev.seqs, prev.flows = {"s": 1, "u": 0}, flows
    sink.ff_state(prev)
    template = [LatencyRecord("stream-1", 1, 1_100, 1_400),
                LatencyRecord("udp", 0, 1_200, 1_700),
                LatencyRecord("stream-1", 2, 1_400, 1_700)]
    for rec in template:
        sink.record(*rec)
    cx = Cycle(2 * P, P, prev)
    cx.seqs, cx.flows = {"s": 1 + STEPS["stream-1"], "u": STEPS["udp"]}, flows
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
        sent = [r for r in records if r.flow == flow and ws <= r.send_ns < we]
        lats = [r.latency_ns for r in sent]
        out[flow] = (FlowStats(flow, len(lats), min(lats), sum(lats) / len(lats), max(lats),
                               min(r.send_ns for r in sent),
                               max(sent, key=lambda r: (r.latency_ns, r.seq)))
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
    assert sink.flow_stats(ws, we) == _summary_of(expanded, ws, we)


def test_an_empty_window_gives_none_per_flow():
    sink, _ = _sink_with_block(10)
    assert sink.flow_stats(5 * P + 500, 5 * P + 1_000) == {"stream-1": None, "udp": None}


def test_the_worst_frame_of_a_block_is_its_last_copy():
    sink, expanded = _sink_with_block(10)
    result = guarantee_result(sink.flow_stats()["stream-1"], CLASS_A, 3)
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


def _run_sink(name, **changes):
    """The sink of a run of a shipped scenario, changed as `_changed` does."""
    return run_scenario(parse_config(_shipped(name, **changes))).sink


FRAME_CSV_SINKS = {
    "tied-recv": lambda: _sink_with_block(10)[0],
    "quoted-flows": _sink_with_quoted_flows,
    **{name: partial(_run_sink, name)
       for name in ("case_study_sdn", "case_study_nosdn", "fault_injection")},
    # stored rows only, then one 72-cycle block among them
    "fault_injection-400ms": partial(_run_sink, "fault_injection", run_until="400ms"),
    "fault_injection-2s": partial(_run_sink, "fault_injection", run_until="2s"),
}


@pytest.mark.parametrize("case", FRAME_CSV_SINKS)
def test_frames_csv_is_the_csv_writer_rendering_of_the_rows(case, tmp_path):
    sink = FRAME_CSV_SINKS[case]()
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


def _pending_before(sim, horizon):
    """The heap entries of the live pending events that fire before `horizon`,
    in dispatch order, by a walk of the heap of their own."""
    return [entry for entry in sorted(entry for entry in sim._heap if entry[0] < horizon)
            if entry[2] is not None]


def _normalised(boundary, b, pending):
    """Pending events as a key or snapshot at b holds them: one `_method`
    call per event."""
    return tuple((fire_at - b, *fastforward._method(callback, boundary._owners))
                 for fire_at, _, callback in pending)


def _reference_key(boundary, b):
    """The key as first written: `_pending_before` and one `_method` call per
    event, then every queue tested and its frames' sizes read by name."""
    events = _normalised(boundary, b, _pending_before(boundary.sim, b + boundary.period))
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


# the `_key` calls of the sweep's runs where a candidate spans more than one
# cycle; the rest take as many as a run that keys inside a candidate too
KEYS_TAKEN = {"fault_injection-2s": 781, "fault_injection-500ns-2s": 781,
              "control-delay-1ms": 25, "line8-control-40ms": 276}


@pytest.mark.parametrize("case, raw, until", [case[:3] for case in EQUIVALENCE_CASES],
                         ids=[case[0] for case in EQUIVALENCE_CASES])
def test_no_key_is_taken_inside_an_open_candidate(case, raw, until, monkeypatch):
    # every way a candidate resolves forgets the keys seen, so a key taken
    # while it is open would never be read
    key = SteadyState._key
    taken, inside = [], []

    def watched(self, b):
        if self._candidate is not None:
            period, _, cand = self._candidate
            if cand.start < b < cand.start + period:
                inside.append(b)
        taken.append(b)
        return key(self, b)

    monkeypatch.setattr(SteadyState, "_key", watched)
    run_scenario(parse_config(dict(raw, **({"run_until": until} if until else {}))))
    assert not inside
    if case in KEYS_TAKEN:
        assert len(taken) == KEYS_TAKEN[case]


def test_a_longer_run_stores_no_more_records():
    # a skip stores one block, whatever the number of periods it skips
    def run(until_ns):
        cfg = load_config(resolve_scenario("case_study_sdn"))
        cfg.run_until = until_ns
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
    cfg.run_until = 2_000 * MS
    skipped = run_scenario(cfg).skipped
    assert skipped.repeat_ns == 72 * skipped.period_ns == 36 * MS
    assert skipped.cycles == 3_149
    # the idle set-up before 100 ms is jumped without a snapshot; the two
    # left confirm the 72-cycle period
    assert skipped.snapshots == 2
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


def test_idle_stretches_with_messages_in_flight_are_jumped():
    # no pair of snapshots finds these stretches idle: a reserved port holds
    # the time it last settled its credits, which tells them apart
    raw = _changed(workloads.line_scenario(8), **{"control.one_way_delay": "40ms"},
                   run_until="1500ms")
    assert run_scenario(parse_config(raw)).skipped.line() == (
        "fast-forward: 2662 cycles of 500000 ns skipped, 1331000000 ns of simulated time")


@pytest.mark.parametrize("raw, cycles, frames", [
    (dict(workloads.line_scenario(16), run_until="600ms"), 1160, ("9de5c1dd1a0f9cf6", 8_927)),
    # the shaped benchmark workloads, whose snapshots hold each port's
    # credit clock, normalised to b
    (_shipped("case_study_sdn", run_until="1500ms"), 2990, ("17d12910d164c0c1", 25_190)),
    (dict(workloads.line_scenario(8), run_until="600ms"), 1177, ("cc1513cfeed426b2", 8_963)),
], ids=["line16", "sdn_steady", "line8_sdn"])
def test_a_line_is_skipped_from_its_set_up_on(raw, cycles, frames):
    result = run_scenario(parse_config(raw))
    assert result.skipped.line() == (f"fast-forward: {cycles} cycles of 500000 ns skipped, "
                                     f"{cycles * 500_000} ns of simulated time")
    assert result.skipped.snapshots == 2
    assert (result.frame_csv_hash()[:16], result.sink.count) == frames


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


ORDER_CASES = [
    ("case-study-sdn-1500ms", _shipped("case_study_sdn", run_until="1500ms"), 2990),
    ("fault-injection-2s", _shipped("fault_injection", run_until="2s"), 3149),
    ("line8-600ms", dict(workloads.line_scenario(8), run_until="600ms"), 1177),
]


@pytest.mark.parametrize("raw, cycles", [case[1:] for case in ORDER_CASES],
                         ids=[case[0] for case in ORDER_CASES])
def test_the_fast_forward_does_not_depend_on_the_order_of_the_models(
        raw, cycles, monkeypatch):
    # the sources are registered when the network is built, so no model's
    # snapshot waits for theirs; with the models reversed, the ports and the
    # sink come first
    built = run_scenario(parse_config(raw))
    models = Network.models
    monkeypatch.setattr(Network, "models", lambda net: models(net)[::-1])
    reversed_ = run_scenario(parse_config(raw))
    assert built.skipped.cycles == cycles
    assert reversed_.skipped.line() == built.skipped.line()
    assert reversed_.skipped.snapshots == built.skipped.snapshots
    assert reversed_.frame_csv_hash() == built.frame_csv_hash()


def test_two_sources_that_share_a_flow_are_refused_every_snapshot():
    # their records could not be told apart, so no seq step per cycle is
    # known for the flow; the refusal is found when the network is built
    raw = _shipped("case_study_sdn", idle_setup="1ms", **{"talker.advertise_at": None,
                                                          "cross_traffic.start_at": None})
    cfg = parse_config(raw)
    net = build_network(cfg)
    back = Section(**{**vars(cfg.cross_traffic), "node": "client1", "dst_node": "client0"})
    net.sources.append(UdpSource(net.hosts["client1"], back))
    boundary = SteadyState(net.sim, net.sim.boundary.period, net.models(), net.sources)
    assert boundary._refused == "two sources share flow udp"
    net.sim.boundary = boundary
    net.sim.run_until(cfg.run_until)
    assert boundary.snapshots > 0
    assert boundary.summary().line() == \
        "fast-forward: 0 cycles of 500000 ns skipped (two sources share flow udp)"


def test_a_scenario_without_a_source_reports_why_nothing_was_skipped():
    raw = _shipped("case_study_nosdn", talker=None, cross_traffic=None, listeners=None)
    assert run_scenario(parse_config(raw)).skipped.line() == \
        "fast-forward: 0 cycles skipped (no periodic traffic source)"


# -- value copies of the records a snapshot holds -----------------------------


def _cycle():
    return Cycle(0, P, None)


def _freeze(cx, value):
    """A value copy of a normalised field, by the kind table a snapshot uses."""
    kind = fastforward.KINDS[type(value)]
    return value if kind is None else kind(cx, value)


def _state_of(cx, model):
    """A snapshot of one model."""
    return cx.snapshot(fastforward.model_plans([model]))


SID = StreamId(MacAddress.parse("02:00:00:00:00:01"), 1)


def _advertise(frame_bytes=150, interval_ns=125_000):
    return SrpMessage(SrpKind.TALKER_ADVERTISE, SID,
                      MacAddress.parse("91:E0:F0:00:00:01"), VlanTag(2, 6), frame_bytes,
                      interval_ns, "A")


def _flow_table(miss_action):
    table = FlowTable()
    table.install(FlowMatch(in_port=1), 10, [Output([2])])
    table.set_miss_action(miss_action)
    return table


def test_the_fieldless_actions_differ_and_freeze_by_their_type():
    # a NamedTuple without fields equals (), and so every other one
    cx = _cycle()
    assert Drop() != ToController()
    assert _freeze(cx, Drop()) == _freeze(cx, Drop()) != _freeze(cx, ToController())


def test_a_flow_table_whose_miss_action_changed_snapshots_apart():
    # a skip over a change of the miss action alone would forward the frames
    # of the skipped periods by the old one
    cx = _cycle()
    table = _flow_table(Drop())
    before = _state_of(cx, table)
    assert _state_of(cx, table) == before
    table.set_miss_action(ToController())
    assert _state_of(cx, table) != before


def test_a_record_changed_after_a_snapshot_leaves_the_frozen_copy():
    # a snapshot holding the record itself would change with it, and a
    # changed table would pass as the state come round
    cx = _cycle()
    table = _flow_table(Drop())
    frozen = _state_of(cx, table)
    table.install(FlowMatch(in_port=1), 10, [Output([3])])     # same entry, new actions
    assert _state_of(cx, table) != frozen

    streams = SrTable()
    streams.register_talker(_advertise(), 0)
    streams.add_listener(SID, 1)
    frozen = _state_of(cx, streams)
    streams.add_listener(SID, 2)                                # the same list, grown
    assert _state_of(cx, streams) != frozen


# -- the change counts of tracked fields --------------------------------------

def _moves(model, change):
    """Whether calling `change` moved the model's change count."""
    before = model.changes
    change()
    return model.changes != before


def test_a_flow_table_counts_each_install_that_changes_it():
    table = FlowTable()
    assert _moves(table, lambda: table.install(FlowMatch(in_port=1), 10, [Output([2])]))
    # the same match and priority with other actions
    assert _moves(table, lambda: table.install(FlowMatch(in_port=1), 10, [Output([3])]))
    # the same rule again
    assert not _moves(table, lambda: table.install(FlowMatch(in_port=1), 10, (Output([3]),)))
    # another priority makes another entry
    assert _moves(table, lambda: table.install(FlowMatch(in_port=1), 20, [Output([3])]))
    assert len(table.entries) == 2


def test_a_flow_table_counts_each_miss_action_set():
    table = FlowTable()
    assert _moves(table, lambda: table.set_miss_action(ToController()))
    assert isinstance(table.miss_action, ToController)


def test_an_sr_table_counts_the_first_advertise_and_refuses_a_second():
    table = SrTable()
    assert _moves(table, lambda: table.register_talker(_advertise(), 0))
    for advertise, port in [(_advertise(), 0), (_advertise(300), 0), (_advertise(), 1)]:
        before = table.changes
        with pytest.raises(SimulationError, match="advertised twice"):
            table.register_talker(advertise, port)
        assert table.changes == before
    assert table.streams[SID].descriptor == _advertise()


def test_an_sr_table_counts_each_new_listener_port_but_not_one_already_listed():
    table = SrTable()
    table.register_talker(_advertise(), 0)
    assert _moves(table, lambda: table.add_listener(SID, 2))
    assert not _moves(table, lambda: table.add_listener(SID, 2))
    assert _moves(table, lambda: table.add_listener(SID, 1))
    assert table.streams[SID].listener_ports == [1, 2]


@pytest.mark.parametrize("shaper_enabled", [True, False], ids=["shaped", "unshaped"])
def test_a_port_counts_each_reservation_change(shaper_enabled):
    port = EgressPort(Simulator(), "p", None, 0, 100_000_000, 0, 8, shaper_enabled)
    assert _moves(port, lambda: admit(port, _advertise()))
    # a stream that was not admitted on the port
    assert not _moves(port, lambda: release(port, StreamId(SID.talker, 2)))
    assert _moves(port, lambda: release(port, SID))
    assert port.reserved_streams == {}
    # a refusal changes no reservation, and is counted as a rejection
    assert not _moves(port, lambda: admit(port, _advertise(1500, 10_000)))
    assert port.reservations_rejected == 1


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
        _freeze(_cycle(), value)


class Base:
    __slots__ = ("a",)


class Derived(Base):
    __slots__ = ("b",)


def test_a_record_freezes_the_slots_of_its_bases_after_its_own():
    record = Derived()
    record.a, record.b = 1, [2]
    assert _freeze(_cycle(), record) == (Derived, (2,), 1)


# -- the freeze table and plans against the generic freeze they replaced ------


class ReferenceCycle(Cycle):
    """A `Cycle` with the generic freeze that the kind table and the plans
    replaced: an isinstance chain on every value, and the normalised names
    looked up at every snapshot. Every snapshot must equal the one it
    takes."""

    def freeze(self, value):
        if isinstance(value, dict):
            return {key: self.freeze(item) for key, item in value.items()}
        if isinstance(value, set):
            return frozenset(value)
        if isinstance(value, list):
            return tuple(self.freeze(item) for item in value)
        if isinstance(value, Event):
            # through the handle's own reading of its entry
            return None if value.entry[2] is None or value.fire_at < self.start \
                else value.fire_at - self.start
        slots = getattr(type(value), "__slots__", None)
        if slots is not None and not isinstance(value, tuple):
            return (type(value),) + tuple(self.freeze(getattr(value, name))
                                          for name in slots)
        return value

    def snapshot(self, models, sources):
        # each model's fields by name, not through its plan, and the sources'
        # next seqs read by the reference itself
        self.seqs = {source.key: source.seq for source in sources}
        self.flows = {flow: source.key for source in sources for flow in source.flows}
        own = [model.ff_state(self) for model in models if hasattr(model, "ff_state")]
        return own, [self.freeze(getattr(model, name)) for model in models
                     for name, kind in type(model).FF_FIELDS.items() if kind == NORMALISED]

    def tracked_of(self, model):
        """The contents of a model's tracked fields, which a snapshot compares
        by their change count; a port's include its credit states'."""
        contents = tuple(self.freeze(getattr(model, name))
                         for name, kind in type(model).FF_FIELDS.items() if kind == TRACKED)
        if isinstance(model, EgressPort):
            contents += ({pcp: self.tracked_of(cs) for pcp, cs in model.shaped.items()},)
        return contents


def _reference_pending(boundary, ref):
    """The pending events as the engine once normalised them, in one walk of
    their own: those before the next boundary by `_pending_before` and one
    `_method` call each, and the later ones as they are. Sets `first_far`."""
    horizon = ref.start + ref.period
    far = tuple(sorted((fire_at, seq) for fire_at, seq, callback in boundary.sim._heap
                       if fire_at >= horizon and callback is not None))
    ref.first_far = far[0][0] if far else None
    return _normalised(boundary, ref.start, _pending_before(boundary.sim, horizon)), far


def _reference(boundary, ref):
    """The reference's snapshot on cycle `ref`, with the counters, the number
    of records and each tracked model's change count and contents, or the
    reason it is refused."""
    try:
        state = (_reference_pending(boundary, ref),
                 ref.snapshot(boundary._models, boundary._sources))
    except NotPeriodic as exc:
        return str(exc)
    return state, [getattr(m, name) for m, name in zip(*boundary._counted)], \
        [len(m.records) for m in boundary._models if isinstance(m, MetricsSink)], \
        [(m.changes, ref.tracked_of(m)) for m in boundary._models
         if TRACKED in type(m).FF_FIELDS.values()]


class Checked:
    """What `checked_snapshots` found: one bool per snapshot and per idle
    jump, and the change counts and contents of the tracked models at each
    of the reference's snapshots."""

    def __init__(self):
        self.snapshots = []
        self.jumps = []
        self.tracked = []

    def counts_sound(self):
        """Whether every two snapshots at which a model's change count is
        equal find the same contents."""
        first = {}      # (model's index, count) -> the contents first seen with it
        for tracked in self.tracked:
            for i, (count, contents) in enumerate(tracked):
                if first.setdefault((i, count), contents) != contents:
                    return False
        return True

    def all_pass(self):
        return bool(self.snapshots or self.jumps) and all(self.snapshots + self.jumps) \
            and self.counts_sound()

    def track(self, reference):
        """Keep the tracked models' counts and contents of a `_reference`,
        unless it was refused."""
        if not isinstance(reference, str):
            self.tracked.append(reference[3])


@pytest.fixture
def checked_snapshots(monkeypatch):
    """Check each snapshot a run takes against the reference's, taken on a
    cycle of its own at the same boundary: equal, or both refused for the
    same reason.

    Check each idle jump, from a to b, against the two snapshots it replaces,
    taken by the reference at a and at b. When they are equal, the jump
    must skip as the snapshots would have; when they differ, the snapshots
    would have backed off, and a jump must find at b, normalised to a, the
    state it left at a: counters and records included."""
    checked = Checked()
    snapshot, idle, jump = SteadyState._snapshot, SteadyState._idle, SteadyState._jump
    at_start = {}       # Idle -> (its reference cycle, the reference's snapshot at a)

    def checked_snapshot(self, cx):
        expected = _reference(self, ReferenceCycle(cx.start, cx.period, cx.prev))
        checked.track(expected)
        if not isinstance(expected, str):
            expected = expected[0]
        try:
            snapshot(self, cx)
        except NotPeriodic as exc:
            checked.snapshots.append(str(exc) == expected)
            raise
        checked.snapshots.append(cx.state == expected)

    def checked_idle(self, b, period):
        found = idle(self, b, period)
        if found is not None:
            ref = ReferenceCycle(b, period, None)
            at_start[found] = ref, _reference(self, ref)
            checked.track(at_start[found][1])
        return found

    def checked_jump(self, cand, b, t_end):
        period = b - cand.start
        ref_a, before = at_start.pop(cand)
        ref_b = ReferenceCycle(b, period, ref_a)
        after = _reference(self, ref_b)
        checked.track(after)
        again = _reference(self, ReferenceCycle(cand.start, period, None))
        skipped = self.cycles_skipped
        stop = jump(self, cand, b, t_end)
        cycles = (self.cycles_skipped - skipped) // (period // self.period)
        if not isinstance(before, str) and before[0] == after[0]:
            # what `_compare` would have done
            limit = t_end if ref_b.first_far is None else min(t_end, ref_b.first_far)
            want = (limit - b) // period
            checked.jumps.append(cycles == want
                                 and stop == (b + want * period if want else b + self.period))
        else:
            backed_off = stop == b + self._wait * self.period and cycles == 0
            checked.jumps.append(backed_off or again == before)
        return stop

    monkeypatch.setattr(SteadyState, "_snapshot", checked_snapshot)
    monkeypatch.setattr(SteadyState, "_idle", checked_idle)
    monkeypatch.setattr(SteadyState, "_jump", checked_jump)
    return checked


SNAPSHOT_CASES = [case[:3] for case in EQUIVALENCE_CASES] + [
    ("line8-default", workloads.line_scenario(8), None)]


@pytest.mark.parametrize("raw, until", [case[1:] for case in SNAPSHOT_CASES],
                         ids=[case[0] for case in SNAPSHOT_CASES])
def test_every_snapshot_equals_the_generic_freeze(raw, until, checked_snapshots):
    # and every two snapshots with a model's change count equal find its
    # tracked fields equal
    raw = dict(raw, **({"run_until": until} if until else {}))
    run_scenario(parse_config(raw))
    assert checked_snapshots.all_pass(), vars(checked_snapshots)


def test_a_plan_that_drops_a_normalised_field_fails_the_reference(
        checked_snapshots, monkeypatch):
    # the negative control: the comparison above sees a field left out
    names = [name for name, kind in FlowTable.FF_FIELDS.items() if kind == NORMALISED]
    model_plans = fastforward.model_plans

    def dropping(models):
        own, normalised = model_plans(models)
        return own, [(model, fastforward._getter(names[:-1]) if type(model) is FlowTable
                      else get) for model, get in normalised]

    monkeypatch.setattr(fastforward, "model_plans", dropping)
    run_scenario(load_config(resolve_scenario("case_study_sdn")))
    assert checked_snapshots.snapshots and not any(checked_snapshots.snapshots)


def test_a_flow_table_written_around_its_count_fails_the_reference(
        checked_snapshots, monkeypatch):
    # the negative control: an install that writes the entries directly,
    # and counts nothing, makes snapshots with equal counts and other rules
    def install(self, match, priority, actions):
        self._entries.append(FlowEntry(match, priority, list(actions), self._next_seq))
        self._next_seq += 1

    monkeypatch.setattr(FlowTable, "install", install)
    run_scenario(load_config(resolve_scenario("case_study_sdn")))
    assert checked_snapshots.tracked and not checked_snapshots.counts_sound()


@pytest.mark.parametrize("case", ["control-delay-1ms", "line8-control-40ms"])
def test_a_snapshot_without_the_events_the_key_leaves_out_fails_the_reference(
        case, checked_snapshots, monkeypatch):
    # the negative control: a snapshot must hold the events from b + H to
    # b + P too, which the key leaves out: control messages in flight here
    pending = SteadyState._pending

    def short(self, cx):
        events, far = pending(self, cx)
        return tuple(event for event in events if event[0] < self.period), far

    monkeypatch.setattr(SteadyState, "_pending", short)
    _, raw, until, _ = next(c for c in EQUIVALENCE_CASES if c[0] == case)
    run_scenario(parse_config(dict(raw, run_until=until)))
    assert checked_snapshots.snapshots and not all(checked_snapshots.snapshots)


def test_a_jump_that_takes_every_candidate_for_idle_fails_the_reference(
        checked_snapshots, monkeypatch):
    # the negative control: with traffic pending, the steady state comes
    # round, and a jump that backs off there is not what the snapshots did
    monkeypatch.setattr(SteadyState, "_first_live", lambda self: None)
    run_scenario(load_config(resolve_scenario("case_study_sdn")))
    assert checked_snapshots.jumps and not all(checked_snapshots.jumps)


GUARDED_CLASSES = (EgressPort, CreditState, Host, Talker, UdpSource, Switch, FlowTable,
                   SrTable, Controller, ControlChannel, MetricsSink)
# a record that the model holding it snapshots and counts: the port reads
# its credit states in place, and counts each change of their idle slopes
HELD_BY = {CreditState: EgressPort}


def test_every_model_field_is_classified_for_the_fast_forward():
    # a field added later must say how a snapshot treats it, or fail here
    cfg = load_config(resolve_scenario("case_study_sdn"))
    net = build_network(cfg)
    net.sim.run_until(cfg.run_until)
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
        assert set(kinds.values()) <= {STATIC, NORMALISED, SHIFTED, COUNTED, TRACKED}
        if SHIFTED in kinds.values():
            assert hasattr(cls, "ff_shift"), cls.__name__
            assert hasattr(cls, "ff_state") or cls in HELD_BY, cls.__name__
        if TRACKED in kinds.values():
            # the count a snapshot compares instead of the contents
            counter = HELD_BY.get(cls, cls)
            assert counter.FF_FIELDS.get("changes") == NORMALISED, cls.__name__
        for name, kind in kinds.items():
            value = getattr(model, name)
            if kind == COUNTED or name == "changes":
                assert isinstance(value, int), f"{cls.__name__}.{name}"
            if kind == NORMALISED:
                # a snapshot refuses a model, whose fields live in its
                # `__dict__`: a model is a static field and goes into
                # `Network.models()` on its own
                items = value.values() if isinstance(value, dict) else ()
                for item in (value, *items):
                    assert not hasattr(item, "FF_FIELDS"), f"{cls.__name__}.{name}"
    assert seen == set(GUARDED_CLASSES)


def test_a_host_holds_only_static_fields():
    # its traffic sources are models of their own, and they hold what moves
    assert set(Host.FF_FIELDS.values()) == {STATIC}
