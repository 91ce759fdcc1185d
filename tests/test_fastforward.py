"""Steady-state fast-forward: a run that skips cycles equals one that runs them all.

A `Simulator.trace` hook turns the fast-forward off, so the same scenario run
with a no-op hook is the reference every untraced run is compared against.
"""

import math

import pytest
import yaml

from tssdnsim.cli import main, resolve_scenario
from tssdnsim.config import load_config, parse_config
from tssdnsim.control import ControlChannel, Controller
from tssdnsim.engine import Simulator
from tssdnsim.fastforward import (COUNTED, NORMALISED, SHIFTED, STATIC, SteadyState,
                                  fields)
from tssdnsim.hosts import Host
from tssdnsim.metrics import MetricsSink
from tssdnsim.scenario import build_network, run_scenario
from tssdnsim.shaping import CreditState, EgressPort
from tssdnsim.switching import FlowTable, SrTable, Switch

from conftest import workloads

MS = 1_000_000


def _shipped(name, **changes):
    """A shipped scenario as YAML data; a change whose value is None drops the key."""
    raw = yaml.safe_load(resolve_scenario(name).read_text())
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
    return {"frames": result.frame_csv_hash(), "records": result.records,
            "counters": result.counters, "warnings": result.sink.warnings,
            "control": result.control_trace, "installs": result.flow_installs,
            "stream_start": result.stream_start_ns, "lr_arrival": result.lr_arrival_ns,
            "first_udp": result.udp_first_send_ns}


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
    ("propagation-500ns", _shipped("case_study_sdn", **{"defaults.propagation": "500ns"}),
     "400ms", None),
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


@pytest.mark.parametrize("raw, until, most_run_ms",
                         [case[1:] for case in EQUIVALENCE_CASES],
                         ids=[case[0] for case in EQUIVALENCE_CASES])
def test_skipping_cycles_changes_no_output(raw, until, most_run_ms):
    raw = dict(raw, **({"run_until": until} if until else {}))
    fast = run_scenario(parse_config(raw))
    full = run_scenario(parse_config(raw), trace=lambda *_: None)
    assert full.skipped.cycles == 0
    assert _outputs(fast) == _outputs(full)
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
    assert net.sink.records == whole.records


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
    assert skipped.cycles >= 2_900
    assert skipped.snapshots <= 8
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


def test_a_scenario_without_a_source_reports_why_nothing_was_skipped():
    raw = _shipped("case_study_nosdn", talker=None, cross_traffic=None, listeners=None)
    assert run_scenario(parse_config(raw)).skipped.line() == \
        "fast-forward: 0 cycles skipped (no periodic traffic source)"


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
        assert set(vars(model)) == set(kinds), cls.__name__
        assert set(kinds.values()) <= {STATIC, NORMALISED, SHIFTED, COUNTED}
        if SHIFTED in kinds.values():
            assert hasattr(cls, "ff_state") and hasattr(cls, "ff_shift"), cls.__name__
        for name, kind in kinds.items():
            value = getattr(model, name)
            if kind == COUNTED:
                assert isinstance(value, int), f"{cls.__name__}.{name}"
            if kind == NORMALISED:
                # `Cycle.freeze` returns a model unchanged, so it would compare
                # by identity and always match: a model is a static field and
                # goes into `Network.models()` on its own
                items = value.values() if isinstance(value, dict) else ()
                for item in (value, *items):
                    assert not hasattr(item, "FF_FIELDS"), f"{cls.__name__}.{name}"
    assert seen == set(GUARDED_CLASSES)
