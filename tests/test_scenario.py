import csv
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from tssdnsim.cli import BUILTIN_SCENARIOS, main, resolve_scenario
from tssdnsim.config import ConfigError, load_config, parse_config, parse_time_ns
from tssdnsim.metrics import FRAME_CSV_HEADER, MetricsSink
from tssdnsim.scenario import compare_report, emit_outputs, run_scenario
from tssdnsim.srp import CLASS_A

from conftest import records, stream_records, udp_records, workloads

US = 1_000
MS = 1_000_000


# -- time parsing ---------------------------------------------------------


def test_parse_time_units():
    assert parse_time_ns("0.3ms") == 300 * US
    assert parse_time_ns("25us") == 25 * US
    assert parse_time_ns("1s") == 1_000 * MS
    assert parse_time_ns(42) == 42
    assert parse_time_ns("100") == 100


def test_parse_time_rejects_fractional_ns():
    with pytest.raises(ConfigError):
        parse_time_ns("1.5ns")


def test_parse_time_rejects_garbage():
    for bad in ("fast", "10 minutes", "-3us", None):
        with pytest.raises(ConfigError):
            parse_time_ns(bad)


def _reference_time_ns(text):
    """What `parse_time_ns` must return for a string, by exact `Fraction`
    arithmetic; None where it must refuse."""
    m = re.match(r"^\s*(\d+(?:\.\d+)?)\s*(ns|us|ms|s)?\s*$", text)
    if m is None:
        return None
    amount = Fraction(m.group(1)) * {"ns": 1, "us": US, "ms": MS, "s": 1_000 * MS,
                                     None: 1}[m.group(2)]
    return int(amount) if amount.denominator == 1 else None


def _random_time(rng):
    """A time string: digits with leading zeros, maybe a fraction, maybe a
    unit, spaces around; now and then a character that makes it malformed."""
    parts = [rng.choice(["", " ", "  ", "\t"]),
             "0" * rng.randrange(3) + str(rng.randrange(10 ** rng.randrange(1, 10)))]
    if rng.random() < 0.6:
        parts.append("." + "".join(rng.choice("0123456789")
                                   for _ in range(rng.randrange(0, 12))))
    parts += [rng.choice(["", " "]), rng.choice(["", "ns", "us", "ms", "s"]),
              rng.choice(["", " ", "\n"])]
    if rng.random() < 0.1:
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(["-", "+", "e3", "..", "x"]))
    return "".join(parts)


def test_parse_time_agrees_with_exact_fractions():
    rng = random.Random(20261018)
    cases = ["3.5ms", "0.000001ms", "0.0000001ms", " 007.250 us ", "0ns", "00.0s",
             "1.", ".5ms"] + [_random_time(rng) for _ in range(3_000)]
    refused = 0
    for text in cases:
        want = _reference_time_ns(text)
        if want is None:
            refused += 1
            with pytest.raises(ConfigError):
                parse_time_ns(text)
        else:
            assert parse_time_ns(text) == want, text
    assert parse_time_ns("3.5ms") == 3_500_000
    assert parse_time_ns("0.000001ms") == 1
    assert _reference_time_ns("0.0000001ms") is None
    # more digits than int() converts: refused, not a ValueError traceback
    with pytest.raises(ConfigError):
        parse_time_ns("9" * 5_000 + "ms")
    assert 0 < refused < len(cases)     # both outcomes are swept


# -- config validation ----------------------------------------------------


def minimal_raw(**overrides):
    raw = {
        "sdn_enabled": False,
        "run_until": "10ms",
        "clients": ["c0", "c1"],
        "switches": ["s0"],
        "links": [{"a": "c0", "b": "s0"}, {"a": "s0", "b": "c1"}],
    }
    raw.update(overrides)
    return raw


def test_minimal_config_parses():
    cfg = parse_config(minimal_raw())
    assert cfg.run_until_ns == 10 * MS
    assert cfg.idle_setup_ns == 100 * MS  # default
    assert [l.rate_bps for l in cfg.links] == [100_000_000, 100_000_000]


def test_controller_without_sdn_rejected():
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(controller="ctl"))


def test_sdn_without_controller_rejected():
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(sdn_enabled=True))


def test_missing_run_until_rejected():
    raw = minimal_raw()
    del raw["run_until"]
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_link_to_unknown_node_rejected():
    raw = minimal_raw(links=[{"a": "c0", "b": "nowhere"}])
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_disconnected_topology_rejected():
    raw = minimal_raw(links=[{"a": "c0", "b": "s0"}])  # c1 is an island
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_two_components_are_refused_as_not_connected():
    # a ring and an island: as many links as a tree has, but no path to c1
    raw = minimal_raw(switches=["s0", "s1", "s2"],
                      links=[{"a": "c0", "b": "s0"}, {"a": "s0", "b": "s1"},
                             {"a": "s1", "b": "s2"}, {"a": "s2", "b": "s0"}])
    with pytest.raises(ConfigError, match="not connected"):
        parse_config(raw)


RING_LINKS = [{"a": "c0", "b": "s0"}, {"a": "s0", "b": "s1"}, {"a": "s1", "b": "s2"},
              {"a": "s2", "b": "s0"}, {"a": "s2", "b": "c1"}]
PARALLEL_LINKS = [{"a": "c0", "b": "s0"}, {"a": "s0", "b": "c1"}, {"a": "s0", "b": "c1"}]


@pytest.mark.parametrize("switches, links", [(["s0", "s1", "s2"], RING_LINKS),
                                             (["s0"], PARALLEL_LINKS)],
                         ids=["ring", "parallel-link"])
def test_topology_that_is_not_a_tree_rejected(tmp_path, capsys, switches, links):
    raw = minimal_raw(switches=switches, links=links)
    with pytest.raises(ConfigError, match="not a tree"):
        parse_config(raw)
    path = tmp_path / "loop.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "not a tree" in capsys.readouterr().err


# One malformed value per case, on top of the shipped SDN case study; each is
# a value the model cannot run, so the loader must refuse it and name the field.
BAD_TRAFFIC_VALUES = [
    ("cross_traffic", "send_interval", "0ns"),
    ("talker", "interval", "0ns"),
    ("talker", "vid", 5000),
    ("talker", "pcp", 9),
    # Class A is PCP 6: its reservation would shape a queue the stream is not in
    ("talker", "pcp", 5),
    ("cross_traffic", "vid", 9999),
    ("talker", "unique_id", 70000),
    ("talker", "dst_group", "zz:zz"),
    ("talker", "frame_bytes", 3000),
    ("cross_traffic", "frame_bytes", 3000),
    ("cross_traffic", "frame_bytes", 0),
    ("cross_traffic", "pcp", 6),        # a PCP without a VLAN id to carry it
]
BAD_TRAFFIC_IDS = [f"{section}.{key}={value}" for section, key, value in BAD_TRAFFIC_VALUES]


def _case_study_set(path, value):
    raw = yaml.safe_load(resolve_scenario("case_study_sdn").read_text())
    *parents, key = path
    node = raw
    for step in parents:
        node = node[step]
    node[key] = value
    return raw


def _case_study_with(section, key, value):
    return _case_study_set((section, key), value)


@pytest.mark.parametrize("section, key, value", BAD_TRAFFIC_VALUES, ids=BAD_TRAFFIC_IDS)
def test_traffic_values_the_model_cannot_run_are_refused(section, key, value):
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
        parse_config(_case_study_with(section, key, value))


# the first case, a zero send interval, is left out: a run that accepts it never ends
@pytest.mark.parametrize("section, key, value", BAD_TRAFFIC_VALUES[1:],
                         ids=BAD_TRAFFIC_IDS[1:])
def test_cli_refuses_traffic_values_the_model_cannot_run(tmp_path, capsys,
                                                         section, key, value):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(_case_study_with(section, key, value)))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


# Values that reached a bare int(...), which crashed with a traceback or
# truncated a fraction, and values that load into a run that records nothing
# useful: zero queue capacity drops every frame, a count below one sends
# nothing, and a listener whose unique_id matches no talker never receives
# the stream.
BAD_SCENARIO_VALUES = [
    (("cross_traffic", "count"), "abc", "cross_traffic.count"),
    (("queue_capacity",), "x", "queue_capacity"),
    (("defaults", "link_rate_bps"), "fast", "defaults.link_rate_bps"),
    (("links", 1, "rate_bps"), "fast", "links[1].rate_bps"),
    (("queue_capacity",), 2.5, "queue_capacity"),
    (("links", 0, "rate_bps"), float("inf"), "links[0].rate_bps"),
    (("queue_capacity",), 0, "queue_capacity"),
    (("cross_traffic", "count"), 0, "cross_traffic.count"),
    (("cross_traffic", "count"), -1, "cross_traffic.count"),
    (("listeners", 0, "unique_id"), 70000, "listeners[0].unique_id"),
    (("listeners", 0, "unique_id"), 2, "listeners[0].unique_id"),
]
BAD_SCENARIO_IDS = [f"{field}={value}" for _, value, field in BAD_SCENARIO_VALUES]


@pytest.mark.parametrize("path, value, field", BAD_SCENARIO_VALUES, ids=BAD_SCENARIO_IDS)
def test_scenario_values_that_crash_or_make_a_run_useless_are_refused(path, value, field):
    with pytest.raises(ConfigError, match=re.escape(field)):
        parse_config(_case_study_set(path, value))


@pytest.mark.parametrize("path, value, field", BAD_SCENARIO_VALUES, ids=BAD_SCENARIO_IDS)
def test_cli_refuses_values_that_crash_or_make_a_run_useless(tmp_path, capsys,
                                                             path, value, field):
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(yaml.safe_dump(_case_study_set(path, value)))
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err


def test_duplicate_node_names_rejected():
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(switches=["c0"]))


def test_unicast_stream_group_rejected():
    raw = minimal_raw(talker={"node": "c0", "dst_group": "02:00:00:00:00:09",
                              "vid": 2})
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_shipped_scenarios_load():
    sdn = load_config(resolve_scenario("case_study_sdn"))
    nosdn = load_config(resolve_scenario("case_study_nosdn"))
    fault = load_config(resolve_scenario("fault_injection"))
    assert sdn.sdn_enabled and not nosdn.sdn_enabled
    assert sdn.talker.interval_ns == 125 * US
    assert sdn.control.one_way_delay_ns == 25 * US
    assert nosdn.controller is None
    assert fault.shaper_enabled is False
    assert fault.cross_traffic.vlan.pcp == 6


def _value(record):
    """A config as nested tuples: each `__slots__` record as its type and
    fields, since such a record compares by identity."""
    slots = getattr(type(record), "__slots__", None)
    if slots is None or isinstance(record, tuple):
        return record
    return (type(record),) + tuple(_value(getattr(record, name)) for name in slots)


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_shipped_scenarios_load_alike_without_libyaml(name, monkeypatch):
    path = resolve_scenario(name)
    loaded = load_config(path)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert _value(load_config(path)) == _value(loaded)


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
@pytest.mark.parametrize("text", ["name: [unclosed\nrun_until: 10ms\n",
                                  "name: a: b\n"], ids=["unclosed", "nested-colon"])
def test_malformed_yaml_is_a_config_error_under_either_loader(
        tmp_path, monkeypatch, capsys, libyaml, text):
    if libyaml and not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML here has no libyaml")
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match="YAML parse error"):
        load_config(path)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "YAML parse error" in capsys.readouterr().err


def test_a_run_imports_no_module_it_does_not_use(tmp_path):
    # by count, not time: each of these takes milliseconds to import, and a
    # run needs none; those the interpreter loads before the package do not count
    unused = {"dataclasses", "inspect", "fractions", "decimal", "hashlib"}
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "from tssdnsim import cli\n"
            "rc = cli.main(['run', '--scenario', 'case_study_sdn', '--out', sys.argv[1]])\n"
            "print('loaded', rc, *sorted(set(sys.modules) - before))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    _, rc, *loaded = proc.stdout.splitlines()[-1].split()
    assert rc == "0" and "tssdnsim.scenario" in loaded
    assert unused.isdisjoint(loaded)


# -- metrics --------------------------------------------------------------


def sink_of(flow, latencies, start=0, spacing=100):
    """A sink holding one record of `flow` per latency, sent `spacing` ns apart."""
    sink = MetricsSink()
    for i, lat in enumerate(latencies):
        sink.record(flow, i, start + i * spacing, start + i * spacing + lat)
    return sink


def test_summarize_min_mean_max():
    stats = sink_of("udp", [100 * US, 200 * US, 300 * US]).summarize(0, 10 * MS)
    st = stats["udp"]
    assert (st.min_ns, st.mean_ns, st.max_ns) == (100 * US, 200 * US, 300 * US)
    assert st.count == 3


def test_summarize_single_record():
    st = sink_of("udp", [7]).summarize(0, 10 * MS)["udp"]
    assert st.min_ns == st.max_ns == 7 and st.mean_ns == 7.0


def test_summarize_empty_window_is_explicit_none():
    stats = sink_of("udp", [100, 200]).summarize(5 * MS, 10 * MS)
    assert stats["udp"] is None


def test_sink_rejects_nonpositive_latency():
    sink = MetricsSink()
    with pytest.raises(ValueError):
        sink.record("udp", 0, 100, 100)


def test_guarantee_with_no_stream_frames_fails_loudly():
    result = sink_of("udp", [1]).check_guarantee(CLASS_A, 3)
    assert not result.passed
    assert result.reason == "no stream frames observed"
    assert result.worst is None


def test_guarantee_names_the_worst_frame():
    result = sink_of("stream-1", [100 * US, 800 * US]).check_guarantee(CLASS_A, 3)
    assert not result.passed
    assert result.worst.seq == 1
    assert result.limit_ns == 750 * US


# -- runs and outputs -----------------------------------------------------


def test_run_ending_before_setup_produces_no_records():
    cfg = load_config(resolve_scenario("case_study_nosdn"))
    cfg.run_until_ns = 50 * MS  # before anything is scheduled to start
    result = run_scenario(cfg)
    assert records(result.sink) == []
    assert result.stream_start_ns is None
    assert result.check_guarantee().reason == "no stream frames observed"


def test_cross_traffic_disturbs_the_stream_immediately(nosdn_result):
    # with 1000-byte frames contending from the start, even the first stream
    # frame waits behind best-effort traffic somewhere on the path
    first = stream_records(nosdn_result.sink)[0]
    assert first.latency_ns > 100 * US


def test_emitted_frame_csv_layout(tmp_path, nosdn_result):
    paths = emit_outputs(nosdn_result, tmp_path)
    with open(paths["frames"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == FRAME_CSV_HEADER
    assert len(rows) == 1 + len(records(nosdn_result.sink))
    flow, seq, send_ns, recv_ns, latency_ns = rows[1]
    assert int(recv_ns) - int(send_ns) == int(latency_ns)
    assert (tmp_path / "report.txt").read_text().startswith("scenario:")


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = load_config(resolve_scenario("case_study_sdn"))
    first = run_scenario(cfg)
    second = run_scenario(load_config(resolve_scenario("case_study_sdn")))
    emit_outputs(first, tmp_path / "a")
    emit_outputs(second, tmp_path / "b")
    for name in ("frames.csv", "summary.csv", "counters.json", "control_trace.log"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_compare_report_states_the_shift(sdn_result, nosdn_result):
    report = compare_report(sdn_result, nosdn_result)
    assert "stream start delta (SDN - noSDN): 300000 ns" in report
    assert "steady mean delta" in report


def test_compare_report_pairs_seqs_so_identical_latencies_give_zero_delta(
        sdn_result, nosdn_result):
    # the 300 us setup shift moves which seqs a send-time window holds;
    # per-seq latencies are equal (acceptance 02), so the delta must be zero
    report = compare_report(sdn_result, nosdn_result)
    assert "  stream-1: steady mean delta +0.0 ns" in report
    assert "  udp: steady mean delta +0.0 ns" in report


# -- golden frame hashes --------------------------------------------------

SHIPPED_FRAME_HASHES = {
    "case_study_sdn": "f47a4c7537222220",
    "case_study_nosdn": "3db977c48b957ca1",
    "fault_injection": "08f4d0605f1105e8",
}


def test_shipped_scenarios_keep_their_frame_hashes(sdn_result, nosdn_result, fault_result):
    got = {"case_study_sdn": sdn_result.frame_csv_hash()[:16],
           "case_study_nosdn": nosdn_result.frame_csv_hash()[:16],
           "fault_injection": fault_result.frame_csv_hash()[:16]}
    assert got == SHIPPED_FRAME_HASHES


# State the frame hash does not see: switch and host counters, warnings and
# the control channel trace.
SHIPPED_STATE_DIGESTS = {
    "case_study_sdn": "1915bf4616c8ce97",
    "case_study_nosdn": "07b67f7ca29eba75",
    "fault_injection": "1e7bbf96e10270e6",
}


def _state_digest(result):
    state = {"counters": result.counters, "warnings": result.sink.warnings,
             "control": [[e.time_ns, e.direction, e.switch, e.kind, e.xid]
                         for e in result.control_trace]}
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()[:16]


def test_shipped_scenarios_keep_their_counters_warnings_and_control_trace(
        sdn_result, nosdn_result, fault_result):
    got = {"case_study_sdn": _state_digest(sdn_result),
           "case_study_nosdn": _state_digest(nosdn_result),
           "fault_injection": _state_digest(fault_result)}
    assert got == SHIPPED_STATE_DIGESTS


def _with_propagation(scenario, default=None, per_link=None):
    raw = yaml.safe_load(resolve_scenario(scenario).read_text())
    if default is not None:
        raw["defaults"]["propagation"] = default
    for index, delay in (per_link or {}).items():
        raw["links"][index]["propagation"] = delay
    return run_scenario(parse_config(raw))


@pytest.mark.parametrize("scenario, default, per_link, digest, frames, guarantee", [
    ("case_study_sdn", "500ns", None, "4e4601037e27dae4", 710, True),
    ("fault_injection", "500ns", None, "6e73732e86b52e7b", 1157, False),
    # mixed: only switch0--switch1 has propagation delay
    ("case_study_sdn", None, {1: "2us"}, "7f185e2cd2b247ae", None, None),
])
def test_links_with_propagation_delay_keep_their_frame_hashes(
        scenario, default, per_link, digest, frames, guarantee):
    result = _with_propagation(scenario, default, per_link)
    assert result.frame_csv_hash()[:16] == digest
    if frames is not None:
        assert len(records(result.sink)) == frames
        assert result.check_guarantee().passed is guarantee


def test_an_arp_reply_after_the_give_up_starts_no_cross_traffic():
    # over 1 ms links the reply to the first request comes back after the
    # last retry has given up: the warning must stay true
    result = _with_propagation("case_study_sdn", "1ms")
    assert ("client0: ARP for client1 unanswered after 3 retries; "
            "cross traffic never starts") in result.sink.warnings
    assert result.counters["client0"]["sent_udp"] == 0
    assert udp_records(result.sink) == [] and result.udp_first_send_ns is None


def _rejecting_reservation(path):
    raw = yaml.safe_load(resolve_scenario("case_study_sdn").read_text())
    raw["links"][1]["rate_bps"] = 13_000_000   # 75% of it is less than the stream needs
    del raw["cross_traffic"]
    path.write_text(yaml.safe_dump(raw))
    return path


def test_a_rejected_reservation_fails_the_guarantee(tmp_path, capsys):
    scenario = _rejecting_reservation(tmp_path / "rejected.yaml")
    result = run_scenario(load_config(scenario))
    assert any("reservation rejected on switch0:1" in w for w in result.sink.warnings)
    gr = result.check_guarantee()
    assert not gr.passed
    assert gr.reason == "reservation rejected on switch0:1"
    assert main(["check", "--scenario", str(scenario), "--guarantee"]) == 1
    assert "guarantee FAIL: reservation rejected on switch0:1" in capsys.readouterr().out


@pytest.mark.parametrize("change, reason", [
    ({"talker": None}, "no talker configured"),
    ({"listeners": []}, "no listener configured"),
    ({"listeners": [{"node": "client0", "unique_id": 1}]},
     "listener client0 is the talker's node"),
], ids=["no-talker", "no-listener", "listener-on-talker"])
def test_a_scenario_without_a_stream_to_check_gets_no_invented_bound(
        change, reason, tmp_path, capsys):
    # no stream has a class or a path, so there is no bound to print
    raw = yaml.safe_load(resolve_scenario("case_study_sdn").read_text())
    for key, value in change.items():
        if value is None:
            del raw[key]
        else:
            raw[key] = value
    scenario = tmp_path / "no-stream.yaml"
    scenario.write_text(yaml.safe_dump(raw))
    result = run_scenario(load_config(scenario))
    gr = result.check_guarantee()
    assert (gr.passed, gr.limit_ns, gr.worst, gr.reason) == (False, None, None, reason)
    emit_outputs(result, tmp_path / "out")
    report = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert f"guarantee check: FAIL -- {reason}" in report
    assert main(["check", "--scenario", str(scenario), "--guarantee"]) == 1
    assert capsys.readouterr().out == f"guarantee FAIL: {reason}\n"


@pytest.mark.parametrize("near_first", [False, True], ids=["near-second", "near-first"])
def test_the_bound_is_the_nearest_listeners_whatever_the_list_order(
        near_first, tmp_path):
    # client2 hangs off switch0: 2 scheduled ports against client1's 3. Every
    # frame is held to the tighter bound, so no listener can pass on another's.
    raw = yaml.safe_load(resolve_scenario("case_study_nosdn").read_text())
    raw["clients"].append("client2")
    raw["links"].append({"a": "switch0", "b": "client2"})
    near = {"node": "client2", "unique_id": 1}
    raw["listeners"].insert(0 if near_first else 1, near)
    result = run_scenario(parse_config(raw))
    assert result.scheduled_ports == 2
    emit_outputs(result, tmp_path / "out")
    report = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert ("guarantee check (500000 ns over 2 scheduled ports): PASS -- "
            "all deadlines met") in report


def test_trace_hook_only_observes(sdn_result):
    kinds = []
    traced = run_scenario(load_config(resolve_scenario("case_study_sdn")),
                          trace=lambda kind, *_: kinds.append(kind))
    assert traced.frame_csv_hash() == sdn_result.frame_csv_hash()
    assert {"dispatch", "tx"} <= set(kinds)


def test_a_zero_propagation_hop_costs_one_dispatch():
    # 2,145 of the 2,148 transmissions end within the run, one tx-done each;
    # the other 903 dispatches are host timers, credit wakeups and control
    kinds = Counter()
    run_scenario(load_config(resolve_scenario("case_study_sdn")),
                 trace=lambda kind, *_: kinds.update((kind,)))
    assert kinds == {"dispatch": 3_048, "tx": 2_148}


def test_the_line_of_8_switches_costs_one_dispatch_per_hop():
    # the same pin on the benchmark's line at its default 140 ms: a change to
    # the hop can neither add nor drop an event
    kinds = Counter()
    run_scenario(parse_config(workloads.line_scenario(8)),
                 trace=lambda kind, *_: kinds.update((kind,)))
    assert kinds == {"dispatch": 7_919, "tx": 6_261}


# -- command line ---------------------------------------------------------


def test_cli_run_writes_outputs(tmp_path, capsys):
    rc = main(["run", "--scenario", "case_study_nosdn", "--until", "120ms",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "frames.csv").exists()
    assert "frames recorded" in capsys.readouterr().out


def test_cli_check_guarantee_pass_and_fail(capsys):
    assert main(["check", "--scenario", "case_study_nosdn", "--until", "120ms",
                 "--guarantee"]) == 0
    assert "guarantee PASS" in capsys.readouterr().out
    assert main(["check", "--scenario", "fault_injection", "--until", "120ms",
                 "--guarantee"]) == 1
    assert "guarantee FAIL" in capsys.readouterr().out


def test_cli_unknown_scenario_is_a_config_error(capsys):
    assert main(["run", "--scenario", "no_such_scenario"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_compare_writes_both_runs(tmp_path):
    rc = main(["compare", "--sdn", "case_study_sdn", "--nosdn", "case_study_nosdn",
               "--until", "125ms", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "sdn" / "frames.csv").exists()
    assert (tmp_path / "nosdn" / "frames.csv").exists()
    assert "comparison" in (tmp_path / "comparison.txt").read_text()
