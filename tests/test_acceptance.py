"""End-to-end checks over the shipped scenarios.

Each test prints one [PASS]/[FAIL] line (through the capture) so the suite
output doubles as a checklist.
"""

import pytest

from tssdnsim.cli import resolve_scenario
from tssdnsim.config import load_config
from tssdnsim.scenario import run_scenario

from conftest import stream_records, udp_records
from test_shaping import (
    test_cbs_conservation_on_randomized_saturating_patterns as check_cbs_conservation,
    test_credit_nonpositive_after_queue_drains_on_random_patterns as check_credit_reset,
)
from test_switching import run_match_oracle_trials

US = 1_000
MS = 1_000_000
LATENCY_BOUND_NS = 750 * US


def report(capsys, ok, label):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}", flush=True)
    assert ok, label


@pytest.fixture(scope="module")
def zero_delay_sdn_result():
    cfg = load_config(resolve_scenario("case_study_sdn"))
    cfg.control.one_way_delay = 0
    cfg.control.processing_delay = 0
    return run_scenario(cfg)


def by_seq(result, flow_prefix, window):
    ws, we = window
    of_flow = stream_records if flow_prefix == "stream" else udp_records
    return {r.seq: r.latency_ns for r in of_flow(result.sink) if ws <= r.send_ns < we}


def test_01_stream_guarantee_holds_in_both_case_studies(capsys, sdn_result, nosdn_result):
    ok = True
    for result in (sdn_result, nosdn_result):
        gr = result.check_guarantee()
        worst = max(r.latency_ns for r in stream_records(result.sink))
        ok = ok and gr.passed and gr.limit_ns == LATENCY_BOUND_NS and worst <= LATENCY_BOUND_NS
    report(capsys, ok, "01 every stream frame within 750 us in both case studies")


def test_02_steady_state_is_identical_with_and_without_sdn(capsys, sdn_result, nosdn_result):
    ok = True
    for flow in ("stream", "udp"):
        a = by_seq(sdn_result, flow, sdn_result.steady_window())
        b = by_seq(nosdn_result, flow, nosdn_result.steady_window())
        common = sorted(set(a) & set(b))
        ok = ok and len(common) >= 100
        ok = ok and all(a[s] == b[s] for s in common)
    report(capsys, ok, "02 per-seq steady-state latencies exactly equal across runs")


def test_03_setup_delay_is_exactly_the_control_round_trips(capsys, sdn_result,
                                                           nosdn_result,
                                                           zero_delay_sdn_result):
    shift = sdn_result.stream_start_ns - nosdn_result.stream_start_ns
    zero_shift = zero_delay_sdn_result.stream_start_ns - nosdn_result.stream_start_ns
    ok = shift == 300 * US and zero_shift == 0
    report(capsys, ok, "03 stream start shifted by 300 us; zero with free control channel")


def test_04_first_udp_frames_pay_then_converge(capsys, sdn_result, nosdn_result):
    udp = udp_records(sdn_result.sink)
    steady = by_seq(sdn_result, "udp", sdn_result.steady_window())
    ok = bool(steady) and udp[0].latency_ns > max(steady.values())
    # convergence to the no-SDN latencies within 10 ms of traffic start
    nosdn_by_seq = {r.seq: r.latency_ns for r in udp_records(nosdn_result.sink)}
    deadline = sdn_result.traffic_start_ns + 10 * MS
    tail = [r for r in udp if r.send_ns >= deadline]
    ok = ok and tail and all(r.latency_ns == nosdn_by_seq.get(r.seq) for r in tail)
    report(capsys, ok, "04 first UDP frame pays a penalty; converged within 10 ms")


def test_05_latency_rises_step_by_step_as_rules_install(capsys, sdn_result):
    reactive = sorted(f.time_ns for f in sdn_result.flow_installs if f.priority == 10)
    start = sdn_result.stream_start_ns
    steady_start = sdn_result.steady_window()[0]
    edges = [start] + [t for t in reactive if start < t < steady_start] + [steady_start]
    means = []
    for lo, hi in zip(edges, edges[1:]):
        window = [r.latency_ns for r in stream_records(sdn_result.sink) if lo <= r.send_ns < hi]
        if window:
            means.append(sum(window) / len(window))
    ok = len(means) >= 2
    ok = ok and all(a <= b for a, b in zip(means, means[1:]))
    ok = ok and len(set(means)) >= 2
    report(capsys, ok, "05 stream latency climbs in distinct plateaus per rule install")


def test_06_no_stream_frame_ever_misses_a_flow_table(capsys, sdn_result):
    misses = [sdn_result.counters[s]["stream_miss"] for s in sdn_result.config.switches]
    report(capsys, all(m == 0 for m in misses),
           "06 zero stream table-misses across all switches")


def test_07_flow_matching_agrees_with_brute_force(capsys):
    cases = run_match_oracle_trials(10_000, seed=4242)
    report(capsys, cases >= 10_000,
           "07 flow-table lookup matches a linear-scan oracle on 10k random cases")


def test_08_credit_based_shaper_properties(capsys):
    check_cbs_conservation()
    check_credit_reset()
    report(capsys, True,
           "08 shaped throughput bounded and credit resets on 100 random patterns each")


def test_09_every_scenario_is_deterministic(capsys, sdn_result, nosdn_result, fault_result):
    ok = True
    for name, baseline in (("case_study_sdn", sdn_result),
                           ("case_study_nosdn", nosdn_result),
                           ("fault_injection", fault_result)):
        rerun = run_scenario(load_config(resolve_scenario(name)))
        ok = ok and rerun.frame_csv_hash() == baseline.frame_csv_hash()
    report(capsys, ok, "09 repeated runs produce hash-identical per-frame CSVs")


def test_10_fault_injection_trips_the_guarantee_check(capsys, fault_result):
    gr = fault_result.check_guarantee()
    ok = (not gr.passed and gr.worst is not None
          and gr.worst.latency_ns > LATENCY_BOUND_NS)
    report(capsys, ok, "10 shaperless saturated network fails the guarantee check")
