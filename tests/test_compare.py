"""`compare`: two runs' records paired by (flow, seq), each block read as the
progressions of its copies and never expanded."""

import random
import re
from collections import Counter

import pytest

from tssdnsim.config import parse_config
from tssdnsim.metrics import FlowSeqs, MetricsSink, pair_by_seq, shared_seqs
from tssdnsim.scenario import compare_report, emit_outputs, run_scenario

from conftest import records, workloads
from test_fastforward import EQUIVALENCE_CASES, _shipped


def _steady_latencies(result):
    """flow -> {seq: latency_ns} over the frames sent in the run's steady
    window, every block expanded."""
    ws, we = result.steady_window()
    out = {}
    for r in records(result.sink):
        if ws <= r.send_ns < we:
            out.setdefault(r.flow, {})[r.seq] = r.latency_ns
    return out


def expanded_compare_report(sdn, nosdn):
    """The comparison built from one dict entry per frame: the oracle."""
    sdn_lat, nosdn_lat = _steady_latencies(sdn), _steady_latencies(nosdn)
    (sws, swe), (nws, nwe) = sdn.steady_window(), nosdn.steady_window()
    lines = ["SDN vs no-SDN comparison",
             f"steady-state windows (send_ns): SDN [{sws}, {swe}), noSDN [{nws}, {nwe})"]
    if sdn.stream_start_ns is not None and nosdn.stream_start_ns is not None:
        delta = sdn.stream_start_ns - nosdn.stream_start_ns
        lines.append(f"stream start delta (SDN - noSDN): {delta} ns")
    for flow in sorted(set(sdn_lat) | set(nosdn_lat)):
        a, b = sdn_lat.get(flow, {}), nosdn_lat.get(flow, {})
        common = a.keys() & b.keys()
        if not common:
            lines.append(f"  {flow}: no seq in both steady windows")
            continue
        mean_a = sum(a[s] for s in common) / len(common)
        mean_b = sum(b[s] for s in common) / len(common)
        lines.append(f"  {flow}: steady mean delta {mean_a - mean_b:+.1f} ns over "
                     f"{len(common)} seqs (SDN {mean_a:.1f} vs noSDN {mean_b:.1f})")
    return "\n".join(lines) + "\n"


def _run(raw, until):
    return run_scenario(parse_config(dict(raw, run_until=until)))


@pytest.mark.parametrize("sdn, nosdn, until", [
    (_shipped("case_study_sdn"), _shipped("case_study_nosdn"), "2s"),
    # the overload repeats every 72 cycles, so its blocks step 72 periods' seqs
    (_shipped("fault_injection"), _shipped("case_study_sdn"), "3s"),
    # unequal hyperperiods; the 77 us sender never repeats within the run
    (_shipped("case_study_sdn", **{"talker.interval": "130us"}),
     _shipped("case_study_sdn", **{"cross_traffic.send_interval": "77us"}), "400ms"),
], ids=["shipped-2s", "fault-vs-sdn-3s", "talker-130us-vs-send-77us-400ms"])
def test_compare_equals_the_pairing_of_expanded_records(sdn, nosdn, until):
    a, b = _run(sdn, until), _run(nosdn, until)
    assert a.skipped.cycles > 0
    assert compare_report(a, b) == expanded_compare_report(a, b)


@pytest.mark.parametrize("raw, until", [case[1:3] for case in EQUIVALENCE_CASES],
                         ids=[case[0] for case in EQUIVALENCE_CASES])
def test_no_flow_records_a_seq_twice(raw, until):
    # `pair_by_seq` counts the seqs two runs share; a seq recorded twice
    # would name no one frame. Each listener of a stream records its own flow.
    result = run_scenario(parse_config(dict(raw, **({"run_until": until} if until else {}))))
    seen = Counter((flow, seq) for flow, seq, _, _ in result.sink.rows())
    assert seen and max(seen.values()) == 1


def _two_listeners(name):
    """The shipped `name` at 300 ms with a second listener, client2 on switch1."""
    raw = _shipped(name, run_until="300ms")
    raw["clients"].append("client2")
    raw["links"].append({"a": "switch1", "b": "client2"})
    raw["listeners"].append({"node": "client2"})
    return run_scenario(parse_config(raw))


def _stream_rows(result, tmp_path):
    """The stream rows of the run's `report.txt`."""
    emit_outputs(result, tmp_path)
    return [line.strip() for line in (tmp_path / "report.txt").read_text().splitlines()
            if line.startswith("  stream-")]


def test_each_listener_of_a_stream_records_a_flow_of_its_own(tmp_path):
    # client1 shares switch1's egress with the UDP flow; client2 does not
    result = _two_listeners("case_study_nosdn")
    assert result.skipped.line().startswith("fast-forward: 594 cycles of 500000 ns skipped")
    assert result.stream_flows == ("stream-1@client1", "stream-1@client2")
    assert _stream_rows(result, tmp_path) == [
        "stream-1@client1: n=1517 min=178840 mean=211113.6 max=246840 (ns)",
        "stream-1@client2: n=1518 min=178840 mean=178840.0 max=178840 (ns)",
    ]
    report = compare_report(result, result)
    assert report == expanded_compare_report(result, result)
    assert "  stream-1@client1: steady mean delta +0.0 ns over 1517 seqs" in report
    assert "  stream-1@client2: steady mean delta +0.0 ns over 1518 seqs" in report


def test_each_listener_has_its_own_rows_under_sdn_control(tmp_path):
    result = _two_listeners("case_study_sdn")
    assert result.skipped.cycles > 0
    rows = _stream_rows(result, tmp_path)
    assert [row.split(":")[0] for row in rows] == ["stream-1@client1", "stream-1@client2"]
    report = compare_report(result, result)
    assert report == expanded_compare_report(result, result)
    assert all(f"  {flow}: steady mean delta +0.0 ns over " in report
               for flow in result.stream_flows)


def _brute_shared(a, b):
    return len(set(range(a[0], a[1] + 1, a[2])) & set(range(b[0], b[1] + 1, b[2])))


def _random_run(rng, lo=0, hi=400):
    first = rng.randrange(lo, hi)
    step = rng.choice([1, 2, 3, 4, 6, 7, 12, 72, 288, rng.randrange(1, 60)])
    n = rng.choice([1, 1, 2, rng.randrange(1, 40)])
    return first, first + (n - 1) * step, step


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shared_seqs_matches_brute_force(seed):
    rng = random.Random(seed)
    for _ in range(3_000):
        a = _random_run(rng)
        # sometimes a range wholly beyond the other's
        b = _random_run(rng, *((a[1] + 1, a[1] + 50) if rng.random() < 0.1 else (0, 400)))
        assert shared_seqs(a, b) == _brute_shared(a, b), (a, b)


def _flow_seqs(rng, runs):
    """A `FlowSeqs` of `runs` random runs that share no seq, and the seq ->
    latency dict it stands for."""
    seqs, expanded = FlowSeqs(), {}
    while runs:
        first, last, step = _random_run(rng)
        held = set(range(first, last + 1, step))
        if held & expanded.keys():
            continue
        latency = rng.randrange(1, 1_000)
        seqs.add(first, step, len(held), latency)
        expanded.update(dict.fromkeys(held, latency))
        runs -= 1
    return seqs, expanded


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_pair_by_seq_matches_a_dict_of_every_seq(seed):
    rng = random.Random(seed)
    for _ in range(300):
        ours, a = _flow_seqs(rng, rng.randrange(0, 12))
        theirs, b = _flow_seqs(rng, rng.randrange(0, 12))
        common = a.keys() & b.keys()
        want = (len(common), sum(a[s] for s in common), sum(b[s] for s in common))
        assert pair_by_seq(ours, theirs) == want
        assert pair_by_seq(theirs, ours) == (want[0], want[2], want[1])


def test_a_longer_compare_reads_no_more_records(monkeypatch):
    # a block is read as one progression per template record, whatever the
    # number of its copies
    def pair(until):
        return [_run(_shipped(name), until) for name in ("case_study_sdn", "case_study_nosdn")]

    short, long = pair("2s"), pair("60s")
    walked = []
    progressions = MetricsSink.progressions

    def counted(self, *window):
        for progression in progressions(self, *window):
            walked[-1] += 1
            yield progression

    monkeypatch.setattr(MetricsSink, "progressions", counted)
    monkeypatch.setattr(MetricsSink, "rows", lambda self: pytest.fail("a block was expanded"))
    seqs = []
    for runs in (short, long):
        walked.append(0)
        report = compare_report(*runs)
        seqs.append([int(n) for n in re.findall(r"over (\d+) seqs", report)])
    assert 0 < walked[1] <= walked[0]
    assert all(b > 29 * a for a, b in zip(*seqs)) and len(seqs[1]) == 2


def _line_twins(n_switches, **changes):
    """The generated line of `n_switches` with the top-level `changes`, run
    under SDN control and as its no-SDN twin."""
    sdn = dict(workloads.line_scenario(n_switches), **changes)
    nosdn = {key: value for key, value in sdn.items() if key != "control"}
    nosdn["sdn_enabled"] = False
    return run_scenario(parse_config(sdn)), run_scenario(parse_config(nosdn))


def test_a_flow_recorded_in_only_one_run_is_named_and_not_paired():
    # 1 ms each way: the SDN host gives up on ARP, so no UDP frame is sent and
    # the stream meets no cross traffic there. Its delta compares runs that
    # carried different traffic, not the cost of SDN control.
    sdn, nosdn = _line_twins(1, control={"one_way_delay": "1ms", "processing_delay": "25us"})
    assert any("ARP for client1 unanswered" in w for w in sdn.sink.warnings)
    report = compare_report(sdn, nosdn).splitlines()
    assert report[3:] == [
        "  stream-1: steady mean delta -95725.8 ns over 207 seqs "
        "(SDN 27200.0 vs noSDN 122925.8); the runs carried different traffic",
        "  udp: recorded only in the noSDN run",
    ]
    swapped = compare_report(nosdn, sdn).splitlines()
    assert swapped[-1] == "  udp: recorded only in the SDN run"


def test_twins_that_carry_the_same_flows_are_compared_as_before():
    sdn, nosdn = _line_twins(1)
    report = compare_report(sdn, nosdn)
    assert report == expanded_compare_report(sdn, nosdn)
    assert "different traffic" not in report and "recorded only" not in report


ZERO_CONTROL_DELAY = {"control": {"one_way_delay": "0ns", "processing_delay": "0ns"}}


# The reservation is the stream's exact wire rate (README, "The case study"),
# so the Class A credit has no drift over a stream period, an offset the set-up
# leaves is never paid back, and each set-up settles into its own periodic
# orbit. SDN control costs no frame a hop, but on line 8 its set-up detour
# leaves another orbit than its twin's, and every frame's latency differs.
# With no control delay, or with no shaper, the twins share one orbit.
# (n_switches, changes, {flow: (seqs in both steady windows, seqs whose latency differs)})
ORBIT_CASES = [
    (1, {}, {"stream-1": (7_117, 0), "udp": (8_897, 0)}),
    (3, {}, {"stream-1": (7_113, 1_778), "udp": (8_892, 1_779)}),
    (8, {}, {"stream-1": (7_103, 7_103), "udp": (8_880, 8_880)}),
    (8, ZERO_CONTROL_DELAY, {"stream-1": (7_113, 0), "udp": (8_892, 0)}),
    (8, {"shaper_enabled": False}, {"stream-1": (7_104, 0), "udp": (8_880, 0)}),
]


@pytest.mark.parametrize("n_switches, changes, want", ORBIT_CASES,
                         ids=["line1", "line3", "line8", "line8-no-control-delay",
                              "line8-no-shaper"])
def test_the_set_up_picks_the_steady_orbit_of_sdn_twins(n_switches, changes, want):
    sdn, nosdn = map(_steady_latencies, _line_twins(n_switches, run_until="1s", **changes))
    got = {}
    for flow in sdn.keys() | nosdn.keys():
        a, b = sdn.get(flow, {}), nosdn.get(flow, {})
        common = a.keys() & b.keys()
        got[flow] = (len(common), sum(a[seq] != b[seq] for seq in common))
    assert got == want
