from tssdnsim.config import parse_config
from tssdnsim.engine import Simulator
from tssdnsim.frames import (ArpKind, ArpMessage, MacAddress, SrpKind,
                             SrpMessage, StreamId, VlanTag, make_frame)
from tssdnsim.hosts import CrossTrafficConfig, Host, TalkerConfig
from tssdnsim.metrics import MetricsSink
from tssdnsim.scenario import run_scenario

from conftest import Recorder, mac, records, stream_records, udp_records, wire, workloads

US = 1_000
MS = 1_000_000
GROUP = mac("91:E0:F0:00:00:01")


def talker_config(advertise_at=1 * MS):
    return TalkerConfig(node="hostA", unique_id=1, dst_group=GROUP,
                        vlan=VlanTag(2, 6), sr_class="A", frame_bytes=150,
                        interval_ns=125 * US, advertise_at_ns=advertise_at)


def host_pair(sim, sink):
    a = Host(sim, "hostA", mac("02:00:00:00:00:01"), "hostA", sink)
    b = Host(sim, "hostB", mac("02:00:00:00:00:02"), "hostB", sink)
    wire(sim, a, b)
    return a, b


def test_talker_without_listener_warns_and_stays_silent():
    sim = Simulator()
    sink = MetricsSink()
    talker = Host(sim, "hostA", mac("02:00:00:00:00:01"), "hostA", sink)
    wire(sim, talker, Recorder(sim))  # peer never answers the advertise
    talker.run_talker(talker_config())
    sim.run_until(3_000 * MS)
    assert talker.stream_seq == 0
    assert any("no listener ready" in w for w in sink.warnings)


def test_listener_ready_cancels_the_timeout():
    # a pending timeout would lie beyond every fast-forward skip until it fired
    sim = Simulator()
    sink = MetricsSink()
    talker, listener = host_pair(sim, sink)
    listener.run_listener(1)
    talker.run_talker(talker_config())
    sim.run_until(2 * MS)
    assert talker.lr_arrival_ns is not None
    assert all(ev.callback != talker._lr_timed_out
               for ev in sim.pending_before(3_000 * MS))
    sim.run_until(1_500 * MS)
    assert sink.warnings == []


def test_a_listener_ready_after_the_timeout_starts_the_stream_and_says_when():
    # 40 ms each way to the controller: the ready reaches the talker 1.28 s
    # after its advertise, and the stream starts then
    raw = dict(workloads.line_scenario(8), run_until="1500ms")
    raw["control"]["one_way_delay"] = "40ms"
    result = run_scenario(parse_config(raw))
    assert result.lr_arrival_ns == 1_380_520_960
    assert result.counters["client0"]["sent_stream"] == 955
    stream = "stream 02:00:00:00:00:01#1"
    assert [w for w in result.sink.warnings if "listener ready" in w] == [
        f"client0: no listener ready for {stream} within 1000000000 ns of its advertise",
        f"client0: listener ready for {stream} arrived at 1380520960 ns, after the "
        "timeout; the stream starts",
    ]


def test_duplicate_advertise_yields_one_listener_ready():
    sim = Simulator()
    listener = Host(sim, "hostB", mac("02:00:00:00:00:02"), "hostB", MetricsSink())
    rec = Recorder(sim)
    wire(sim, listener, rec)
    listener.run_listener(1)
    advertise = make_frame(
        mac("02:00:00:00:00:01"), GROUP,
        SrpMessage(SrpKind.TALKER_ADVERTISE, StreamId(mac("02:00:00:00:00:01"), 1),
                   GROUP, VlanTag(2, 6), 150, 125 * US, "A"), 64)
    listener.handle_frame(0, advertise)
    listener.handle_frame(0, advertise)
    sim.run_until(1 * MS)
    readies = [f for _, _, f in rec.received
               if isinstance(f.payload, SrpMessage)
               and f.payload.kind is SrpKind.LISTENER_READY]
    assert len(readies) == 1


def test_stream_clock_anchors_one_interval_after_listener_ready():
    sim = Simulator()
    sink = MetricsSink()
    talker, listener = host_pair(sim, sink)
    talker.run_talker(talker_config())
    listener.run_listener(1)
    sim.run_until(10 * MS)
    assert talker.lr_arrival_ns is not None
    first = min(r.send_ns for r in stream_records(sink))
    assert first == talker.lr_arrival_ns + 125 * US
    # each stream frame crosses the empty direct link in one serialization time
    assert all(r.latency_ns == (150 + 20) * 8 * 10 for r in records(sink))


def test_arp_gives_up_after_retries():
    sim = Simulator()
    sink = MetricsSink()
    host = Host(sim, "hostA", mac("02:00:00:00:00:01"), "hostA", sink)
    rec = Recorder(sim)
    wire(sim, host, rec)
    host.run_udp_source(CrossTrafficConfig(node="hostA", dst_node="ghost",
                                           frame_bytes=1000, send_interval_ns=100 * US,
                                           start_at_ns=0))
    sim.run_until(100 * MS)
    requests = [f for _, _, f in rec.received if isinstance(f.payload, ArpMessage)]
    assert len(requests) == 4  # the original plus three retries
    assert host.udp_seq == 0
    assert any("unanswered" in w for w in sink.warnings)


def test_first_udp_frame_goes_out_at_arp_reply_time():
    sim = Simulator()
    sink = MetricsSink()
    a, b = host_pair(sim, sink)
    a.run_udp_source(CrossTrafficConfig(node="hostA", dst_node="hostB",
                                        frame_bytes=1000, send_interval_ns=100 * US,
                                        start_at_ns=1 * MS, count=5))
    sim.run_until(10 * MS)
    # request and reply are 64-byte frames: one serialization each way
    reply_at = 1 * MS + 2 * 6_720
    udp = udp_records(sink)
    assert udp[0].send_ns == reply_at
    assert [r.seq for r in udp] == [0, 1, 2, 3, 4]
    assert a.udp_seq == 5


def test_arp_request_for_another_address_is_ignored():
    sim = Simulator()
    host = Host(sim, "hostB", mac("02:00:00:00:00:02"), "hostB", MetricsSink())
    rec = Recorder(sim)
    wire(sim, host, rec)
    request = make_frame(mac("02:00:00:00:00:01"), mac("FF:FF:FF:FF:FF:FF"),
                         ArpMessage(ArpKind.REQUEST, "hostC"), 64)
    host.handle_frame(0, request)
    sim.run_until(1 * MS)
    assert rec.received == []


# -- end-to-end bookkeeping on the shipped scenarios ----------------------


def test_stream_frames_start_after_ready_arrives(nosdn_result):
    sends = [r.send_ns for r in stream_records(nosdn_result.sink)]
    assert min(sends) == nosdn_result.lr_arrival_ns + 125 * US


def test_stream_sequence_is_gapless(nosdn_result):
    seqs = [r.seq for r in stream_records(nosdn_result.sink)]
    assert seqs == list(range(len(seqs)))


def test_every_sent_frame_is_received_or_accounted(nosdn_result):
    c = nosdn_result.counters
    sent_udp = sum(h.get("sent_udp", 0) for h in c.values())
    sent_stream = sum(h.get("sent_stream", 0) for h in c.values())
    dropped = sum(h.get("dropped_overflow", 0) for h in c.values())
    udp_got = len(udp_records(nosdn_result.sink))
    stream_got = len(stream_records(nosdn_result.sink))
    # frames still in flight or queued at cutoff explain any remainder
    assert stream_got <= sent_stream
    assert udp_got <= sent_udp
    assert sent_stream - stream_got <= 2 + dropped
    assert sent_udp - udp_got <= 2 + dropped
