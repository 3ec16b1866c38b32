import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcap_craft as craft
from trafficmoe.flows import (
    BACKWARD,
    FORWARD,
    CaptureError,
    FiveTuple,
    PacketRecord,
    SessionFlow,
    filter_micro_flows,
    parse_capture,
    read_flows,
    reassemble_sessions,
    write_flows,
)


def make_packet(
    ts=0.0,
    src=b"\x0a\x00\x00\x01",
    dst=b"\x0a\x00\x00\x02",
    sport=1111,
    dport=2222,
    proto=17,
    flags=0,
    payload=b"",
):
    return PacketRecord(
        timestamp=ts,
        src_ip=src,
        dst_ip=dst,
        src_port=sport,
        dst_port=dport,
        ip_proto=proto,
        tcp_flags=flags if proto == 6 else 0,
        total_length=60 + len(payload),
        payload=payload,
    )


# -- parse_capture -------------------------------------------------------------


def test_parse_single_syn_frame():
    blob = craft.pcap([(1.5, craft.syn_frame_60())])
    records = parse_capture(blob)
    assert len(records) == 1
    rec = records[0]
    assert rec.tcp_flags == 0x02
    assert rec.payload == b""  # ethernet padding is not payload
    assert rec.total_length == 60
    assert rec.src_port == 1234 and rec.dst_port == 80
    assert rec.ip_proto == 6
    assert rec.timestamp == pytest.approx(1.5, abs=1e-6)


def test_parse_header_only_capture():
    assert parse_capture(craft.pcap([])) == []


def test_parse_skips_non_ip_frames():
    frames = [
        (0.0, craft.syn_frame_60()),
        (0.1, craft.arp_frame()),
        (0.2, craft.syn_frame_60(sport=50, dport=51)),
        (0.3, craft.syn_frame_60(sport=60, dport=61)),
    ]
    records = parse_capture(craft.pcap(frames))
    assert len(records) == 3


def test_parse_bad_magic_names_offset():
    with pytest.raises(CaptureError, match="offset 0"):
        parse_capture(b"\x00" * 24)


def test_parse_short_header_is_hard_error():
    with pytest.raises(CaptureError, match="offset 0"):
        parse_capture(b"\xd4\xc3\xb2\xa1")


def test_parse_unsupported_linktype_named():
    blob = craft.pcap([], linktype=147)
    with pytest.raises(CaptureError, match="147"):
        parse_capture(blob)


def test_parse_truncated_trailing_record_warns_and_drops():
    good = craft.syn_frame_60()
    blob = craft.pcap([(0.0, good), (1.0, good)])
    truncated = blob[:-10]
    with pytest.warns(UserWarning, match="truncated"):
        records = parse_capture(truncated)
    assert len(records) == 1


@pytest.mark.parametrize(
    "magic,little,nanos",
    [
        (0xA1B2C3D4, True, False),
        (0xA1B2C3D4, False, False),
        (0xA1B23C4D, True, True),
        (0xA1B23C4D, False, True),
    ],
)
def test_parse_endianness_and_resolution_variants(magic, little, nanos):
    blob = craft.pcap([(2.000001, craft.syn_frame_60())], magic=magic, little_endian=little, nanos=nanos)
    records = parse_capture(blob)
    assert len(records) == 1
    assert records[0].timestamp == pytest.approx(2.000001, abs=1e-9)


def test_parse_ipv6_and_udp():
    src6, dst6 = b"\x20\x01" + b"\x00" * 14, b"\x20\x02" + b"\x00" * 14
    frame = craft.ethernet(craft.ipv6(src6, dst6, 17, craft.udp(53, 5353, b"abc")), craft.ETH_IPV6)
    records = parse_capture(craft.pcap([(0.0, frame)]))
    assert len(records) == 1
    rec = records[0]
    assert rec.src_ip == src6 and rec.dst_ip == dst6
    assert rec.ip_proto == 17 and rec.tcp_flags == 0
    assert rec.payload == b"abc"


def test_parse_portless_protocol_uses_port_zero():
    icmp_body = b"\x08\x00\x00\x00rest"
    frame = craft.ethernet(craft.ipv4(b"\x01\x01\x01\x01", b"\x02\x02\x02\x02", 1, icmp_body))
    records = parse_capture(craft.pcap([(0.0, frame)]))
    assert records[0].src_port == 0 and records[0].dst_port == 0
    assert records[0].payload == icmp_body


def test_parse_tcp_payload_respects_data_offset():
    seg = craft.tcp(10, 20, 0x18, b"hello", data_offset=8)
    frame = craft.ethernet(craft.ipv4(b"\x01\x01\x01\x01", b"\x02\x02\x02\x02", 6, seg))
    records = parse_capture(craft.pcap([(0.0, frame)]))
    assert records[0].payload == b"hello"


def test_parse_determinism_bit_for_bit():
    frames = [(i * 0.25, craft.syn_frame_60(sport=i + 1, dport=80)) for i in range(7)]
    blob = craft.pcap(frames)
    assert parse_capture(blob) == parse_capture(blob)


# -- five-tuple canonicalization ---------------------------------------------------


def test_five_tuple_swap_invariance():
    pkt = make_packet()
    swapped = make_packet(src=pkt.dst_ip, dst=pkt.src_ip, sport=pkt.dst_port, dport=pkt.src_port)
    assert FiveTuple.from_packet(pkt) == FiveTuple.from_packet(swapped)


ip_strategy = st.sampled_from([bytes([10, 0, 0, i]) for i in range(1, 5)])
port_strategy = st.integers(0, 4)


@st.composite
def packet_strategy(draw):
    proto = draw(st.sampled_from([6, 17]))
    return make_packet(
        ts=draw(st.floats(0, 100, allow_nan=False, allow_infinity=False)),
        src=draw(ip_strategy),
        dst=draw(ip_strategy),
        sport=draw(port_strategy),
        dport=draw(port_strategy),
        proto=proto,
        flags=draw(st.integers(0, 255)) if proto == 6 else 0,
    )


@given(packet_strategy())
def test_five_tuple_canonicalization_idempotent(pkt):
    key = FiveTuple.from_packet(pkt)
    assert (key.ip_a, key.port_a) <= (key.ip_b, key.port_b)
    rebuilt = FiveTuple(key.ip_a, key.port_a, key.ip_b, key.port_b, key.proto)
    assert rebuilt == key


# -- reassembly ---------------------------------------------------------------------


def test_reassemble_alternating_directions():
    a2b = dict(src=b"\x0a\x00\x00\x01", dst=b"\x0a\x00\x00\x02", sport=100, dport=200)
    b2a = dict(src=b"\x0a\x00\x00\x02", dst=b"\x0a\x00\x00\x01", sport=200, dport=100)
    packets = [
        make_packet(ts=0.0, **a2b),
        make_packet(ts=1.0, **b2a),
        make_packet(ts=2.0, **a2b),
        make_packet(ts=3.0, **b2a),
    ]
    flows = reassemble_sessions(packets)
    assert len(flows) == 1
    assert [d for _, d in flows[0].packets] == [FORWARD, BACKWARD, FORWARD, BACKWARD]


def test_reassemble_two_tuples_two_flows():
    packets = [make_packet(sport=1, dport=2), make_packet(sport=3, dport=4)]
    assert len(reassemble_sessions(packets)) == 2


def brute_force_grouping(packets):
    """Independent oracle: group by sorted endpoints, then time-sort."""
    groups = {}
    for i, p in enumerate(packets):
        ends = sorted([(p.src_ip, p.src_port), (p.dst_ip, p.dst_port)])
        key = (ends[0], ends[1], p.ip_proto)
        groups.setdefault(key, []).append((p.timestamp, i, p))
    return {
        key: [p for _, _, p in sorted(entries, key=lambda e: (e[0], e[1]))]
        for key, entries in groups.items()
    }


def test_reassemble_shuffled_timestamps_matches_oracle(rng):
    packets = []
    for i in range(60):
        packets.append(
            make_packet(
                ts=float(rng.uniform(0, 10)),
                src=bytes([10, 0, 0, int(rng.integers(1, 4))]),
                dst=bytes([10, 0, 0, int(rng.integers(1, 4))]),
                sport=int(rng.integers(0, 3)),
                dport=int(rng.integers(0, 3)),
            )
        )
    flows = reassemble_sessions(packets)
    oracle = brute_force_grouping(packets)
    assert len(flows) == len(oracle)
    for flow in flows:
        key = ((flow.key.ip_a, flow.key.port_a), (flow.key.ip_b, flow.key.port_b), flow.key.proto)
        assert [p for p, _ in flow.packets] == oracle[key]


@given(st.lists(packet_strategy(), min_size=1, max_size=40))
@settings(max_examples=50)
def test_reassemble_partition_property(packets):
    flows = reassemble_sessions(packets)
    assert sum(len(f) for f in flows) == len(packets)
    first_directions = [f.packets[0][1] for f in flows]
    assert all(d == FORWARD for d in first_directions)
    for flow in flows:
        times = [p.timestamp for p, _ in flow.packets]
        assert times == sorted(times)


@given(st.lists(packet_strategy(), min_size=1, max_size=30))
@settings(max_examples=50)
def test_reassemble_endpoint_swap_same_keys(packets):
    swapped = [
        make_packet(
            ts=p.timestamp,
            src=p.dst_ip,
            dst=p.src_ip,
            sport=p.dst_port,
            dport=p.src_port,
            proto=p.ip_proto,
            flags=p.tcp_flags,
        )
        for p in packets
    ]
    keys = {f.key for f in reassemble_sessions(packets)}
    keys_swapped = {f.key for f in reassemble_sessions(swapped)}
    assert keys == keys_swapped


# -- micro-flow filter -----------------------------------------------------------------


def _flow_of_size(n, port):
    packets = [(make_packet(ts=float(i), sport=port, dport=port + 1), FORWARD) for i in range(n)]
    return SessionFlow(key=FiveTuple.from_packet(packets[0][0]), packets=packets)


def test_filter_micro_flows_threshold_three():
    flows = [_flow_of_size(n, port=10 * n) for n in (1, 2, 3, 5)]
    kept = filter_micro_flows(flows, min_packets=3)
    assert [len(f) for f in kept] == [3, 5]


def test_filter_min_one_is_identity():
    flows = [_flow_of_size(n, port=10 * n) for n in (1, 2, 3)]
    assert filter_micro_flows(flows, min_packets=1) == flows


def test_filter_rejects_bad_min():
    with pytest.raises(ValueError):
        filter_micro_flows([], min_packets=0)


# -- flow store -------------------------------------------------------------------------


def test_flow_store_round_trip(tmp_path):
    packets = [
        make_packet(ts=0.5, proto=6, flags=0x02),
        make_packet(ts=1.5, src=b"\x0a\x00\x00\x02", dst=b"\x0a\x00\x00\x01",
                    sport=2222, dport=1111, proto=6, flags=0x10, payload=b"\x01\x02"),
        make_packet(ts=2.5, proto=6, flags=0x18, payload=b"abc"),
    ]
    flows = reassemble_sessions(packets)
    flows[0].label = 3
    write_flows(flows, tmp_path)
    loaded = read_flows(tmp_path)
    assert loaded == flows
    manifest = (tmp_path / "flows.tsv").read_text().strip().split("\t")
    assert manifest[5] == "3" and manifest[6] == "3"  # packet count, label
