import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcap_craft as craft
import reference_ops as ref
from reference_ops import FiveTuple, PacketRecord
from trafficmoe.flows import (
    BACKWARD,
    FORWARD,
    CaptureError,
    FlowTable,
    PacketTable,
    filter_micro_flows,
    parse_capture,
    read_flows,
    reassemble_sessions,
    write_flows,
    write_pcap,
)
from trafficmoe.tokenization import SerializerConfig, serialize_codes


def grouped(packets):
    """The flows of packet records, as ``reassemble_sessions`` groups them."""
    return reassemble_sessions(ref.packets_of((p, FORWARD) for p in packets))


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
    records = ref.records(parse_capture(blob))
    assert len(records) == 1
    rec = records[0]
    assert rec.tcp_flags == 0x02
    assert rec.payload == b""  # ethernet padding is not payload
    assert rec.total_length == 60
    assert rec.src_port == 1234 and rec.dst_port == 80
    assert rec.ip_proto == 6
    assert rec.timestamp == pytest.approx(1.5, abs=1e-6)


def test_parse_header_only_capture():
    assert ref.records(parse_capture(craft.pcap([]))) == []


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
    records = ref.records(parse_capture(blob))
    assert len(records) == 1
    assert records[0].timestamp == pytest.approx(2.000001, abs=1e-9)


def test_parse_ipv6_and_udp():
    src6, dst6 = b"\x20\x01" + b"\x00" * 14, b"\x20\x02" + b"\x00" * 14
    frame = craft.ethernet(craft.ipv6(src6, dst6, 17, craft.udp(53, 5353, b"abc")), craft.ETH_IPV6)
    records = ref.records(parse_capture(craft.pcap([(0.0, frame)])))
    assert len(records) == 1
    rec = records[0]
    assert rec.src_ip == src6 and rec.dst_ip == dst6
    assert rec.ip_proto == 17 and rec.tcp_flags == 0
    assert rec.payload == b"abc"


def test_parse_portless_protocol_uses_port_zero():
    icmp_body = b"\x08\x00\x00\x00rest"
    frame = craft.ethernet(craft.ipv4(b"\x01\x01\x01\x01", b"\x02\x02\x02\x02", 1, icmp_body))
    records = ref.records(parse_capture(craft.pcap([(0.0, frame)])))
    assert records[0].src_port == 0 and records[0].dst_port == 0
    assert records[0].payload == icmp_body


def test_parse_tcp_payload_respects_data_offset():
    seg = craft.tcp(10, 20, 0x18, b"hello", data_offset=8)
    frame = craft.ethernet(craft.ipv4(b"\x01\x01\x01\x01", b"\x02\x02\x02\x02", 6, seg))
    records = ref.records(parse_capture(craft.pcap([(0.0, frame)])))
    assert records[0].payload == b"hello"


def test_parse_determinism_bit_for_bit():
    frames = [(i * 0.25, craft.syn_frame_60(sport=i + 1, dport=80)) for i in range(7)]
    blob = craft.pcap(frames)
    assert ref.records(parse_capture(blob)) == ref.records(parse_capture(blob))


# -- capture writer ----------------------------------------------------------------

# One field of one row set to a value the capture writer refuses: another protocol or address length, a
# time outside its 32-bit seconds, or a field past its header's width.
_REFUSED = [("proto", 17), ("proto", 1), ("src_len", 16), ("dst_len", 3), ("ts", -1.0), ("ts", float("nan")),
            ("ts", float("inf")), ("ts", 2.0**32 - 1), ("sport", -1), ("sport", 1 << 16), ("dport", 1 << 16),
            ("flags", -1), ("flags", 256), ("plen", 0xFFFF - 39), ("length", 53), ("length", 1 << 32)]


@st.composite
def capture_tables(draw):
    """A table of TCP over IPv4 packets, and maybe one row set to a refused value: (table, that row or None)."""
    records = []
    for payload in draw(st.lists(st.binary(max_size=40), max_size=6)):
        ts = draw(st.floats(0, 2**31) | st.sampled_from([0.0, 0.9999995, 0.99999975, 1.0000005, 2.0**32 - 1.5]))
        address = st.binary(min_size=4, max_size=4)
        records.append(PacketRecord(ts, draw(address), draw(address), draw(st.integers(0, 65535)),
                                    draw(st.integers(0, 65535)), 6, draw(st.integers(0, 255)),
                                    54 + len(payload) + draw(st.sampled_from([0, 0, 6, 3000])), payload))
    table = ref.packets_of((r, FORWARD) for r in records)
    bad = draw(st.none() | st.integers(0, len(records) - 1)) if records else None
    if bad is not None:
        column, value = draw(st.sampled_from(_REFUSED))
        table.rows[column][bad] = value
    return table, bad


@given(capture_tables())
@settings(max_examples=150, deadline=None)
def test_the_capture_writer_round_trips_every_column_it_writes(case):
    table, bad = case
    if bad is not None:
        with pytest.raises(ValueError, match=f"^packet {bad}: the capture writer needs "):
            write_pcap(table)
        return
    written, capture = ref.records(table), write_pcap(table)
    assert capture == ref.write_pcap_ref(written)
    back = ref.records(parse_capture(capture))
    assert len(back) == len(written)
    for want, got in zip(written, back):
        sec = int(want.timestamp)  # whole seconds, then microseconds rounded half to even
        usec = round((want.timestamp - sec) * 1e6)
        sec, usec = (sec + 1, usec - 10**6) if usec >= 10**6 else (sec, usec)
        assert got.timestamp == sec + usec / 1e6 and abs(got.timestamp - want.timestamp) <= 1e-6
        assert replace(got, timestamp=0.0) == replace(want, timestamp=0.0)


# -- five-tuple canonicalization ---------------------------------------------------


def test_five_tuple_swap_invariance():
    pkt = make_packet()
    swapped = make_packet(src=pkt.dst_ip, dst=pkt.src_ip, sport=pkt.dst_port, dport=pkt.src_port)
    assert grouped([pkt]).key_fields() == grouped([swapped]).key_fields()


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
    (key,) = grouped([pkt]).key_fields()
    assert key[:2] <= key[2:4]
    assert FiveTuple(*key) == FiveTuple.from_packet(pkt)


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
    flows = ref.sessions(grouped(packets))
    assert len(flows) == 1
    assert [d for _, d in flows[0].packets] == [FORWARD, BACKWARD, FORWARD, BACKWARD]


def test_reassemble_two_tuples_two_flows():
    packets = [make_packet(sport=1, dport=2), make_packet(sport=3, dport=4)]
    assert len(grouped(packets)) == 2


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
    flows = ref.sessions(grouped(packets))
    oracle = brute_force_grouping(packets)
    assert len(flows) == len(oracle)
    for flow in flows:
        key = ((flow.key.ip_a, flow.key.port_a), (flow.key.ip_b, flow.key.port_b), flow.key.proto)
        assert [p for p, _ in flow.packets] == oracle[key]


@given(st.lists(packet_strategy(), min_size=1, max_size=40))
@settings(max_examples=50)
def test_reassemble_partition_property(packets):
    flows = ref.sessions(grouped(packets))
    assert sum(len(f.packets) for f in flows) == len(packets)
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
    keys = {f.key for f in ref.sessions(grouped(packets))}
    keys_swapped = {f.key for f in ref.sessions(grouped(swapped))}
    assert keys == keys_swapped


# -- micro-flow filter -----------------------------------------------------------------


def _flow_of_size(n, port):
    return ref.flow_of([(make_packet(ts=float(i), sport=port, dport=port + 1), FORWARD) for i in range(n)])


def test_filter_micro_flows_threshold_three():
    flows = [_flow_of_size(n, port=10 * n) for n in (1, 2, 3, 5)]
    kept = filter_micro_flows(ref.table_of(flows), min_packets=3)
    assert kept.counts.tolist() == [3, 5]


def test_filter_min_one_is_identity():
    flows = [_flow_of_size(n, port=10 * n) for n in (1, 2, 3)]
    assert ref.sessions(filter_micro_flows(ref.table_of(flows), min_packets=1)) == flows


def test_filter_rejects_bad_min():
    with pytest.raises(ValueError):
        filter_micro_flows(FlowTable.of([]), min_packets=0)


# -- flow store -------------------------------------------------------------------------


def test_flow_store_round_trip(tmp_path):
    packets = [
        make_packet(ts=0.5, proto=6, flags=0x02),
        make_packet(ts=1.5, src=b"\x0a\x00\x00\x02", dst=b"\x0a\x00\x00\x01",
                    sport=2222, dport=1111, proto=6, flags=0x10, payload=b"\x01\x02"),
        make_packet(ts=2.5, proto=6, flags=0x18, payload=b"abc"),
    ]
    flows = ref.sessions(grouped(packets))
    flows[0].label = 3
    write_flows(ref.table_of(flows), tmp_path)
    loaded = ref.sessions(read_flows(tmp_path))
    assert loaded == flows
    manifest = (tmp_path / "flows.tsv").read_text().strip().split("\t")
    assert manifest[5] == "3" and manifest[6] == "3"  # packet count, label


# -- the column tables against the per-packet references ------------------------------------


def outcome(fn, *args):
    """``fn(*args)`` as objects, or its ValueError's type and text, with the text of every warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
            if isinstance(result, FlowTable):
                result = ref.sessions(result)
            elif isinstance(result, PacketTable):
                result = ref.records(result)
        except ValueError as exc:
            result = (type(exc).__name__, str(exc))
    return result, [str(w.message) for w in caught]


@st.composite
def transport(draw, proto):
    payload = draw(st.binary(max_size=24))
    if proto == 6:
        seg = craft.tcp(draw(st.integers(0, 65535)), draw(st.integers(0, 65535)), draw(st.integers(0, 255)),
                        payload, data_offset=draw(st.sampled_from([5, 5, 6, 8])))
        # a data offset below 20 bytes, or past the segment's end
        seg = seg[:12] + bytes([draw(st.sampled_from([seg[12], 0x00, 0x40, 0xF0]))]) + seg[13:]
    elif proto == 17:
        seg = craft.udp(draw(st.integers(0, 65535)), draw(st.integers(0, 65535)), payload)
    else:
        seg = payload
    return seg[: draw(st.sampled_from([len(seg), len(seg), 3, 7, 12, 19]))]  # short TCP/UDP headers too


@st.composite
def datagram(draw):
    proto = draw(st.sampled_from([6, 6, 17, 17, 1, 58]))
    seg = draw(transport(proto))
    if draw(st.booleans()):
        options = bytes(4 * draw(st.integers(0, 3)))
        src, dst = draw(st.sampled_from([bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2])])), bytes([10, 0, 0, 3])
        ip = bytearray(craft.ipv4(src, dst, proto, options + seg))
        ip[0] = 0x45 + len(options) // 4
        ip[2:4] = draw(st.sampled_from([len(ip), len(ip), 8, len(ip) - 3, len(ip) + 9])).to_bytes(2, "big")
        ip[20 : 20 + len(options) + len(seg)] = options + seg
        if draw(st.integers(0, 9)) == 0:
            ip[0] = 0x40 + draw(st.integers(0, 4))  # a header length below 20 bytes
    else:
        src, dst = bytes(range(16)), bytes(range(1, 17))
        ip = bytearray(craft.ipv6(*draw(st.permutations([src, dst])), proto, seg))
        ip[4:6] = draw(st.sampled_from([len(seg), len(seg), 0, max(len(seg) - 5, 0), len(seg) + 7])).to_bytes(2, "big")
    return bytes(ip) + bytes(draw(st.sampled_from([0, 0, 6])))  # link padding


@st.composite
def frames(draw, linktype):
    ip = draw(datagram())
    if linktype == 101:
        frame = ip
    elif draw(st.integers(0, 7)) == 0:
        frame = craft.arp_frame()
    else:
        ethertype = craft.ETH_IPV6 if ip[0] >> 4 == 6 else craft.ETH_IPV4
        tag = draw(st.sampled_from([None, None, 0x8100, 0x88A8]))
        frame = craft.ethernet(ip, ethertype, vlan=None if tag is None else 5)
        if tag == 0x88A8:
            frame = frame[:12] + b"\x88\xa8" + frame[14:]
    return frame[: draw(st.sampled_from([len(frame)] * 4 + [0, 10, 15, 17, 30, 45]))]


@st.composite
def captures(draw):
    linktype = draw(st.sampled_from([1, 101]))
    little, nanos = draw(st.booleans()), draw(st.booleans())
    stamps = st.sampled_from([0.0, 1.0, 1.5]) | st.floats(0, 2**31, allow_nan=False)
    frame_list = draw(st.lists(st.tuples(stamps, frames(linktype)), max_size=10))
    orig_lens = [len(f) + draw(st.sampled_from([0, 0, 40, -1])) for _, f in frame_list]
    blob = craft.pcap(frame_list, magic=0xA1B23C4D if nanos else 0xA1B2C3D4, little_endian=little, nanos=nanos,
                      linktype=linktype, orig_lens=[max(n, 0) for n in orig_lens])
    return blob[: len(blob) - draw(st.sampled_from([0, 0, 0, 1, 9, 17, 30]))]  # a truncated trailing record


@given(captures())
@settings(max_examples=150, deadline=None)
def test_column_decoder_and_grouping_match_the_per_packet_reference(blob):
    decoded = outcome(parse_capture, blob)
    assert decoded == outcome(ref.parse_capture_ref, blob)
    if not isinstance(decoded[0], list):  # a header error, checked above
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table, records = parse_capture(blob), ref.parse_capture_ref(blob)
    assert ref.sessions(reassemble_sessions(table)) == ref.reassemble_sessions_ref(records)


def test_decoder_errors_match_the_reference():
    good = craft.pcap([(0.0, craft.syn_frame_60())])
    for blob in (good[:3], b"\x00" * 24, craft.pcap([], linktype=147), good[:30], good[:24]):
        assert outcome(parse_capture, blob) == outcome(ref.parse_capture_ref, blob)


# Addresses of several lengths, some a prefix of another, so Python's bytes order decides the key.
ADDRESSES = [b"", b"\x01", b"\x01\x00", b"\x01\x00\x00\x02", bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2]),
             bytes(range(16)), bytes(range(1, 17))]


@st.composite
def loose_packets(draw):
    proto = draw(st.sampled_from([6, 17]))
    payload = draw(st.binary(max_size=6))
    return PacketRecord(draw(st.sampled_from([0.0, 0.0, 1.0, 2.5, -0.0])), draw(st.sampled_from(ADDRESSES)),
                        draw(st.sampled_from(ADDRESSES)), draw(st.integers(0, 3)), draw(st.integers(0, 3)), proto,
                        draw(st.integers(0, 255)) if proto == 6 else 0, 60 + len(payload), payload)


@given(st.lists(loose_packets(), max_size=40))
@settings(max_examples=150, deadline=None)
def test_grouping_matches_the_reference_on_tied_times_and_mixed_addresses(packets):
    assert ref.sessions(grouped(packets)) == ref.reassemble_sessions_ref(packets)
    assert ref.sessions(filter_micro_flows(grouped(packets), 2)) == [
        f for f in ref.reassemble_sessions_ref(packets) if len(f.packets) >= 2]


def store_flows(packets, labels):
    flows = ref.reassemble_sessions_ref(packets)
    for flow, label in zip(flows, labels):
        flow.label = label
    return flows


@given(st.lists(st.builds(lambda p, wide: replace(p, src_ip=p.src_ip * (4 if wide else 1), dst_ip=p.dst_ip * (
    4 if wide else 1)), packet_strategy(), st.booleans()), max_size=25),
       st.lists(st.none() | st.integers(0, 2**31 - 1), min_size=25, max_size=25))
@settings(max_examples=60, deadline=None)
def test_flow_store_matches_the_reference_writer_and_reader(tmp_path_factory, packets, labels):
    flows, (ours, theirs) = store_flows(packets, labels), (tmp_path_factory.mktemp(n) for n in ("a", "b"))
    write_flows(ref.table_of(flows), ours)
    ref.write_flows_ref(flows, theirs)
    for name in ("flows.tsv", "packets.bin"):
        assert (ours / name).read_bytes() == (theirs / name).read_bytes()
    write_flows(grouped(packets), ours)  # the grouped table writes the same bytes
    ref.write_flows_ref([replace(f, label=None) for f in flows], theirs)
    for name in ("flows.tsv", "packets.bin"):
        assert (ours / name).read_bytes() == (theirs / name).read_bytes()
    assert ref.sessions(read_flows(ours)) == ref.read_flows_ref(ours) == [replace(f, label=None) for f in flows]


def test_three_byte_addresses_round_trip(tmp_path):
    packets = [make_packet(src=b"\x01\x02\x03", dst=b"\x04\x05\x06", payload=b"x"),
               make_packet(ts=1.0, src=b"\x04\x05\x06", dst=b"\x01\x02\x03", sport=2222, dport=1111)]
    flows = ref.sessions(grouped(packets))
    write_flows(ref.table_of(flows), tmp_path)
    assert ref.sessions(read_flows(tmp_path)) == flows


def damaged_sidecars(blob: bytes) -> dict[str, bytes]:
    """Named damage to a sidecar whose first flow's first packet has 4-byte addresses."""
    first = 20  # magic, header, then the first flow record's 8 bytes

    def patched(offset, data):
        return blob[:offset] + data + blob[offset + len(data) :]

    cases = {f"cut{n}": blob[:n] for n in range(len(blob))}
    cases.update({
        "bad magic": patched(0, b"TMFX"),
        "bad version": patched(4, struct.pack("<I", 2)),
        "trailing bytes": blob + b"\x00\x01",
        "more flows than stored": patched(8, struct.pack("<I", 9)),
        "nan timestamp": patched(first, struct.pack("<d", float("nan"))),
        "negative timestamp": patched(first, struct.pack("<d", -1.5)),
        "length below payload": patched(first + 10 + 8 + 6, struct.pack("<I", 0)),
        "flags on udp": patched(first + 10 + 8 + 4, bytes([17, 2])),
        "direction 7": patched(first + 8, b"\x07"),
        "zero packets later": patched(8, struct.pack("<I", 3)) + struct.pack("<Ii", 0, 1),
    })
    return cases


def test_damaged_sidecars_give_the_reference_error_and_offset(tmp_path):
    flows = store_flows([make_packet(ts=0.5, payload=b"abc"), make_packet(ts=1.0, sport=5, payload=b"z"),
                         make_packet(ts=2.0, dport=9, proto=6, flags=0x18, payload=b"\x00" * 5)], [1, None, 2])
    ref.write_flows_ref(flows, tmp_path)
    blob = (tmp_path / "packets.bin").read_bytes()
    for name, data in damaged_sidecars(blob).items():
        (tmp_path / "packets.bin").write_bytes(data)
        assert outcome(read_flows, tmp_path) == outcome(ref.read_flows_ref, tmp_path), name


def test_a_zero_packet_flow_is_written_and_refused_on_read_like_the_reference(tmp_path):
    # A flow of no packets has no first packet to key it by, so only the reference writer, which writes
    # each flow's own key, stores one.
    flows = [ref.RecordFlow(FiveTuple(bytes(4), 1, bytes(4), 2, 6), [], 0)] + store_flows([make_packet()], [None])
    ref.write_flows_ref(flows, tmp_path)
    assert outcome(read_flows, tmp_path) == outcome(ref.read_flows_ref, tmp_path)
    assert outcome(read_flows, tmp_path)[0] == ("CaptureError", f"{tmp_path / 'packets.bin'}: malformed record at "
                                                "offset 12: flow record has no packets")


@given(st.lists(packet_strategy(), min_size=1, max_size=30), st.sampled_from([1, 2]), st.sampled_from([0, 5, 40]),
       st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_serializing_a_read_table_matches_the_object_reference(tmp_path_factory, packets, stride, j, k):
    cfg = SerializerConfig(packets_per_flow=k, payload_bytes=j, max_tokens=1024, bigram_stride=stride)
    out = tmp_path_factory.mktemp("flows")
    write_flows(grouped(packets), out)
    codes, lengths = serialize_codes(read_flows(out), cfg)
    got = np.split(codes, np.cumsum(lengths)[:-1])
    assert [c.tolist() for c in got] == [c.tolist() for c in ref.serialize_flows_ref(ref.read_flows_ref(out), cfg)]


# -- what the sidecar cannot hold is refused before anything is written ---------------------------


@pytest.mark.parametrize("change,message", [
    (dict(dst=b"\x00" * 16), "flow 0 packet 1: src_ip has 4 bytes but dst_ip has 16"),
    (dict(src=b"\x01" * 256, dst=b"\x02" * 256), "flow 0 packet 1: address length 256 is outside [0, 256)"),
    (dict(sport=70000), "flow 0 packet 1: src_port 70000 is outside [0, 65536)"),
    (dict(dport=-1), "flow 0 packet 1: dst_port -1 is outside [0, 65536)"),
    (dict(proto=300), "flow 0 packet 1: ip_proto 300 is outside [0, 256)"),
    (dict(proto=6, flags=256), "flow 0 packet 1: tcp_flags 256 is outside [0, 256)"),
    (dict(length=2**32), "flow 0 packet 1: total_length 4294967296 is outside [0, 4294967296)"),
], ids=["address-lengths-differ", "address-too-long", "port", "negative-port", "proto", "flags", "total-length"])
def test_write_flows_refuses_a_packet_it_cannot_store(tmp_path, change, message):
    fields = dict(ts=1.0, src=b"\x0a\x00\x00\x01", dst=b"\x0a\x00\x00\x02", sport=1111, dport=2222, proto=17,
                  flags=0, length=60)
    fields.update(change)
    odd = PacketRecord(fields["ts"], fields["src"], fields["dst"], fields["sport"], fields["dport"], fields["proto"],
                       fields["flags"], fields["length"], b"")
    good = make_packet()
    with pytest.raises(ValueError, match=re.escape(message)):
        write_flows(ref.table_of([ref.flow_of([(good, FORWARD), (odd, BACKWARD)], 1)]), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_write_flows_refuses_a_payload_size_and_direction_past_their_widths(tmp_path):
    for column, value, message in (("plen", 2**32, "payload length 4294967296 is outside [0, 4294967296)"),
                                   ("dir", 256, "direction 256 is outside [0, 256)")):
        table = grouped([make_packet(), make_packet(ts=1.0, payload=b"ab")])
        table.packets.rows[column][1] = value
        with pytest.raises(ValueError, match=re.escape(f"flow 0 packet 1: {message}")):
            write_flows(table, tmp_path / "out")
    assert not (tmp_path / "out").exists()
