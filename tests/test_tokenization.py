import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficmoe.flows import BACKWARD, FORWARD, FiveTuple, PacketRecord, SessionFlow
from trafficmoe.synth import synth_flow, synth_flows, write_pcap
from trafficmoe.tokenization import (
    BIGRAM_BASE,
    END_ID,
    FULL_BIGRAM_VOCAB_SIZE,
    MARKERS,
    PAD_ID,
    PD_ID,
    PY_ID,
    UNK_ID,
    PacketByteRecord,
    SerializerConfig,
    TokenSequence,
    Vocabulary,
    build_vocabulary,
    read_corpus,
    serialize_flow,
    serialize_packet,
    temporal_slice,
    tokenize,
    write_corpus,
)


def make_packet(ts=0.0, length=60, flags=0x02, proto=6, payload=b"", sport=1, dport=2):
    return PacketRecord(
        timestamp=ts,
        src_ip=b"\x0a\x00\x00\x01",
        dst_ip=b"\x0a\x00\x00\x02",
        src_port=sport,
        dst_port=dport,
        ip_proto=proto,
        tcp_flags=flags if proto == 6 else 0,
        total_length=max(length, len(payload)),
        payload=payload,
    )


def flow_from_packets(pairs, label=None):
    return SessionFlow(key=FiveTuple.from_packet(pairs[0][0]), packets=pairs, label=label)


def codes(text):
    """Oracle: the codes of a space-separated stream of markers and hex bigrams."""
    return np.array([MARKERS.index(t) if t in MARKERS else 5 + int(t, 16) for t in text.split()], dtype=np.int32)


def payload_codes(payload, stride):
    """The codes between [PY] and [END] of a one-packet flow carrying ``payload``."""
    cfg = SerializerConfig(payload_bytes=40, bigram_stride=stride)
    out = serialize_flow(flow_from_packets([(make_packet(payload=payload), FORWARD)]), cfg).tolist()
    return out[out.index(PY_ID) + 1 : -1]


# -- serialize_packet ------------------------------------------------------------


def test_serialize_first_syn_meta_layout():
    rec = serialize_packet(make_packet(length=60, flags=0x02), FORWARD, None)
    assert rec.meta.hex() == "003c" + "00" + "02" + "00000000" + "06" + "0000"
    assert rec.payload_sample == b""


def test_serialize_one_millisecond_iat():
    rec = serialize_packet(make_packet(ts=1.001), FORWARD, prev_timestamp=1.0)
    assert rec.meta[4:8].hex() == "000003e8"


def test_serialize_payload_sample_is_first_j_bytes():
    payload = bytes(range(100))
    rec = serialize_packet(make_packet(payload=payload), FORWARD, None, payload_bytes=40)
    assert rec.payload_sample == payload[:40]
    assert rec.meta[9:11].hex() == "0064"  # full payload length, not the sample


def test_serialize_direction_and_clamps():
    rec = serialize_packet(make_packet(length=100_000), BACKWARD, None)
    assert rec.meta[0:2] == b"\xff\xff"
    assert rec.meta[2] == 1
    huge_gap = serialize_packet(make_packet(ts=1e7), FORWARD, prev_timestamp=0.0)
    assert huge_gap.meta[4:8] == b"\xff\xff\xff\xff"


def test_packet_byte_record_requires_11_meta_bytes():
    with pytest.raises(ValueError):
        PacketByteRecord(meta=b"\x00" * 10, payload_sample=b"")


# -- bigram windows ----------------------------------------------------------------


def test_region_bigrams_stride2_pads_lone_byte():
    assert payload_codes(bytes.fromhex("aabbcc"), 2) == codes("aabb cc00").tolist()


def test_region_bigrams_stride1_slides():
    assert payload_codes(bytes.fromhex("aabbcc"), 1) == codes("aabb bbcc cc00").tolist()


def test_region_bigrams_empty():
    assert payload_codes(b"", 2) == []


# -- serialize_flow ---------------------------------------------------------------


def test_serialize_single_packet_empty_payload_structure():
    flow = flow_from_packets([(make_packet(), FORWARD)])
    cfg = SerializerConfig(packets_per_flow=10, payload_bytes=40, max_tokens=512, bigram_stride=2)
    tokens = serialize_flow(flow, cfg)
    assert tokens.dtype == np.int32
    assert tokens.tolist() == codes("[PD] 003c 0002 0000 0000 0600 0000 [PY] [END]").tolist()


def test_serialize_caps_at_k_packets():
    pairs = [(make_packet(ts=float(i)), FORWARD) for i in range(12)]
    cfg = SerializerConfig(packets_per_flow=10, payload_bytes=40, max_tokens=512)
    tokens = serialize_flow(flow_from_packets(pairs), cfg)
    assert np.count_nonzero(tokens == PD_ID) == 10


def test_serialize_empty_flow_rejected():
    with pytest.raises(ValueError):
        serialize_flow(SessionFlow(key=None, packets=[], label=None), SerializerConfig())


def recover_regions(tokens):
    """Inverse mapper oracle: rebuild per-packet byte regions from codes."""
    def region(window_codes):
        return b"".join((c - 5).to_bytes(2, "big") for c in window_codes)

    packets = []
    i = 0
    while tokens[i] == PD_ID:
        i += 1
        meta = []
        while tokens[i] != PY_ID:
            meta.append(tokens[i])
            i += 1
        i += 1
        payload = []
        while tokens[i] not in (PD_ID, END_ID):
            payload.append(tokens[i])
            i += 1
        packets.append((region(meta), region(payload)))
    assert tokens[i] == END_ID
    return packets


def test_stride2_round_trip_recovers_bytes(rng):
    cfg = SerializerConfig(packets_per_flow=10, payload_bytes=40, max_tokens=512)
    flow = synth_flow(rng, label=1, n_packets=6)
    recovered = recover_regions(serialize_flow(flow, cfg).tolist())
    assert len(recovered) == 6
    prev_ts = None
    for (meta, payload), (pkt, direction) in zip(recovered, flow.packets):
        expected = serialize_packet(pkt, direction, prev_ts, cfg.payload_bytes)
        prev_ts = pkt.timestamp
        assert meta[:11] == expected.meta
        assert meta[11:] == b"\x00"  # stride-2 pad byte on the odd meta region
        sample = expected.payload_sample
        assert payload[: len(sample)] == sample
        assert all(b == 0 for b in payload[len(sample) :])


# -- vocabulary -----------------------------------------------------------------------


def test_full_bigram_vocab_size():
    vocab = build_vocabulary(mode="full_bigram")
    assert len(vocab) == 65541 == FULL_BIGRAM_VOCAB_SIZE


def test_marker_ids_are_stable(tmp_path):
    vocab = build_vocabulary(mode="full_bigram")
    vocab.save(tmp_path / "vocab.tsv")
    head = [line.split("\t") for line in (tmp_path / "vocab.tsv").read_text().splitlines()[:5]]
    assert head == [[m, str(i)] for m, i in zip(MARKERS, [PD_ID, PY_ID, PAD_ID, END_ID, UNK_ID])]
    assert vocab.table[: len(MARKERS)].tolist() == [PD_ID, PY_ID, PAD_ID, END_ID, UNK_ID]


def test_wordpiece_single_bigram_vocab():
    vocab = build_vocabulary([codes("0000 [END]"), codes("0000")], mode="wordpiece", min_freq=1)
    assert len(vocab) == 6
    assert len(build_vocabulary([codes("0000")], mode="wordpiece", min_freq=0)) == 6  # unseen bigrams stay out


def test_wordpiece_counts_match_brute_force(rng):
    cfg = SerializerConfig(packets_per_flow=5, payload_bytes=12, max_tokens=128)
    corpus = [serialize_flow(f, cfg) for f in synth_flows(100, n_classes=3, seed=17)]
    min_freq = 4
    vocab = build_vocabulary(corpus, mode="wordpiece", min_freq=min_freq)
    counter = Counter()
    for flow_codes in corpus:
        counter.update(c for c in flow_codes.tolist() if c >= len(MARKERS))
    expected = sorted((c for c, n in counter.items() if n >= min_freq), key=lambda c: (-counter[c], c))
    by_id = [int(np.flatnonzero(vocab.table == i)[0]) for i in range(len(MARKERS), len(vocab))]
    assert by_id == expected
    assert np.count_nonzero(vocab.table == UNK_ID) == 1 + FULL_BIGRAM_VOCAB_SIZE - len(vocab)


def test_wordpiece_empty_corpus_is_error():
    with pytest.raises(ValueError):
        build_vocabulary([], mode="wordpiece")


def test_vocab_save_load_round_trip(tmp_path):
    vocab = build_vocabulary([codes("ccdd aabb ccdd")], mode="wordpiece", min_freq=1)
    path = tmp_path / "vocab.tsv"
    vocab.save(path)
    lines = path.read_text().splitlines()
    assert lines == [f"{m}\t{i}" for i, m in enumerate(MARKERS)] + ["ccdd\t5", "aabb\t6"]
    assert np.array_equal(Vocabulary.load(path).table, vocab.table)


# -- tokenize ----------------------------------------------------------------------------


def test_tokenize_end_only_padded():
    vocab = build_vocabulary(mode="full_bigram")
    seq = tokenize(codes("[END]"), vocab, max_tokens=8)
    assert seq.ids.tolist() == [END_ID] + [PAD_ID] * 7
    assert seq.valid_mask.tolist() == [True] + [False] * 7


def test_tokenize_exact_length_unchanged():
    vocab = build_vocabulary(mode="full_bigram")
    stream = codes("[PD] 0001 [PY] aabb ccdd eeff 0102 [END]")
    seq = tokenize(stream, vocab, max_tokens=8)
    assert seq.n_valid == 8
    assert seq.ids.tolist() == stream.tolist()  # the full-bigram table is the identity


def test_tokenize_truncation_rewrites_end(rng):
    vocab = build_vocabulary(mode="full_bigram")
    cfg = SerializerConfig(packets_per_flow=10, payload_bytes=40, max_tokens=512, bigram_stride=1)
    payload = bytes(rng.integers(0, 256, size=40))
    pairs = [(make_packet(ts=float(i), flags=0x18, payload=payload), FORWARD) for i in range(10)]
    stream = serialize_flow(flow_from_packets(pairs), cfg)
    n_tokens = len(stream)
    assert n_tokens == 10 * (1 + 11 + 1 + 40) + 1  # 531: full packets at stride 1
    seq = tokenize(stream, vocab, max_tokens=512)
    assert len(seq) == 512
    assert seq.n_valid == 512
    assert seq.ids[511] == END_ID
    assert np.count_nonzero(seq.ids == END_ID) == 1


def test_tokenize_oov_becomes_unk():
    vocab = build_vocabulary([codes("aabb")], mode="wordpiece", min_freq=1)
    seq = tokenize(codes("[PD] aabb ffff [END]"), vocab, max_tokens=6)
    assert seq.ids.tolist() == [PD_ID, BIGRAM_BASE, UNK_ID, END_ID, PAD_ID, PAD_ID]


def test_full_bigram_mode_never_emits_unk(rng):
    vocab = build_vocabulary(mode="full_bigram")
    cfg = SerializerConfig(packets_per_flow=8, payload_bytes=24, max_tokens=256)
    for flow in synth_flows(25, n_classes=4, seed=3):
        seq = tokenize(serialize_flow(flow, cfg), vocab, cfg.max_tokens)
        assert UNK_ID not in seq.ids


def check_marker_structure(seq: TokenSequence):
    ids = seq.ids[seq.valid_mask].tolist()
    assert ids[-1] == END_ID
    assert PAD_ID not in ids
    body = ids[:-1]
    if not body:
        return
    assert body[0] == PD_ID
    segments = []
    current = None
    for tok in body:
        if tok == PD_ID:
            current = []
            segments.append(current)
        else:
            current.append(tok)
    for segment in segments:
        assert segment.count(PY_ID) == 1


def test_marker_structure_and_length_bound_on_synthetic_flows():
    vocab = build_vocabulary(mode="full_bigram")
    for stride in (1, 2):
        cfg = SerializerConfig(packets_per_flow=6, payload_bytes=20, max_tokens=400, bigram_stride=stride)
        for flow in synth_flows(40, n_classes=3, seed=stride):
            seq = tokenize(serialize_flow(flow, cfg), vocab, cfg.max_tokens)
            check_marker_structure(seq)
            assert seq.n_valid <= cfg.max_valid_tokens


def test_serializer_config_validation():
    with pytest.raises(ValueError):
        SerializerConfig(packets_per_flow=0)
    with pytest.raises(ValueError):
        SerializerConfig(bigram_stride=3)
    with pytest.raises(ValueError):
        SerializerConfig(max_tokens=10)  # cannot hold one packet + [END]


# -- temporal slicing ----------------------------------------------------------------------


def _timed_flow(times, label=7):
    pairs = [(make_packet(ts=t), FORWARD) for t in times]
    return flow_from_packets(pairs, label=label)


def test_temporal_slice_clean_split():
    flow = _timed_flow([0, 1, 2, 10, 11, 12])
    parts = temporal_slice(flow, window_seconds=5.0)
    assert len(parts) == 2
    assert [len(p) for p in parts] == [3, 3]
    assert all(p.label == 7 and p.key == flow.key for p in parts)


def test_temporal_slice_single_window_identity():
    flow = _timed_flow([0.0, 0.5, 1.0, 1.5])
    parts = temporal_slice(flow, window_seconds=10.0)
    assert len(parts) == 1
    assert [p for p, _ in parts[0].packets] == [p for p, _ in flow.packets]


def test_temporal_slice_discards_small_windows_unless_bypass():
    flow = _timed_flow([0, 1, 2, 30])
    assert len(temporal_slice(flow, window_seconds=5.0)) == 1
    parts = temporal_slice(flow, window_seconds=5.0, min_packets=1)
    assert sum(len(p) for p in parts) == 4


@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=30), st.floats(0.5, 20))
@settings(max_examples=60)
def test_temporal_slice_conservation(times, window):
    flow = _timed_flow(sorted(times))
    parts = temporal_slice(flow, window_seconds=window, min_packets=1)
    sliced = sorted(p.timestamp for part in parts for p, _ in part.packets)
    assert sliced == sorted(times)
    # brute-force binning oracle
    t0 = min(times)
    for part in parts:
        bins = {int((p.timestamp - t0) // window) for p, _ in part.packets}
        assert len(bins) == 1


def test_temporal_slice_rejects_bad_window():
    with pytest.raises(ValueError):
        temporal_slice(_timed_flow([0.0]), window_seconds=0.0)


# -- corpus files ------------------------------------------------------------------------------


def test_corpus_round_trip(tmp_path):
    vocab = build_vocabulary(mode="full_bigram")
    cfg = SerializerConfig(packets_per_flow=4, payload_bytes=8, max_tokens=64)
    seqs = [
        tokenize(serialize_flow(f, cfg), vocab, cfg.max_tokens, label=f.label)
        for f in synth_flows(6, n_classes=2, seed=9)
    ]
    seqs[0].label = None
    path = tmp_path / "corpus.txt"
    write_corpus(seqs, path)
    loaded = read_corpus(path)
    assert len(loaded) == len(seqs)
    for original, restored in zip(seqs, loaded):
        assert np.array_equal(original.ids, restored.ids)
        assert np.array_equal(original.valid_mask, restored.valid_mask)
        assert original.label == restored.label


def test_corpus_bytes_are_pinned(tmp_path):
    ids = np.array([5, 0, 65540, 17, 2, 2], dtype=np.int32)
    path = tmp_path / "c.txt"
    write_corpus([TokenSequence(ids, ids != 2, label=3), TokenSequence(ids[::-1], ids[::-1] != 2)], path)
    assert path.read_bytes() == b"label:3\t5 0 65540 17 2 2\n2 2 17 65540 0 5\n"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9a992a49042b37106ce8bbe9225922fa1f0fc717b234524e19b5e98ca273702a"
    )


def test_synth_labels_0_to_6_are_byte_identical_and_7_up_work():
    flows = synth_flows(21, n_classes=7, seed=11)
    packets = sorted((p for f in flows for p, _ in f.packets), key=lambda p: p.timestamp)
    digest = hashlib.sha256(write_pcap(packets)).hexdigest()
    assert digest == "90a2b968c4ccb5b966fd9a17c8293b150157366b0fc874ba068c49a7c542e574"
    rng = np.random.default_rng(0)
    for label in (7, 12, 40):
        flow = synth_flow(rng, label=label, n_packets=5)
        alphabet = {(i * 13 + 37 * label) % 256 for i in range(16)}
        assert set(b"".join(p.payload for p, _ in flow.packets)) <= alphabet
