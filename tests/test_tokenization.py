import hashlib
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_ops import (PacketRecord, RecordFlow, flow_of, load_vocabulary_ref, packets_of, read_corpus_ref,
                           records, serialize_flow_ref, serialize_packet_ref, sessions, table_of, temporal_slice_ref,
                           tokenize_ref, write_corpus_ref)

from trafficmoe import tokenization
from trafficmoe.flows import BACKWARD, FORWARD, FlowTable, SessionFlow, temporal_slice
from trafficmoe.synth import flows_to_pcap, synth_flow, synth_flows
from trafficmoe.tokenization import (
    BIGRAM_BASE,
    END_ID,
    FULL_BIGRAM_VOCAB_SIZE,
    MARKERS,
    META_BYTES,
    PAD_ID,
    PD_ID,
    PY_ID,
    UNK_ID,
    SerializerConfig,
    TokenSequence,
    Vocabulary,
    build_vocabulary,
    read_corpus,
    serialize_codes,
    serialize_flow,
    token_matrix,
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
    """The (record, direction) pairs as a flow ``serialize_flow`` takes."""
    return SessionFlow(packets_of(pairs), label)


def codes(text):
    """Oracle: the codes of a space-separated stream of markers and hex bigrams."""
    return np.array([MARKERS.index(t) if t in MARKERS else 5 + int(t, 16) for t in text.split()], dtype=np.int32)


def payload_codes(payload, stride):
    """The codes between [PY] and [END] of a one-packet flow carrying ``payload``."""
    cfg = SerializerConfig(payload_bytes=40, bigram_stride=stride)
    out = serialize_flow(flow_from_packets([(make_packet(payload=payload), FORWARD)]), cfg).tolist()
    return out[out.index(PY_ID) + 1 : -1]


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


def meta_and_payload(pkt, direction=FORWARD, prev=None, payload_bytes=40):
    """The 11 meta bytes and the payload region that ``serialize_flow`` writes for ``pkt`` at
    stride 2, recovered from its codes; ``prev`` is the packet before it in the flow."""
    pairs = ([(prev, FORWARD)] if prev is not None else []) + [(pkt, direction)]
    cfg = SerializerConfig(payload_bytes=payload_bytes)
    meta, payload = recover_regions(serialize_flow(flow_from_packets(pairs), cfg).tolist())[-1]
    return meta[:META_BYTES], payload


# -- the 11 metadata bytes ----------------------------------------------------------


def test_serialize_first_syn_meta_layout():
    meta, payload = meta_and_payload(make_packet(length=60, flags=0x02))
    assert meta.hex() == "003c" + "00" + "02" + "00000000" + "06" + "0000"
    assert payload == b""


def test_serialize_one_millisecond_iat():
    meta, _ = meta_and_payload(make_packet(ts=1.001), prev=make_packet(ts=1.0))
    assert meta[4:8].hex() == "000003e8"


def test_serialize_payload_sample_is_first_j_bytes():
    payload = bytes(range(100))
    meta, sample = meta_and_payload(make_packet(payload=payload), payload_bytes=40)
    assert sample == payload[:40]
    assert meta[9:11].hex() == "0064"  # full payload length, not the sample


def test_serialize_direction_and_clamps():
    meta, _ = meta_and_payload(make_packet(length=100_000), BACKWARD)
    assert meta[0:2] == b"\xff\xff"
    assert meta[2] == 1
    huge_gap, _ = meta_and_payload(make_packet(ts=1e7), prev=make_packet(ts=0.0))
    assert huge_gap[4:8] == b"\xff\xff\xff\xff"


def test_meta_region_is_11_bytes():
    flow = flow_from_packets([(make_packet(), FORWARD)])
    for stride, windows in ((1, 11), (2, 6)):
        out = serialize_flow(flow, SerializerConfig(bigram_stride=stride)).tolist()
        assert out.index(PY_ID) - out.index(PD_ID) - 1 == windows


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
        serialize_flow(flow_from_packets([]), SerializerConfig())


def test_stride2_round_trip_recovers_bytes(rng):
    cfg = SerializerConfig(packets_per_flow=10, payload_bytes=40, max_tokens=512)
    flow = synth_flow(rng, label=1, n_packets=6)
    recovered = recover_regions(serialize_flow(flow, cfg).tolist())
    assert len(recovered) == 6
    prev_ts = None
    for (meta, payload), (pkt, direction) in zip(recovered, sessions(FlowTable.of([flow]))[0].packets):
        expected_meta, sample = serialize_packet_ref(pkt, direction, prev_ts, cfg.payload_bytes)
        prev_ts = pkt.timestamp
        assert meta[:11] == expected_meta
        assert meta[11:] == b"\x00"  # stride-2 pad byte on the odd meta region
        assert payload[: len(sample)] == sample
        assert all(b == 0 for b in payload[len(sample) :])


# -- the batch serializer against the per-packet reference --------------------------------


@st.composite
def packets(draw):
    proto = draw(st.sampled_from([6, 17, 1, 58]))
    payload = draw(st.binary(max_size=50))
    ip_len = draw(st.sampled_from([4, 16]))  # IPv4 or IPv6
    return PacketRecord(
        timestamp=draw(st.one_of(st.floats(0, 5), st.floats(0, 1e5))),  # gaps past 2**32 us, and backwards
        src_ip=draw(st.binary(min_size=ip_len, max_size=ip_len)),
        dst_ip=draw(st.binary(min_size=ip_len, max_size=ip_len)),
        src_port=draw(st.integers(0, 65535)),
        dst_port=draw(st.integers(0, 65535)),
        ip_proto=proto,
        tcp_flags=draw(st.integers(0, 255)) if proto == 6 else 0,
        total_length=draw(st.integers(len(payload), 200_000)),
        payload=payload,
    )


@given(
    st.lists(st.lists(st.tuples(packets(), st.sampled_from([FORWARD, BACKWARD])), min_size=1, max_size=8),
             min_size=1, max_size=5),
    st.sampled_from([1, 2]),
    st.sampled_from([0, 7, 40, 64]),
    st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_serialize_flows_matches_per_packet_reference(flows, stride, j, k):
    cfg = SerializerConfig(packets_per_flow=k, payload_bytes=j, max_tokens=1024, bigram_stride=stride)
    flows = [RecordFlow(None, pairs) for pairs in flows]
    codes, lengths = serialize_codes(table_of(flows), cfg)
    assert codes.dtype == np.int32 and len(lengths) == len(flows)
    for codes_got, flow in zip(np.split(codes, np.cumsum(lengths)[:-1]), flows):
        assert codes_got.tolist() == serialize_flow_ref(flow, cfg).tolist()
        assert serialize_flow(flow_from_packets(flow.packets), cfg).tolist() == codes_got.tolist()


def test_serialize_flows_rejects_an_empty_flow_and_takes_no_flows():
    flow = flow_of([(make_packet(), FORWARD)])
    with pytest.raises(ValueError, match="empty flow"):
        serialize_codes(table_of([flow, RecordFlow(None, [])]), SerializerConfig())
    codes, lengths = serialize_codes(FlowTable.of([]), SerializerConfig())
    assert codes.size == lengths.size == 0


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


@pytest.mark.parametrize("lines,lineno,got", [
    ("[UNK]\t\u0664\n", 5, "'[UNK]\\t\u0664'"),  # ARABIC-INDIC DIGIT FOUR
    ("[UNK]\t4\naabb\t+5\n", 6, "'aabb\\t+5'"),
    ("[UNK]\t4\naabb\t5\tx\n", 6, "'aabb\\t5\\tx'"),
])
def test_vocab_ids_must_be_ascii_digits(tmp_path, lines, lineno, got):
    path = tmp_path / "v.tsv"
    path.write_text("".join(f"{m}\t{i}\n" for i, m in enumerate(MARKERS[:4])) + lines, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        Vocabulary.load(path)
    assert str(err.value) == f"{path}:{lineno}: expected token<TAB>id, got {got}"


VOCAB_TOKENS = list(MARKERS) + ["aabb", "0000", "ffff", "aabb", "AABB", "abc", "abcde", "[CLS]", "", "0x1f", "\u00e9bc"]
VOCAB_IDS = ["0", "1", "2", "3", "4", "5", "6", "07", "", "x", "+1", "-1", "\u0664", "99999999999999999999"]


@given(st.lists(st.one_of(
    st.tuples(st.sampled_from(VOCAB_TOKENS), st.sampled_from(VOCAB_IDS)).map("\t".join),
    st.sampled_from(["", "aabb", "aabb 5", "\t5"]),
), max_size=12), st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_vocab_load_matches_line_by_line_reference(tmp_path_factory, lines, markers_first, crlf):
    if markers_first:
        lines = [f"{m}\t{i}" for i, m in enumerate(MARKERS)] + lines
    path = tmp_path_factory.getbasetemp() / "v.tsv"
    path.write_bytes(("\r\n" if crlf else "\n").join(lines).encode())
    try:
        expected = load_vocabulary_ref(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            Vocabulary.load(path)
        assert str(err.value) == str(exc)
    else:
        assert np.array_equal(Vocabulary.load(path).table, expected)


def test_full_bigram_vocab_file_round_trips(tmp_path):
    vocab = build_vocabulary(mode="full_bigram")
    vocab.save(tmp_path / "v.tsv")
    assert np.array_equal(Vocabulary.load(tmp_path / "v.tsv").table, vocab.table)
    assert np.array_equal(load_vocabulary_ref(tmp_path / "v.tsv"), vocab.table)


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


@st.composite
def _id_rule_cases(draw):
    """A full-bigram or wordpiece vocabulary (the latter maps most bigrams to [UNK]), a width, and
    code sequences shorter than, as long as and longer than it; maybe none."""
    if draw(st.booleans()):
        vocab = build_vocabulary(mode="full_bigram")
    else:
        kept = draw(st.lists(st.integers(BIGRAM_BASE, FULL_BIGRAM_VOCAB_SIZE - 1), min_size=1, max_size=20))
        vocab = build_vocabulary([np.array(kept, dtype=np.int32)], mode="wordpiece")
    max_tokens = draw(st.integers(1, 12))
    lengths = draw(st.lists(st.integers(0, 3 * max_tokens) | st.sampled_from([max_tokens - 1, max_tokens,
                                                                               max_tokens + 1]), max_size=6))
    flows = [np.array(draw(st.lists(st.integers(0, FULL_BIGRAM_VOCAB_SIZE - 1) | st.sampled_from(range(BIGRAM_BASE)),
                                    min_size=n, max_size=n)), dtype=np.int32) for n in lengths]
    return vocab, max_tokens, flows


@given(_id_rule_cases())
@settings(max_examples=80, deadline=None)
def test_token_matrix_and_tokenize_match_the_per_flow_reference(case):
    vocab, max_tokens, flows = case
    want = [tokenize_ref(codes, vocab, max_tokens, label=i) for i, codes in enumerate(flows)]
    packed = np.concatenate(flows) if flows else np.zeros(0, np.int32)
    ids = token_matrix(packed, [len(codes) for codes in flows], vocab, max_tokens)
    assert ids.dtype == np.int32 and ids.shape == (len(flows), max_tokens)
    assert ids.tolist() == [seq.ids.tolist() for seq in want]
    for i, (codes, ref) in enumerate(zip(flows, want)):
        seq = tokenize(codes, vocab, max_tokens, label=i)
        assert (seq.ids.dtype, seq.ids.tolist(), seq.valid_mask.tolist(), seq.label) == (
            ref.ids.dtype, ref.ids.tolist(), ref.valid_mask.tolist(), ref.label)


# Codes a serializer emits (every marker but [PAD], and bigrams), with a few bigrams common enough to pass min_freq.
_FLOW_CODE = st.sampled_from([PD_ID, PY_ID, END_ID, UNK_ID]) | st.integers(BIGRAM_BASE, BIGRAM_BASE + 30) | st.integers(
    BIGRAM_BASE, FULL_BIGRAM_VOCAB_SIZE - 1)


@pytest.fixture(scope="module")
def full_bigram_vocabs(tmp_path_factory):
    """The full-bigram vocabulary, as built and as loaded from its saved file."""
    vocab, path = build_vocabulary(mode="full_bigram"), tmp_path_factory.mktemp("vocab") / "full.tsv"
    vocab.save(path)
    return [vocab, Vocabulary.load(path)]


@given(st.lists(st.lists(_FLOW_CODE, max_size=30), min_size=1, max_size=5), st.integers(0, 4), st.integers(1, 24),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_only_the_pad_code_maps_to_pad_id_so_valid_slots_are_the_non_pad_ids(tmp_path_factory, full_bigram_vocabs,
                                                                               flows, min_freq, max_tokens, rnd):
    """Every vocabulary build_vocabulary (either mode, any min_freq) or Vocabulary.load returns maps the [PAD]
    code and no other to PAD_ID, so each tokenize row's valid slots are exactly its non-[PAD] ids."""
    flows = [np.array(f, dtype=np.int32) for f in flows]
    wordpiece = build_vocabulary(flows, mode="wordpiece", min_freq=min_freq)
    kept = np.flatnonzero(wordpiece.table >= BIGRAM_BASE)
    ids = BIGRAM_BASE + np.array(rnd.sample(range(kept.size), kept.size), dtype=np.int64)
    lines = [f"{m}\t{i}\n" for i, m in enumerate(MARKERS)] + [f"{c - BIGRAM_BASE:04x}\t{i}\n" for c, i in zip(kept, ids)]
    rnd.shuffle(lines)  # any line order and any dense ids load
    shuffled = tmp_path_factory.getbasetemp() / "pad-rule-shuffled.tsv"
    shuffled.write_text("".join(lines))
    saved = tmp_path_factory.getbasetemp() / "pad-rule-saved.tsv"
    wordpiece.save(saved)
    for vocab in [wordpiece, Vocabulary.load(saved), Vocabulary.load(shuffled), *full_bigram_vocabs]:
        assert np.flatnonzero(vocab.table == PAD_ID).tolist() == [MARKERS.index("[PAD]")]
        for row in flows:
            seq = tokenize(row, vocab, max_tokens)
            want = (np.arange(max_tokens) < len(row)).tolist()
            assert (seq.ids != PAD_ID).tolist() == seq.valid_mask.tolist() == want


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
            assert seq.n_valid <= cfg.packets_per_flow * cfg.tokens_per_packet + 1


def test_serializer_config_validation():
    with pytest.raises(ValueError):
        SerializerConfig(packets_per_flow=0)
    with pytest.raises(ValueError):
        SerializerConfig(bigram_stride=3)
    with pytest.raises(ValueError):
        SerializerConfig(max_tokens=10)  # cannot hold one packet + [END]


# -- temporal slicing ----------------------------------------------------------------------


def _timed_flow(times, label=7):
    return flow_of([(make_packet(ts=t), FORWARD) for t in times], label)


def sliced(flow, window_seconds):
    """``temporal_slice`` of one object flow, as object flows."""
    return sessions(temporal_slice(table_of([flow]), window_seconds))


def test_temporal_slice_clean_split():
    flow = _timed_flow([0, 1, 2, 10, 11, 12])
    parts = sliced(flow, window_seconds=5.0)
    assert len(parts) == 2
    assert [len(p.packets) for p in parts] == [3, 3]
    assert all(p.label == 7 and p.key == flow.key for p in parts)


def test_temporal_slice_single_window_identity():
    flow = _timed_flow([0.0, 0.5, 1.0, 1.5])
    parts = sliced(flow, window_seconds=10.0)
    assert len(parts) == 1
    assert [p for p, _ in parts[0].packets] == [p for p, _ in flow.packets]


def test_temporal_slice_discards_small_windows_unless_bypass():
    """Slicing discards no window however small, and has no bypass: ingest alone decides flow size."""
    flow = _timed_flow([0, 1, 2, 30])
    assert [len(p.packets) for p in sliced(flow, window_seconds=5.0)] == [3, 1]


def test_temporal_slice_bins_with_floor_division_not_floor_of_the_quotient():
    # 1.0 // 0.1 is 9.0 but floor(1.0 / 0.1) is 10.0, so the packets at 0.95 and 1.0 share window 9
    assert [len(p.packets) for p in sliced(_timed_flow([0.0, 0.95, 1.0]), window_seconds=0.1)] == [1, 2]


@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=30), st.floats(0.5, 20))
@settings(max_examples=60)
def test_temporal_slice_conservation(times, window):
    flow = _timed_flow(sorted(times))
    parts = sliced(flow, window_seconds=window)
    sliced_times = sorted(p.timestamp for part in parts for p, _ in part.packets)
    assert sliced_times == sorted(times)
    # brute-force binning oracle
    t0 = min(times)
    for part in parts:
        bins = {int((p.timestamp - t0) // window) for p, _ in part.packets}
        assert len(bins) == 1


# Senders: two endpoints of a conversation, one whose address is the other's with a byte more, and one
# that shares an address but not a port, so a direction turns on address bytes, length and port.
_SENDERS = [(b"\x0a\x00\x00\x01", 1111), (b"\x0a\x00\x00\x02", 2222), (b"\x0a\x00\x00\x01\x00", 1111),
            (b"\x0a\x00\x00\x01", 2222)]
# From t0 = 0, the sampled times whose window differs between ``//`` and floor(a / w): 0.5, 0.9, 1.0, 1.8 and
# 2.0 under 0.1, 1.0, 1.8 and 2.0 under 0.2, and 2.0 under 0.4.
_TIMES = st.sampled_from([0.0, 0.3, 0.5, 0.9, 0.95, 1.0, 1.8, 2.0]) | st.floats(0, 50)
_WINDOWS = st.sampled_from([0.1, 0.2, 0.4, 1.0]) | st.floats(1e-3, 100)


@st.composite
def unsorted_flows(draw):
    packets = []
    for ts, (src, sport), (dst, dport), stored in draw(st.lists(st.tuples(
            _TIMES, st.sampled_from(_SENDERS), st.sampled_from(_SENDERS), st.sampled_from([FORWARD, BACKWARD])),
            min_size=1, max_size=8)):
        packets.append((PacketRecord(ts, src, dst, sport, dport, 6, 0x18, 60, b""), stored))
    return flow_of(packets, draw(st.none() | st.integers(0, 9)))


@given(st.lists(unsorted_flows(), max_size=5), _WINDOWS)
@settings(max_examples=150, deadline=None)
def test_table_temporal_slice_matches_the_per_flow_reference(flows, window):
    got = sessions(temporal_slice(table_of(flows), window))
    assert got == [part for flow in flows for part in temporal_slice_ref(flow, window)]


def test_temporal_slice_rejects_bad_window():
    with pytest.raises(ValueError):
        temporal_slice(table_of([_timed_flow([0.0])]), window_seconds=0.0)


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
    write_corpus([TokenSequence(ids, label=3), TokenSequence(ids[::-1])], path)
    assert path.read_bytes() == b"label:3\t5 0 65540 17 2 2\n2 2 17 65540 0 5\n"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9a992a49042b37106ce8bbe9225922fa1f0fc717b234524e19b5e98ca273702a"
    )


def test_write_corpus_refuses_a_row_of_only_pad(tmp_path):
    ids = np.array([5, 17, 2], dtype=np.int32)
    with pytest.raises(ValueError, match=r"^sequence 1 has only \[PAD\] token IDs$"):
        write_corpus([TokenSequence(ids), TokenSequence(np.full(3, 2))], tmp_path / "c.txt")
    assert not (tmp_path / "c.txt").exists()


@pytest.mark.parametrize("text,message", [
    ("5 17\n\n5 17\n", ":2: no token IDs"),
    ("label:1\t5 17\nlabel:0\t2 2\n", ":2: every token ID is [PAD]"),
], ids=["blank-line", "only-pad"])
def test_read_corpus_rejects_a_line_write_corpus_never_writes(tmp_path, text, message):
    """Sequence i is line i + 1, so a blank line is an error, not skipped."""
    path = tmp_path / "c.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
        read_corpus(path)


_VALID_ID = st.integers(0, 65_540) | st.sampled_from([0, 65_540])
_LABEL = st.none() | st.integers(0, 2**31 - 1) | st.sampled_from([-1, 2**31, 7.5, True, np.int64(4), np.uint8(9)])


def _good_label(label) -> bool:
    return label is None or type(label) is not bool and isinstance(label, (int, np.integer)) and 0 <= label < 2**31


@st.composite
def _corpus_rows(draw):
    """Rows of one width and valid ids, then maybe one row swapped for an empty one, one of
    another width, one holding an id outside [0, 65,541), or one of only [PAD] ids."""
    width = draw(st.integers(1, 12))
    rows = draw(st.lists(st.tuples(st.lists(_VALID_ID, min_size=width, max_size=width), _LABEL), max_size=6))
    if rows and draw(st.booleans()):
        at = draw(st.integers(0, len(rows) - 1))
        ids, bad_id = rows[at][0], draw(st.sampled_from([65_541, 70_000, -1, 2**31 - 1, -(2**31)]))
        slot = draw(st.integers(0, width - 1))
        defects = [[], ids + ids[:1], ids[:slot] + [bad_id] + ids[slot + 1 :], [PAD_ID] * width]
        rows[at] = (draw(st.sampled_from(defects)), rows[at][1])
    return rows


@given(_corpus_rows())
@settings(max_examples=60, deadline=None)
def test_write_corpus_matches_str_join(tmp_path_factory, rows):
    """Valid rows are written as their str-join; the first empty row, row of another width than
    the first, id outside [0, 65,541), row of only [PAD] ids or label outside [0, 2**31) raises
    ValueError naming it and leaves the old file."""
    path = tmp_path_factory.getbasetemp() / "c.txt"
    sequences = [TokenSequence(np.array(ids, dtype=np.int32), label) for ids, label in rows]
    bad = [i for i, (ids, label) in enumerate(rows)
           if not ids or len(ids) != len(rows[0][0]) or not all(0 <= t < 65_541 for t in ids)
           or set(ids) == {PAD_ID} or not _good_label(label)]
    if bad:
        before = path.read_bytes() if path.exists() else None
        with pytest.raises(ValueError, match=rf"^sequence {bad[0]} "):
            write_corpus(iter(sequences), path)
        assert (path.read_bytes() if path.exists() else None) == before
        return
    assert write_corpus(iter(sequences), path) == len(sequences)
    expected = "".join(
        (f"label:{s.label}\t" if s.label is not None else "") + " ".join(map(str, s.ids.tolist())) + "\n"
        for s in sequences
    )
    assert path.read_text() == expected


@pytest.mark.parametrize("label", [-1, 2**31, 7.5, True, "3"])
def test_write_corpus_refuses_a_label_read_corpus_would_reject(tmp_path, label):
    path = tmp_path / "c.txt"
    path.write_text("label:1\t5 17\n")
    ids = np.array([5, 17], dtype=np.int32)
    sequences = [TokenSequence(ids, label=0), TokenSequence(ids, label=label)]
    with pytest.raises(ValueError, match=rf"^sequence 1 has label {re.escape(repr(label))}, not an integer"):
        write_corpus(sequences, path)
    assert path.read_text() == "label:1\t5 17\n"
    assert write_corpus([TokenSequence(ids, label=np.int64(2**31 - 1))], path) == 1
    assert read_corpus(path)[0].label == 2**31 - 1


def test_write_corpus_names_the_bad_label_of_a_row_whose_largest_id_is_pad(tmp_path):
    """[PAD] is id 2, so a row of [PAD] and a lower id is not all [PAD]: its label is the defect named."""
    with pytest.raises(ValueError, match=r"^sequence 0 has label -1, not an integer in \[0, 2\*\*31\)$"):
        write_corpus([TokenSequence(np.array([PAD_ID, 0], dtype=np.int32), label=-1)], tmp_path / "c.txt")


_PAD_OR_ID = st.sampled_from([PAD_ID, PAD_ID, 0, 5, 17, 65_540]) | _VALID_ID


@st.composite
def _chunked_rows(draw):
    """Rows of one width with interior, trailing or no [PAD], mixed labels, then maybe any one of
    the defects write_corpus refuses at any row; and 1-3 rows per chunk."""
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(st.lists(_PAD_OR_ID, min_size=width, max_size=width).filter(
        lambda ids: set(ids) != {PAD_ID}), st.none() | st.integers(0, 2**31 - 1)), min_size=1, max_size=9))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(rows) - 1))
        ids, label = rows[at]
        rows[at] = draw(st.sampled_from([
            ([], label), (ids + [5], label), (ids[:-1] + [65_541], label), (ids[:-1] + [-7], label),
            ([PAD_ID] * width, label), (ids, draw(st.sampled_from([-1, 2**31, 7.5, True]))),
        ]))
    return rows, draw(st.integers(1, 3))


@given(_chunked_rows())
@settings(max_examples=120, deadline=None)
def test_write_corpus_matches_the_per_line_reference_across_chunk_edges(tmp_path_factory, case):
    """Sequences and ``(ids, labels)`` chunks, written 1-3 rows per chunk, give the reference's
    bytes and count, or its error naming the sequence's index in the whole stream."""
    rows, per_chunk = case
    base = tmp_path_factory.getbasetemp()
    sequences = [TokenSequence(np.array(ids, dtype=np.int32), label) for ids, label in rows]

    def outcome(writer, items, path):
        path.write_bytes(b"old\n")
        try:
            return writer(items, path), path.read_bytes()
        except ValueError as exc:
            return str(exc), path.read_bytes()

    want = outcome(write_corpus_ref, iter(sequences), base / "ref.txt")
    width = len(rows[0][0])
    with mock.patch.object(tokenization, "CHUNK_IDS", per_chunk * width):
        assert outcome(write_corpus, iter(sequences), base / "seqs.txt") == want
        if all(len(ids) == width for ids, _ in rows):
            chunks = [(np.array([ids for ids, _ in rows[lo : lo + per_chunk]], dtype=np.int32),
                       [label for _, label in rows[lo : lo + per_chunk]]) for lo in range(0, len(rows), per_chunk)]
            assert outcome(write_corpus, iter(chunks), base / "chunks.txt") == want


def test_synth_labels_0_to_6_are_byte_identical_and_7_up_work(tmp_path):
    flows_to_pcap(synth_flows(21, n_classes=7, seed=11), tmp_path / "synth.pcap")
    digest = hashlib.sha256((tmp_path / "synth.pcap").read_bytes()).hexdigest()
    assert digest == "90a2b968c4ccb5b966fd9a17c8293b150157366b0fc874ba068c49a7c542e574"
    rng = np.random.default_rng(0)
    for label in (7, 12, 40):
        flow = synth_flow(rng, label=label, n_packets=5)
        alphabet = {(i * 13 + 37 * label) % 256 for i in range(16)}
        assert set(b"".join(p.payload for p in records(flow.packets))) <= alphabet


# Pieces of corpus text: ids a valid corpus holds, leading zeros, ids at and past 2**31 and past int64,
# one past int()'s digit limit, every ASCII space the line format takes, labels, and text it refuses.
_CORPUS_PIECES = st.sampled_from([
    "5", "17", "2", "2", "0", "65540", "007", "0000000005", "2147483647", "2147483648", "99999999999999999999",
    "0" * 4301 + "5", " ", " ", "  ", "\t", "\x0b", "\x0c", "\r", "label:", "label:3\t", "label:2147483648\t",
    "label:\t", "x", "é", "-1", "+5", " ", "١",
])


@given(st.lists(st.lists(_CORPUS_PIECES, max_size=8).map("".join), max_size=5), st.sampled_from(["\n", "\r\n", "\r"]),
       st.booleans(), st.sampled_from([b"", b"", b"\xff", b"\xc3"]))
@settings(max_examples=200, deadline=None)
def test_read_corpus_matches_the_per_line_reference(tmp_path_factory, lines, newline, trailing, tail):
    path = tmp_path_factory.getbasetemp() / "corpus-ref.txt"
    path.write_bytes((newline.join(lines) + (newline if trailing else "")).encode() + tail)

    def outcome(reader):
        try:
            return [(s.ids.dtype, s.ids.tolist(), s.valid_mask.tolist(), s.label) for s in reader(path)]
        except ValueError as exc:
            return type(exc).__name__, str(exc)

    assert outcome(read_corpus) == outcome(read_corpus_ref)
