"""Reference copies of ops the package has since fused or rewritten, kept for equivalence tests.

The engine references build the same graph node (or chain of nodes) the engine used to build, from
the engine's own primitives, so a test can check a fused op's output and gradients against it in
float64. The tokenizer references serialize one packet, parse one vocabulary line, map one flow to
ids and write one corpus line at a time. The flow references decode, group, slice, store and read one
``PacketRecord`` at a time, and the corpus reader reference parses one line at a time with a
regular expression and ``int``.

The package holds packets only as tables, so the object forms live here: ``PacketRecord`` (one
packet), ``FiveTuple`` (a canonical flow key) and ``RecordFlow`` (a keyed list of (record,
direction) pairs). ``packets_of`` and ``table_of`` turn objects into the package's tables, and
``records`` and ``sessions`` turn tables back into objects, so table results can be compared with
the references' object results.
"""

import math
import struct
import warnings
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from trafficmoe import tensor as T
from trafficmoe.artifacts import HEADER, BinaryReader, write_atomic
from trafficmoe.flows import (_LINKTYPE_ETHERNET, _LINKTYPE_RAW_IP, _MAGIC_NS_BE, _MAGIC_NS_LE, _MAGIC_US_BE,
                              _MAGIC_US_LE, _SIDECAR_MAGIC, _SIDECAR_VERSION, BACKWARD, FORWARD, MANIFEST_NAME,
                              PACKET_COLUMNS, PROTO_TCP, PROTO_UDP, SIDECAR_NAME, CaptureError, FlowTable, PacketTable,
                              check_labels, packet_error)
from trafficmoe.tokenization import (_CORPUS_LINE, _META, BIGRAM_BASE, END_ID, FULL_BIGRAM_VOCAB_SIZE, MARKERS,
                                     META_BYTES, PAD_ID, PD_ID, PY_ID, UNK_ID, SerializerConfig, TokenSequence,
                                     _ceil_div, _window_codes)

_FLOW = struct.Struct("<Ii")
_PACKET_HEAD = struct.Struct("<dBB")
_PACKET_TAIL = struct.Struct("<HHBBII")
# The packet attributes the metadata block is built from, as read off each PacketRecord.
_PACKET_FIELDS = np.dtype([("ts", "f8"), ("length", "i8"), ("dir", "i8"), ("flags", "i8"), ("proto", "i8"),
                           ("plen", "i8")])


@dataclass(frozen=True)
class PacketRecord:
    """One captured IP packet.

    ``total_length`` is the original frame size on the wire; ``payload``
    is the captured transport payload (after the TCP/UDP header, or the
    remainder of the datagram for portless protocols). ``tcp_flags`` is
    zero unless ``ip_proto`` is TCP.
    """

    timestamp: float
    src_ip: bytes
    dst_ip: bytes
    src_port: int
    dst_port: int
    ip_proto: int
    tcp_flags: int
    total_length: int
    payload: bytes

    def __post_init__(self):
        if error := packet_error(self.timestamp, self.total_length, len(self.payload), self.tcp_flags, self.ip_proto):
            raise ValueError(error)


@dataclass(frozen=True, order=True)
class FiveTuple:
    """Canonical bidirectional flow key: (ip_a, port_a) <= (ip_b, port_b)."""

    ip_a: bytes
    port_a: int
    ip_b: bytes
    port_b: int
    proto: int

    @classmethod
    def from_packet(cls, pkt: PacketRecord) -> "FiveTuple":
        a = (pkt.src_ip, pkt.src_port)
        b = (pkt.dst_ip, pkt.dst_port)
        if b < a:
            a, b = b, a
        return cls(a[0], a[1], b[0], b[1], pkt.ip_proto)


@dataclass
class RecordFlow:
    """A flow as objects: ``packets`` holds (record, direction) pairs; direction is FORWARD for
    packets sent by the same endpoint as the flow's first packet."""

    key: Optional[FiveTuple]
    packets: list[tuple[PacketRecord, int]]
    label: Optional[int] = None


def flow_of(pairs: list[tuple[PacketRecord, int]], label: Optional[int] = None) -> RecordFlow:
    """The (record, direction) pairs as a flow keyed by its first packet."""
    return RecordFlow(FiveTuple.from_packet(pairs[0][0]), pairs, label)


def packets_of(pairs: Iterable[tuple[PacketRecord, int]]) -> PacketTable:
    """(record, direction) pairs as a packet table over their joined bytes."""
    pairs = list(pairs)
    parts = [part for p, _ in pairs for part in (p.src_ip, p.dst_ip, p.payload)]
    sizes = np.fromiter(map(len, parts), np.int64, len(parts))
    at, sizes = (np.cumsum(sizes) - sizes).reshape(-1, 3), sizes.reshape(-1, 3)
    rows = np.fromiter(((p.timestamp, 0, 0, 0, 0, p.src_port, p.dst_port, p.ip_proto, p.tcp_flags, p.total_length,
                         0, 0, direction) for p, direction in pairs), PACKET_COLUMNS, len(pairs))
    for i, (offset, length) in enumerate((("src", "src_len"), ("dst", "dst_len"), ("payload", "plen"))):
        rows[offset], rows[length] = at[:, i], sizes[:, i]
    return PacketTable(b"".join(parts), rows)


def table_of(flows: Sequence[RecordFlow]) -> FlowTable:
    """Object flows as a flow table with their labels; a flow's key is read off its first packet there."""
    return FlowTable(packets_of(pair for f in flows for pair in f.packets),
                     np.array([len(f.packets) for f in flows], np.int64), [f.label for f in flows])


def rope_tables_ref(seq_len: int, head_dim: int, base: float = 10000.0):
    """cos/sin tables [seq_len, head_dim], each angle repeated for both features of its pair."""
    angles = np.arange(seq_len)[:, None] * base ** (-2.0 * np.arange(head_dim // 2) / head_dim)
    return (np.repeat(f(angles), 2, axis=1).astype(T.default_dtype()) for f in (np.cos, np.sin))


def rotary_ref(x, cos, sin):
    """Rotate each feature pair (x_{2i}, x_{2i+1}) by the angle whose cos/sin fill columns 2i, 2i+1."""
    turned = np.empty_like(x)
    turned[..., 0::2] = -x[..., 1::2]
    turned[..., 1::2] = x[..., 0::2]
    return x * cos + turned * sin


def rotary_attention_ref(qkv, lengths, n_heads):
    """``causal_attention`` with real-valued rotary tables, the scale applied to the scores and the
    probabilities normalised before ``probs @ v``."""
    qkv = T.as_tensor(qkv)
    n, d = qkv.shape[0], qkv.shape[-1] // 3
    hd, scale = d // n_heads, 1.0 / math.sqrt(d // n_heads)
    positions = np.concatenate([np.arange(length) for length in lengths])
    cos_rows, sin_rows = (np.tile(t[positions], 2 * n_heads) for t in rope_tables_ref(max(lengths), hd))

    def by_head(x):
        return x.reshape(n, -1, n_heads, hd).transpose(1, 2, 0, 3)

    (q, k), (v,) = by_head(rotary_ref(qkv.data[:, : 2 * d], cos_rows, sin_rows)), by_head(qkv.data[:, 2 * d :])
    future = np.triu(np.full((max(lengths),) * 2, -np.inf), 1)
    ends = np.cumsum(lengths)
    spans = list(zip(ends - lengths, ends))
    out, saved = np.empty((n, d)), []
    (out_heads,) = by_head(out)
    for lo, hi in spans:
        probs = q[:, lo:hi] @ k[:, lo:hi].swapaxes(1, 2) * scale + future[: hi - lo, : hi - lo]
        probs = np.exp(probs - probs.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        out_heads[:, lo:hi] = probs @ v[:, lo:hi]
        saved.append(probs)

    def backward(g):
        grad = np.empty(qkv.shape)
        (g,), (dq, dk, dv) = by_head(g), by_head(grad)
        for (lo, hi), probs in zip(spans, saved):
            dv[:, lo:hi] = probs.swapaxes(1, 2) @ g[:, lo:hi]
            dscores = g[:, lo:hi] @ v[:, lo:hi].swapaxes(1, 2)
            dscores = (dscores - np.sum(dscores * probs, axis=-1, keepdims=True)) * probs * scale
            dq[:, lo:hi] = dscores @ k[:, lo:hi]
            dk[:, lo:hi] = dscores.swapaxes(1, 2) @ q[:, lo:hi]
        grad[:, : 2 * d] = rotary_ref(grad[:, : 2 * d], cos_rows, -sin_rows)
        T._accumulate(qkv, grad)

    return T._build(out, (qkv,), backward)


def swiglu_chain_ref(x, w_gate, w_up, w_down):
    """SwiGLU as the five nodes matmul, silu, matmul, mul, matmul."""
    return T.matmul(T.mul(T.silu(T.matmul(x, w_gate)), T.matmul(x, w_up)), w_down)


def moe_experts_ref(z, scores, selected, experts):
    """``moe_experts`` as it was first fused: each expert writes its rows' slots of an ``[N, k, d]`` buffer
    that is summed over k, and backward sums an ``[N, k, d]`` input gradient the same way."""
    z, scores = T.as_tensor(z), T.as_tensor(scores)
    n, k = selected.shape
    parents = (z, scores) + tuple(w for weights in experts for w in weights)
    out, saved = np.empty((n, k, z.shape[1]), dtype=z.data.dtype), []
    for e, weights in enumerate(experts):
        rows, slots = np.nonzero(selected == e)
        if not len(rows):
            continue
        x, scale = z.data[rows], scores.data[rows, e][:, None]
        y, acts = T._swiglu_forward(x, *(w.data for w in weights), True)
        out[rows, slots] = y * scale
        saved.append((e, rows, slots, x, scale, acts, y))

    def backward(g):
        dx, dscores = np.empty((n, k, z.shape[1]), dtype=z.data.dtype), np.zeros_like(scores.data)
        for e, rows, slots, x, scale, acts, y in saved:
            g_rows = g[rows]
            dscores[rows, e] = np.sum(g_rows * y, axis=1)
            dx[rows, slots], *grads = T._swiglu_backward(g_rows * scale, x, *(w.data for w in experts[e]), acts)
            for w, grad in zip(experts[e], grads):
                if w.requires_grad:
                    T._accumulate(w, grad)
        for t, grad in ((z, dx.sum(axis=1)), (scores, dscores)):
            if t.requires_grad:
                T._accumulate(t, grad)

    return T._build(out.sum(axis=1), parents, backward)


def rsqrt_mean_square_ref(x, eps: float = 1e-6):
    """Per-row 1/sqrt(mean(x^2) + eps) over the last axis, keepdims, as one node."""
    x = T.as_tensor(x)
    inv = 1.0 / np.sqrt(np.mean(np.square(x.data), axis=-1, keepdims=True) + eps)

    def backward(g):
        if x.requires_grad:
            T._accumulate(x, g * (-(inv**3) * x.data / x.shape[-1]))

    return T._build(inv, (x,), backward)


def rmsnorm_chain_ref(x, gain, eps: float = 1e-6):
    """RMSNorm as the three nodes rsqrt_mean_square, mul, mul."""
    return T.mul(T.mul(x, rsqrt_mean_square_ref(x, eps)), gain)


def weighted_cross_entropy_ref(logits, targets, weights):
    """Weighted mean of -log softmax(logits)[target] over rows, as one node."""
    logits = T.as_tensor(logits)
    n, w = logits.shape[0], np.asarray(weights, logits.data.dtype)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(shifted), axis=-1))
    loss = -float(np.sum(w * (shifted[np.arange(n), targets] - logsumexp))) / float(w.sum())

    def backward(g):
        probs = np.exp(shifted - logsumexp[:, None])
        probs[np.arange(n), targets] -= 1.0
        T._accumulate(logits, probs * (w / w.sum())[:, None] * g)

    return T._build(np.asarray(loss, logits.data.dtype), (logits,), backward)


def flops_per_sequence_ref(config, seq_len: int, mode: str = "classify") -> int:
    """Closed-form matmul FLOPs of one sequence's forward, an oracle for ``T.matmul_flops()``.

    ``mode`` is a forward mode, or ``lm`` for the ``hidden`` states times the vocab head.
    """
    d = config.d_model
    attn = 8 * seq_len * d * d + 4 * seq_len * seq_len * d
    if config.ffn_kind == "moe":
        router = 2 * d * config.n_experts + 2 * d
        ffn = router + 6 * d * config.ffn_hidden + 6 * d * config.expert_hidden * config.top_k
    else:
        ffn = 6 * d * config.dense_hidden
    total = config.n_layers * (attn + seq_len * ffn)
    if mode == "lm":
        total += 2 * seq_len * d * config.vocab_size
    elif mode == "classify":
        total += 2 * seq_len * d + 2 * d * d + 2 * d * config.num_classes
    return total


def serialize_packet_ref(pkt, direction, prev_timestamp=None, payload_bytes=40):
    """One packet's 11 metadata bytes and payload sample, packed field by field with ``struct``."""
    if prev_timestamp is None:
        iat_us = 0
    else:
        iat_us = int(round(max(pkt.timestamp - prev_timestamp, 0.0) * 1e6))
        iat_us = min(iat_us, 2**32 - 1)
    meta = struct.pack(
        ">HBBIBH",
        min(pkt.total_length, 0xFFFF),
        0 if direction == FORWARD else 1,
        pkt.tcp_flags & 0xFF,
        iat_us,
        pkt.ip_proto & 0xFF,
        min(len(pkt.payload), 0xFFFF),
    )
    return meta, pkt.payload[:payload_bytes]


def bigram_codes_ref(data: bytes, stride: int) -> list[int]:
    """Codes of one region's 2-byte windows at offsets 0, stride, ...; a lone trailing byte pairs with 0."""
    n, padded = len(data), data + b"\x00"
    return [BIGRAM_BASE + (hi << 8 | lo) for hi, lo in zip(padded[:n:stride], padded[1 : n + 1 : stride])]


def serialize_flow_ref(flow, cfg) -> np.ndarray:
    """``serialize_flow`` one packet at a time: ``[PD] <meta> [PY] <payload>`` per packet, then ``[END]``."""
    codes, prev_ts = [], None
    for pkt, direction in flow.packets[: cfg.packets_per_flow]:
        meta, sample = serialize_packet_ref(pkt, direction, prev_ts, cfg.payload_bytes)
        prev_ts = pkt.timestamp
        codes += [PD_ID, *bigram_codes_ref(meta, cfg.bigram_stride), PY_ID, *bigram_codes_ref(sample, cfg.bigram_stride)]
    return np.array(codes + [END_ID], dtype=np.int32)


def load_vocabulary_ref(path) -> np.ndarray:
    """``Vocabulary.load``'s code -> id table, parsed one line at a time with str methods."""
    line_of = [0] * FULL_BIGRAM_VOCAB_SIZE  # code -> the line that defined it
    codes, ids = [], []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        tok, tab, id_txt = line.partition("\t")
        if not (tab and id_txt.isascii() and id_txt.isdecimal()):
            if line:
                raise ValueError(f"{path}:{lineno}: expected token<TAB>id, got {line!r}")
            continue
        if len(tok) == 4 and not tok.strip("0123456789abcdef"):  # four lowercase hex digits
            code = BIGRAM_BASE + int(tok, 16)
        elif tok in MARKERS:
            code = MARKERS.index(tok)
        else:
            raise ValueError(f"{path}:{lineno}: token {tok!r} is neither a marker nor four lowercase hex digits")
        if line_of[code]:
            raise ValueError(f"{path}:{lineno}: token {tok!r} repeats line {line_of[code]}")
        line_of[code] = lineno
        codes.append(code)
        ids.append(int(id_txt))
    if sorted(ids) != list(range(len(ids))):
        raise ValueError(f"{path}: vocabulary ids must be dense in [0, size)")
    table = np.full(FULL_BIGRAM_VOCAB_SIZE, -1, dtype=np.int32)
    table[codes] = ids
    if table[:BIGRAM_BASE].tolist() != list(range(BIGRAM_BASE)):
        raise ValueError(f"{path}: markers {' '.join(MARKERS)} must map to ids 0-4")
    table[table < 0] = UNK_ID
    return table


def parse_capture_ref(capture_bytes: bytes) -> list[PacketRecord]:
    """Parse a classic capture stream into packet records.

    Accepts both byte orders and both timestamp resolutions. Non-IP
    frames (ARP etc.) are skipped. A malformed global header or an
    unsupported link type is a hard error; a truncated trailing record
    is dropped with a warning.
    """
    if len(capture_bytes) < 24:
        raise CaptureError(
            f"malformed global header at offset 0: need 24 bytes, have {len(capture_bytes)}"
        )
    magic = struct.unpack_from(">I", capture_bytes, 0)[0]
    if magic == _MAGIC_US_BE:
        endian, ns = ">", False
    elif magic == _MAGIC_US_LE:
        endian, ns = "<", False
    elif magic == _MAGIC_NS_BE:
        endian, ns = ">", True
    elif magic == _MAGIC_NS_LE:
        endian, ns = "<", True
    else:
        raise CaptureError(f"malformed global header at offset 0: unknown magic 0x{magic:08X}")
    linktype = struct.unpack_from(endian + "I", capture_bytes, 20)[0]
    if linktype not in (_LINKTYPE_ETHERNET, _LINKTYPE_RAW_IP):
        raise CaptureError(f"unsupported link type {linktype}")

    records: list[PacketRecord] = []
    offset = 24
    total = len(capture_bytes)
    frac_div = 1e9 if ns else 1e6
    while offset < total:
        if offset + 16 > total:
            warnings.warn(f"truncated record header at offset {offset}; record dropped")
            break
        ts_sec, ts_frac, incl_len, orig_len = struct.unpack_from(endian + "IIII", capture_bytes, offset)
        offset += 16
        if offset + incl_len > total:
            warnings.warn(f"truncated record data at offset {offset}; record dropped")
            break
        frame = capture_bytes[offset : offset + incl_len]
        offset += incl_len
        rec = _parse_frame_ref(frame, linktype, ts_sec + ts_frac / frac_div, orig_len)
        if rec is not None:
            records.append(rec)
    return records


def _parse_frame_ref(frame: bytes, linktype: int, timestamp: float, orig_len: int) -> Optional[PacketRecord]:
    if linktype == _LINKTYPE_ETHERNET:
        if len(frame) < 14:
            return None
        ethertype = struct.unpack_from(">H", frame, 12)[0]
        ip_off = 14
        # Traverse one VLAN tag if present.
        if ethertype in (0x8100, 0x88A8):
            if len(frame) < 18:
                return None
            ethertype = struct.unpack_from(">H", frame, 16)[0]
            ip_off = 18
        if ethertype == 0x0800:
            return _parse_ip_ref(frame[ip_off:], 4, timestamp, orig_len)
        if ethertype == 0x86DD:
            return _parse_ip_ref(frame[ip_off:], 6, timestamp, orig_len)
        return None  # non-IP frame
    # Raw-IP link: version nibble decides the family.
    if not frame:
        return None
    version = frame[0] >> 4
    if version in (4, 6):
        return _parse_ip_ref(frame, version, timestamp, orig_len)
    return None


def _parse_ip_ref(dgram: bytes, version: int, timestamp: float, orig_len: int) -> Optional[PacketRecord]:
    if version == 4:
        if len(dgram) < 20:
            return None
        header_len = (dgram[0] & 0x0F) * 4
        if header_len < 20 or len(dgram) < header_len:
            return None
        # The IP total-length field bounds the datagram; bytes beyond it
        # are link-layer padding, not payload.
        ip_total = struct.unpack_from(">H", dgram, 2)[0]
        if header_len <= ip_total < len(dgram):
            dgram = dgram[:ip_total]
        proto = dgram[9]
        src_ip, dst_ip = dgram[12:16], dgram[16:20]
        transport = dgram[header_len:]
    else:
        if len(dgram) < 40:
            return None
        # Extension headers are not traversed; proto comes from Next Header.
        payload_len = struct.unpack_from(">H", dgram, 4)[0]
        if 40 + payload_len < len(dgram):
            dgram = dgram[: 40 + payload_len]
        proto = dgram[6]
        src_ip, dst_ip = dgram[8:24], dgram[24:40]
        transport = dgram[40:]

    src_port = dst_port = 0
    tcp_flags = 0
    payload = b""
    if proto == PROTO_TCP and len(transport) >= 20:
        src_port, dst_port = struct.unpack_from(">HH", transport, 0)
        data_off = (transport[12] >> 4) * 4
        tcp_flags = transport[13]
        if data_off >= 20:
            payload = transport[data_off:]
    elif proto == PROTO_UDP and len(transport) >= 8:
        src_port, dst_port = struct.unpack_from(">HH", transport, 0)
        payload = transport[8:]
    else:
        payload = transport

    return PacketRecord(
        timestamp=timestamp,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        ip_proto=proto,
        tcp_flags=tcp_flags,
        total_length=max(orig_len, len(payload)),
        payload=payload,
    )


def write_pcap_ref(packets: Sequence[PacketRecord]) -> bytes:
    """A classic little-endian microsecond capture of Ethernet frames holding TCP over IPv4, packed one
    packet at a time with ``struct``."""
    blob = bytearray(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, _LINKTYPE_ETHERNET))
    for pkt in packets:
        tcp = struct.pack(">HHIIBBHHH", pkt.src_port, pkt.dst_port, 0, 0, 5 << 4, pkt.tcp_flags, 65535, 0, 0)
        ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 40 + len(pkt.payload), 0, 0, 64, pkt.ip_proto, 0, pkt.src_ip,
                         pkt.dst_ip)
        frame = bytes.fromhex("020000000002020000000001") + struct.pack(">H", 0x0800) + ip + tcp + pkt.payload
        sec = int(pkt.timestamp)
        usec = int(round((pkt.timestamp - sec) * 1e6))
        if usec >= 1_000_000:
            sec, usec = sec + 1, usec - 1_000_000
        blob += struct.pack("<IIII", sec, usec, len(frame), max(pkt.total_length, len(frame))) + frame
    return bytes(blob)


def records(table: PacketTable) -> list[PacketRecord]:
    """Each packet of a table as a PacketRecord."""
    d = table.data
    return [PacketRecord(ts, d[src : src + n_src], d[dst : dst + n_dst], sport, dport, proto, flags, length,
                         d[pay : pay + n_pay])
            for ts, src, n_src, dst, n_dst, sport, dport, proto, flags, length, pay, n_pay, _ in table.rows.tolist()]


def sessions(flows: FlowTable) -> list[RecordFlow]:
    """Each flow of a table as a RecordFlow, keyed as the table keys it."""
    pairs = list(zip(records(flows.packets), flows.packets.rows["dir"].tolist()))
    ends = np.cumsum(flows.counts).tolist()
    return [RecordFlow(FiveTuple(*key), pairs[end - n : end], label)
            for key, n, end, label in zip(flows.key_fields(), flows.counts.tolist(), ends, flows.labels)]


def directed(pkts: list[PacketRecord]) -> list[tuple[PacketRecord, int]]:
    """Pair each packet with its direction: FORWARD when sent by the first packet's sender."""
    origin_ip, origin_port = pkts[0].src_ip, pkts[0].src_port
    return [(p, FORWARD if p.src_port == origin_port and p.src_ip == origin_ip else BACKWARD) for p in pkts]


def temporal_slice_ref(flow: RecordFlow, window_seconds: float) -> list[RecordFlow]:
    """Cut one flow into fixed-duration sub-flows inheriting its label.

    Packets are binned into half-open windows [t0 + i*w, t0 + (i+1)*w), and
    each non-empty window becomes one sub-flow, however few its packets: the
    sub-flows partition the flow. Directions and keys are re-derived from
    each sub-flow's first packet.
    """
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    t0 = flow.packets[0][0].timestamp
    bins: dict[int, list[PacketRecord]] = {}
    for pkt, _ in flow.packets:
        bins.setdefault(int((pkt.timestamp - t0) // window_seconds), []).append(pkt)
    return [flow_of(directed(pkts), flow.label) for _, pkts in sorted(bins.items())]


def reassemble_sessions_ref(packets: Iterable[PacketRecord]) -> list[RecordFlow]:
    """Group packets into bidirectional flows keyed by canonical five-tuple.

    Every input packet lands in exactly one flow. Within a flow, packets
    are sorted by timestamp (capture order breaks ties) and directions
    are assigned relative to the first packet's sender. Flows are
    returned in order of first appearance in the capture.
    """
    groups: dict[tuple, list[PacketRecord]] = {}  # ((ip, port), (ip, port), proto), lower end first
    for pkt in packets:
        a, b = (pkt.src_ip, pkt.src_port), (pkt.dst_ip, pkt.dst_port)
        groups.setdefault((a, b, pkt.ip_proto) if a <= b else (b, a, pkt.ip_proto), []).append(pkt)

    flows = []
    for ((ip_a, port_a), (ip_b, port_b), proto), pkts in groups.items():
        pkts.sort(key=attrgetter("timestamp"))  # stable, so capture order breaks ties
        flows.append(RecordFlow(FiveTuple(ip_a, port_a, ip_b, port_b, proto), directed(pkts)))
    return flows


def write_flows_ref(flows: list[RecordFlow], out_dir: str | Path) -> None:
    """Write the manifest/sidecar pair for a flow list, each flow under its own key, a flow of no
    packets too; ``check_labels`` runs before anything is written."""
    check_labels(table_of(flows))
    lines = []
    blob = bytearray(_SIDECAR_MAGIC + HEADER.pack(_SIDECAR_VERSION, len(flows)))
    for flow in flows:
        k, n = flow.key, len(flow.packets)
        label_txt = "-" if flow.label is None else str(flow.label)
        lines.append(f"{k.ip_a.hex()}\t{k.port_a}\t{k.ip_b.hex()}\t{k.port_b}\t{k.proto}\t{n}\t{label_txt}\n")
        blob += _FLOW.pack(n, -1 if flow.label is None else flow.label)
        for pkt, direction in flow.packets:
            blob += _PACKET_HEAD.pack(pkt.timestamp, direction, len(pkt.src_ip))
            blob += pkt.src_ip + pkt.dst_ip
            blob += _PACKET_TAIL.pack(pkt.src_port, pkt.dst_port, pkt.ip_proto, pkt.tcp_flags,
                                      pkt.total_length, len(pkt.payload))
            blob += pkt.payload
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / MANIFEST_NAME, lines)
    write_atomic(out / SIDECAR_NAME, blob)


def read_flows_ref(in_dir: str | Path) -> list[RecordFlow]:
    """Read back a flow list written by :func:`write_flows`.

    A malformed or truncated sidecar raises :class:`CaptureError` naming
    the file and the byte offset where the failing record starts.
    """
    flows = []
    with BinaryReader.open(Path(in_dir) / SIDECAR_NAME, _SIDECAR_MAGIC, _SIDECAR_VERSION, CaptureError) as r:
        for _ in r.records(r.count):
            n_pkts, label = r.unpack(_FLOW)
            if n_pkts == 0:
                raise ValueError("flow record has no packets")
            packets = []
            for _ in r.records(n_pkts):
                ts, direction, ip_len = r.unpack(_PACKET_HEAD)
                src_ip, dst_ip = r.take(ip_len), r.take(ip_len)
                sport, dport, proto, flags, total_len, payload_len = r.unpack(_PACKET_TAIL)
                pkt = PacketRecord(ts, src_ip, dst_ip, sport, dport, proto, flags, total_len, r.take(payload_len))
                packets.append((pkt, direction))
            flows.append(flow_of(packets, None if label < 0 else label))
        r.end()
    return flows


def serialize_flows_ref(flows: Sequence[RecordFlow], cfg: SerializerConfig) -> list[np.ndarray]:
    """Serialize flows into their ``int32`` code sequences, one array per flow. The first
    ``packets_per_flow`` packets of a flow each contribute ``[PD] <meta bigrams> [PY] <payload
    bigrams>`` (the payload's first ``payload_bytes`` bytes), and ``[END]`` ends the flow."""
    k, j, stride = cfg.packets_per_flow, cfg.payload_bytes, cfg.bigram_stride
    heads = [f.packets[:k] for f in flows]
    counts = np.array([len(h) for h in heads], dtype=np.int64)
    if not counts.all():
        raise ValueError("cannot serialize an empty flow")
    pairs = [pair for head in heads for pair in head]
    fields = np.fromiter(((p.timestamp, p.total_length, d, p.tcp_flags, p.ip_proto, len(p.payload)) for p, d in pairs),
                         _PACKET_FIELDS, len(pairs))
    firsts = np.cumsum(counts) - counts  # each flow's first packet
    iat_us = np.rint(np.maximum(np.diff(fields["ts"], prepend=0.0), 0.0) * 1e6)
    iat_us[firsts] = 0
    meta = np.zeros(len(pairs), _META)
    for name, column in zip(_META.names, (
        np.minimum(fields["length"], 0xFFFF), fields["dir"] != FORWARD, fields["flags"] & 0xFF,
        np.minimum(iat_us, 2**32 - 1), fields["proto"] & 0xFF, np.minimum(fields["plen"], 0xFFFF),
    )):
        meta[name] = column
    payloads = np.frombuffer(b"".join([p.payload[:j].ljust(j, b"\0") for p, _ in pairs]), np.uint8)

    # One row per packet: [PD] meta [PY] payload, then [END], kept on each flow's last packet only.
    n_meta = _ceil_div(META_BYTES, stride)
    rows = np.empty((len(pairs), n_meta + _ceil_div(j, stride) + 3), dtype=np.int32)
    rows[:, 0], rows[:, n_meta + 1], rows[:, -1] = PD_ID, PY_ID, END_ID
    rows[:, 1 : n_meta + 1] = _window_codes(meta.view(np.uint8).reshape(len(pairs), META_BYTES), stride)
    rows[:, n_meta + 2 : -1] = _window_codes(payloads.reshape(len(pairs), j), stride)
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, n_meta + 2 : -1] = np.arange(0, j, stride) < np.minimum(fields["plen"], j)[:, None]
    keep[:, -1] = False
    keep[firsts + counts - 1, -1] = True
    codes = rows[keep]
    ends = np.cumsum(np.add.reduceat(keep.sum(axis=1), firsts)).tolist()
    return [codes[lo:hi] for lo, hi in zip([0] + ends, ends)]


def tokenize_ref(codes: np.ndarray, vocab, max_tokens: int, label: Optional[int] = None) -> TokenSequence:
    """Map one flow's code sequence to a fixed-length ID sequence: bigrams outside the vocabulary
    become [UNK], an overlong sequence is cut to ``max_tokens`` with the final kept slot rewritten
    to [END], and a short one is padded with [PAD]."""
    n_valid = min(len(codes), max_tokens)
    ids = np.full(max_tokens, PAD_ID, dtype=np.int32)
    ids[:n_valid] = vocab.table[codes[:n_valid]]
    if len(codes) > max_tokens:
        ids[-1] = END_ID
    return TokenSequence(ids=ids, label=label)


def write_corpus_ref(sequences: Iterable[TokenSequence], path: str | Path) -> int:
    """Write one line per sequence, checked and formatted one sequence at a time; return the line
    count. An empty sequence, an id count unlike the first sequence's, a token id outside
    [0, 65,541), a sequence of only [PAD] ids or a label that is not an int in [0, 2**31) (a bool
    is not) raises ValueError naming the sequence, and any previous file at ``path`` stays."""
    count = 0

    def lines():
        nonlocal count
        width = 0  # the first sequence's id count
        for i, seq in enumerate(sequences):
            ids, width, label = seq.ids, width or seq.ids.size, seq.label
            if not ids.size:
                raise ValueError(f"sequence {i} has no token IDs")
            if ids.size != width:
                raise ValueError(f"sequence {i} has {ids.size} token IDs, but sequence 0 has {width}")
            low, high = ids.min(), ids.max()
            if low < 0 or high >= FULL_BIGRAM_VOCAB_SIZE:
                raise ValueError(f"sequence {i} holds token id {low if low < 0 else high}, "
                                 f"outside [0, {FULL_BIGRAM_VOCAB_SIZE})")
            if high == PAD_ID == low:
                raise ValueError(f"sequence {i} has only [PAD] token IDs")
            if label is not None and (isinstance(label, bool) or not isinstance(label, (int, np.integer))
                                      or not 0 <= label < 2**31):
                raise ValueError(f"sequence {i} has label {label!r}, not an integer in [0, 2**31)")
            head = f"label:{label}\t" if label is not None else ""
            yield head + " ".join(map(str, ids.tolist())) + "\n"
            count += 1

    write_atomic(path, lines())
    return count


def read_corpus_ref(path: str | Path) -> list[TokenSequence]:
    """Read the sequences of a corpus file; sequence i is line i + 1. A label or token ID that is
    not ASCII digits or not below 2**31, a line with no IDs (a blank line is one), a line of only
    [PAD] IDs, or one whose ID count differs from the first line's raises ValueError naming the
    file and line."""
    sequences = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                match = _CORPUS_LINE.fullmatch(line.rstrip("\n"))
                if not match:
                    raise ValueError("expected an optional `label:<id><TAB>`, then ids, all in ASCII digits")
                label = None if match[1] is None else int(np.int32(match[1]))
                ids = np.array([int(tok) for tok in match[2].split()], dtype=np.int32)
                if not ids.size:
                    raise ValueError("no token IDs")
                if sequences and ids.size != len(sequences[0]):
                    raise ValueError(f"{ids.size} token IDs, but line 1 has {len(sequences[0])}")
                valid = ids != PAD_ID
                if not valid.any():
                    raise ValueError("every token ID is [PAD]")
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            sequences.append(TokenSequence(ids=ids, label=label))
    return sequences
