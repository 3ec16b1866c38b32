"""Reference copies of ops the package has since fused or rewritten, kept for equivalence tests.

The engine references build the same graph node (or chain of nodes) the engine used to build, from
the engine's own primitives, so a test can check a fused op's output and gradients against it in
float64. The tokenizer references serialize one packet and parse one vocabulary line at a time.
"""

import math
import struct
from pathlib import Path

import numpy as np

from trafficmoe import tensor as T
from trafficmoe.flows import FORWARD
from trafficmoe.tokenization import BIGRAM_BASE, END_ID, FULL_BIGRAM_VOCAB_SIZE, MARKERS, PD_ID, PY_ID, UNK_ID


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
