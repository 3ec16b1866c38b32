"""Reference copies of ops the engine has since fused or rewritten, kept for equivalence tests.

Each builds the same graph node (or chain of nodes) the engine used to build, from the engine's
own primitives, so a test can check a fused op's output and gradients against it in float64.
"""

import math

import numpy as np

from trafficmoe import tensor as T


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
