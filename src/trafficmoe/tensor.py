"""Dense-tensor engine with reverse-mode automatic differentiation.

Values live in numpy arrays (float32 by default, float64 switchable for
tight gradient checks); the graph is built eagerly by op functions that
attach backward closures. Single-threaded per graph; independent graphs
are independent.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .artifacts import HEADER, BinaryReader, write_atomic


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


_default_dtype = np.float32
_grad_enabled = True
_debug_checks = False
_flop_count = 0
_alloc_bytes = 0


def default_dtype():
    return _default_dtype


@contextmanager
def use_dtype(dtype):
    """Temporarily switch the storage dtype (float64 for gradient checks)."""
    global _default_dtype
    if dtype not in (np.float32, np.float64):
        raise ValueError("dtype must be float32 or float64")
    prev, _default_dtype = _default_dtype, dtype
    try:
        yield
    finally:
        _default_dtype = prev


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def set_debug_checks(flag: bool) -> None:
    """Toggle per-op finiteness assertions on forward outputs."""
    global _debug_checks
    _debug_checks = bool(flag)


def reset_flops() -> None:
    global _flop_count
    _flop_count = 0


def matmul_flops() -> int:
    """Multiply-accumulate FLOPs (2*m*n*k) executed since the last reset."""
    return _flop_count


def reset_alloc_bytes() -> None:
    global _alloc_bytes
    _alloc_bytes = 0


def alloc_bytes() -> int:
    """Bytes of forward activations allocated since the last reset."""
    return _alloc_bytes


class Tensor:
    """A numpy array plus an optional gradient buffer and backward hook."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        arr = np.asarray(data)
        if arr.dtype != _default_dtype:
            arr = arr.astype(_default_dtype)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    # -- basics ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.shape}, grad={self.requires_grad}{tag})"

    # -- autodiff ----------------------------------------------------------

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode accumulation from this node."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data) if grad is None else np.asarray(grad, self.data.dtype)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _accumulate(param: Tensor, grad: np.ndarray) -> None:
    if param.grad is None:
        param.grad = np.zeros_like(param.data)
    param.grad += grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _build(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    if _debug_checks and not np.all(np.isfinite(data)):
        raise FloatingPointError("non-finite value produced by a forward op")
    global _alloc_bytes
    _alloc_bytes += data.nbytes
    out = Tensor.__new__(Tensor)
    out.data = data if data.dtype == _default_dtype else data.astype(_default_dtype)
    out.grad = None
    out.name = None
    needs = _grad_enabled and any(p.requires_grad for p in parents)
    out.requires_grad = needs
    if needs:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    else:
        out._parents = ()
        out._backward_fn = None
    return out


# -- elementwise and broadcast ops -------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _build(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _build(data, (a, b), backward)


def _logistic(x: np.ndarray) -> np.ndarray:
    # exp(-x) overflows to inf for very negative x, and 1/(1+inf) = 0 is the exact limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def silu(x) -> Tensor:
    x = as_tensor(x)
    sig = _logistic(x.data)
    data = x.data * sig

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g * (sig * (1.0 + x.data * (1.0 - sig))))

    return _build(data, (x,), backward)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    sig = _logistic(x.data)

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g * sig * (1.0 - sig))

    return _build(sig, (x,), backward)


def softmax_lastdim(x) -> Tensor:
    """Row softmax over the last axis, numerically stabilized."""
    x = as_tensor(x)
    logits = x.data
    row_max = np.max(logits, axis=-1, keepdims=True)
    exps = np.exp(logits - row_max)
    probs = exps / np.sum(exps, axis=-1, keepdims=True)
    probs = probs.astype(logits.dtype, copy=False)

    def backward(g):
        if x.requires_grad:
            inner = np.sum(g * probs, axis=-1, keepdims=True)
            _accumulate(x, probs * (g - inner))

    return _build(probs, (x,), backward)


def rsqrt_mean_square(x, eps: float = 1e-6) -> Tensor:
    """Per-row 1/sqrt(mean(x^2) + eps) over the last axis, keepdims."""
    x = as_tensor(x)
    d = x.shape[-1]
    ms = np.mean(np.square(x.data), axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + eps)

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g * (-(inv**3) * x.data / d))

    return _build(inv.astype(x.data.dtype), (x,), backward)


def tsum(x, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    data = np.sum(x.data, axis=axis, keepdims=keepdims)

    def backward(g):
        if x.requires_grad:
            grad = np.asarray(g)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            _accumulate(x, np.broadcast_to(grad, x.shape).astype(x.data.dtype))

    return _build(np.asarray(data), (x,), backward)


def tmean(x, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    count = x.data.size if axis is None else x.shape[axis]
    data = np.mean(x.data, axis=axis, keepdims=keepdims)

    def backward(g):
        if x.requires_grad:
            grad = np.asarray(g) / count
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            _accumulate(x, np.broadcast_to(grad, x.shape).astype(x.data.dtype))

    return _build(np.asarray(data), (x,), backward)


def reshape(x, shape: tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    data = x.data.reshape(shape)

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g.reshape(x.shape))

    return _build(data, (x,), backward)


# -- linear algebra ----------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    global _flop_count
    _flop_count += 2 * a.shape[0] * a.shape[1] * b.shape[1]
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _build(data, (a, b), backward)


def concat_cols(parts: Iterable[Tensor]) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    widths = [p.shape[-1] for p in parts]
    data = np.concatenate([p.data for p in parts], axis=-1)
    offsets = np.cumsum([0] + widths)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accumulate(p, g[..., lo:hi])

    return _build(data, tuple(parts), backward)


def concat_rows(parts: Iterable[Tensor]) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    heights = [p.shape[0] for p in parts]
    data = np.concatenate([p.data for p in parts], axis=0)
    offsets = np.cumsum([0] + heights)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accumulate(p, g[lo:hi])

    return _build(data, tuple(parts), backward)


# -- indexing ----------------------------------------------------------------


def gather_rows(x, indices) -> Tensor:
    """Select rows by integer index; duplicates accumulate in backward."""
    x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)
    data = x.data[idx]

    def backward(g):
        if x.requires_grad:
            grad = np.zeros_like(x.data)
            np.add.at(grad, idx, g)
            _accumulate(x, grad)

    return _build(data, (x,), backward)


def scatter_rows(values, indices, num_rows: int) -> Tensor:
    """Place rows at the given indices of a zero matrix (duplicates add)."""
    values = as_tensor(values)
    idx = np.asarray(indices, dtype=np.int64)
    data = np.zeros((num_rows,) + values.shape[1:], dtype=values.data.dtype)
    np.add.at(data, idx, values.data)

    def backward(g):
        if values.requires_grad:
            _accumulate(values, g[idx])

    return _build(data, (values,), backward)


def rotary(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate each feature pair (x_{2i}, x_{2i+1}) by the angle whose cos/sin fill
    columns 2i and 2i+1; ``rotary(y, cos, -sin)`` rotates back (and is the gradient)."""
    turned = np.empty_like(x)
    turned[..., 0::2] = -x[..., 1::2]
    turned[..., 1::2] = x[..., 0::2]
    return x * cos + turned * sin


# -- attention and mixture of experts ---------------------------------------------


def causal_attention(qkv, lengths: Sequence[int], n_heads: int, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary causal multi-head attention over packed sequences.

    ``qkv`` is ``[N, 3d]`` = ``[q | k | v]``, heads side by side within each
    part. Sequence b is the next ``lengths[b]`` (>= 1) rows, and each row
    attends to itself and the earlier rows of its own sequence only. q and k
    are rotated by ``rotary`` at each row's position in its sequence, from
    ``cos``/``sin`` tables ``[>= max(lengths), d / n_heads]``. Returns
    ``softmax(q k^T / sqrt(head_dim)) v`` as ``[N, d]``, one 3-D block of all
    heads per sequence, and counts its 4*L*L*d matmul FLOPs per sequence.
    """
    qkv = as_tensor(qkv)
    lengths = [int(length) for length in lengths]
    n, d = qkv.shape[0], qkv.shape[-1] // 3
    if qkv.shape != (sum(lengths), 3 * d) or d % n_heads or min(lengths) < 1:
        raise ShapeError(f"causal_attention: qkv {qkv.shape} does not hold {n_heads} heads over lengths {lengths}")
    hd, scale = d // n_heads, 1.0 / math.sqrt(d // n_heads)
    positions = np.concatenate([np.arange(length) for length in lengths])
    cos_rows, sin_rows = (np.tile(table[positions], 2 * n_heads) for table in (cos, sin))

    def by_head(x):  # [N, parts * d] -> one [n_heads, N, hd] array per part, a view where reshape allows
        return x.reshape(n, -1, n_heads, hd).transpose(1, 2, 0, 3)

    (q, k), (v,) = by_head(rotary(qkv.data[:, : 2 * d], cos_rows, sin_rows)), by_head(qkv.data[:, 2 * d :])
    future = np.triu(np.full((max(lengths),) * 2, -np.inf, dtype=qkv.data.dtype), 1)  # 0 on and below the diagonal
    ends = np.cumsum(lengths)
    spans = list(zip(ends - lengths, ends))
    keep = _grad_enabled and qkv.requires_grad
    out, saved = np.empty((n, d), dtype=qkv.data.dtype), []
    (out_heads,) = by_head(out)
    global _flop_count
    _flop_count += sum(4 * length * length * d for length in lengths)
    for lo, hi in spans:
        probs = q[:, lo:hi] @ k[:, lo:hi].swapaxes(1, 2)
        probs *= scale
        probs += future[: hi - lo, : hi - lo]  # exp(-inf) is exactly 0: no weight on later rows
        probs -= np.max(probs, axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= np.sum(probs, axis=-1, keepdims=True)
        out_heads[:, lo:hi] = probs @ v[:, lo:hi]
        if keep:
            saved.append(probs)

    def backward(g):  # runs only when qkv requires grad, so ``saved`` holds every sequence's probs
        grad = np.empty(qkv.shape, dtype=qkv.data.dtype)  # C order, so by_head returns views into it
        (g,), (dq, dk, dv) = by_head(g), by_head(grad)
        for (lo, hi), probs in zip(spans, saved):
            dv[:, lo:hi] = probs.swapaxes(1, 2) @ g[:, lo:hi]
            dscores = g[:, lo:hi] @ v[:, lo:hi].swapaxes(1, 2)
            dscores -= np.sum(dscores * probs, axis=-1, keepdims=True)
            dscores *= probs
            dscores *= scale
            dq[:, lo:hi] = dscores @ k[:, lo:hi]
            dk[:, lo:hi] = dscores.swapaxes(1, 2) @ q[:, lo:hi]
        grad[:, : 2 * d] = rotary(grad[:, : 2 * d], cos_rows, -sin_rows)
        _accumulate(qkv, grad)

    return _build(out, (qkv,), backward)


def moe_experts(z, sparse, selected: np.ndarray, experts: Sequence[tuple[Tensor, Tensor, Tensor]]) -> Tensor:
    """Routed half of a mixture-of-experts sublayer, with sorted dropless dispatch.

    Row t of the ``[N, d]`` result sums ``sparse[t, e] * SwiGLU_e(z[t])`` over the experts
    e in row t of ``selected`` (``[N, k]``, distinct per row), ``experts[e]`` being
    ``(w_gate, w_up, w_down)``. The N*k (row, slot) pairs are sorted by expert once, so
    each expert runs on one contiguous slice; the results are un-sorted to ``[N, k, d]``
    and summed over k. An expert given no pair gets no gradient. Counts its matmul FLOPs.
    """
    z, sparse = as_tensor(z), as_tensor(sparse)
    n, k = selected.shape
    if z.shape[0] != n or sparse.shape != (n, len(experts)):
        raise ShapeError(f"moe_experts: z {z.shape}, sparse {sparse.shape} do not fit selected {selected.shape}")
    flat = selected.reshape(-1)
    order = np.argsort(flat, kind="stable")  # sorted pair i is row order[i] // k, slot order[i] % k
    unsort, rows, counts = np.argsort(order), order // k, np.bincount(flat, minlength=len(experts))
    x, scale = z.data[rows], sparse.data[rows, flat[order]][:, None]
    parents = (z, sparse) + tuple(w for weights in experts for w in weights)
    out, saved = np.empty((n * k, z.shape[1]), dtype=z.data.dtype), []
    global _flop_count
    for e, (lo, hi) in enumerate(zip(np.cumsum(counts) - counts, np.cumsum(counts))):
        if lo == hi:
            continue
        w_gate, w_up, w_down = experts[e]
        _flop_count += 2 * (hi - lo) * (w_gate.data.size + w_up.data.size + w_down.data.size)
        pre, up = x[lo:hi] @ w_gate.data, x[lo:hi] @ w_up.data
        sig = _logistic(pre)
        hidden = pre * sig * up
        y = hidden @ w_down.data
        out[lo:hi] = y * scale[lo:hi]
        if _grad_enabled:  # dropped with the closure when no parent requires grad
            saved.append((e, lo, hi, pre, up, sig, hidden, y))

    def backward(g):
        g_pairs, dx, dsparse = g[rows], np.empty_like(x), np.zeros_like(sparse.data)
        for e, lo, hi, pre, up, sig, hidden, y in saved:
            w_gate, w_up, w_down = experts[e]
            dsparse[rows[lo:hi], e] = np.sum(g_pairs[lo:hi] * y, axis=1)
            dy = g_pairs[lo:hi] * scale[lo:hi]
            dhidden = dy @ w_down.data.T
            dup = dhidden * (pre * sig)
            dpre = dhidden * up * (sig * (1.0 + pre * (1.0 - sig)))
            dx[lo:hi] = dpre @ w_gate.data.T + dup @ w_up.data.T
            for w, grad in zip(experts[e], (x[lo:hi].T @ dpre, x[lo:hi].T @ dup, hidden.T @ dy)):
                if w.requires_grad:
                    _accumulate(w, grad)
        for t, grad in ((z, dx[unsort].reshape(n, k, -1).sum(axis=1)), (sparse, dsparse)):
            if t.requires_grad:
                _accumulate(t, grad)

    return _build(out[unsort].reshape(n, k, -1).sum(axis=1), parents, backward)


# -- fused losses --------------------------------------------------------------


def cross_entropy_logits(logits, targets, sample_weight: Optional[np.ndarray] = None) -> Tensor:
    """Weighted mean of -log softmax(logits)[target] over rows.

    ``sample_weight`` defaults to all-ones; rows with weight zero are
    excluded from both the mean and the gradient.
    """
    logits = as_tensor(logits)
    tgt = np.asarray(targets, dtype=np.int64)
    n = logits.shape[0]
    w = np.ones(n, logits.data.dtype) if sample_weight is None else np.asarray(
        sample_weight, logits.data.dtype
    )
    total_w = float(w.sum())
    if total_w <= 0:
        raise ValueError("cross_entropy_logits needs at least one weighted row")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(shifted), axis=-1))
    logp = shifted[np.arange(n), tgt] - logsumexp
    loss = -float(np.sum(w * logp)) / total_w

    def backward(g):
        if logits.requires_grad:
            probs = np.exp(shifted - logsumexp[:, None])
            probs[np.arange(n), tgt] -= 1.0
            probs *= (w / total_w)[:, None] * g
            _accumulate(logits, probs.astype(logits.data.dtype))

    return _build(np.asarray(loss, logits.data.dtype), (logits,), backward)


# -- optimizer -----------------------------------------------------------------


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    Accepts a flat parameter list or param groups (dicts with ``params``
    and optional ``lr`` / ``weight_decay`` overrides) so layer-wise
    learning rates are just groups.
    """

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if params and isinstance(params[0], Tensor):
            params = [{"params": list(params)}]
        self.groups = [dict(g) for g in params]
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for group in self.groups:
            lr = group.get("lr", self.lr)
            wd = group.get("weight_decay", self.weight_decay)
            for p in group["params"]:
                if p.grad is None:
                    continue
                key = id(p)
                if key not in self._m:
                    self._m[key] = np.zeros_like(p.data)
                    self._v[key] = np.zeros_like(p.data)
                m, v = self._m[key], self._v[key]
                g = p.grad
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * np.square(g)
                update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
                if wd:
                    update = update + wd * p.data
                p.data -= lr * update


# -- checkpoints ---------------------------------------------------------------
#
# Flat binary layout, all integers little-endian:
#   magic 'TMCK' | version u32 | tensor count u32
#   per tensor: name length u16 | name utf-8 | rank u8 | dims u32 each |
#               raw float32 little-endian data, row-major.

_CKPT_MAGIC = b"TMCK"
_CKPT_VERSION = 1
_U16 = struct.Struct("<H")


def save_checkpoint(named_tensors: dict[str, "Tensor | np.ndarray"], path: str | Path) -> None:
    blob = bytearray(_CKPT_MAGIC + HEADER.pack(_CKPT_VERSION, len(named_tensors)))
    for name, value in named_tensors.items():
        arr = value.data if isinstance(value, Tensor) else np.asarray(value)
        arr = np.ascontiguousarray(arr, dtype="<f4")
        encoded = name.encode("utf-8")
        blob += _U16.pack(len(encoded))
        blob += encoded
        blob.append(arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.tobytes()
    write_atomic(path, blob)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint; a malformed or truncated file raises ValueError naming the offset."""
    out: dict[str, np.ndarray] = {}
    with BinaryReader.open(path, _CKPT_MAGIC, _CKPT_VERSION) as r:
        for _ in r.records(r.count):
            (name_len,) = r.unpack(_U16)
            name = r.take(name_len).decode("utf-8")
            rank = r.take(1)[0]
            dims = r.unpack(struct.Struct(f"<{rank}I"))
            out[name] = np.frombuffer(r.take(4 * math.prod(dims)), dtype="<f4").reshape(dims).copy()
        r.end()
    return out
