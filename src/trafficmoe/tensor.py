"""Dense-tensor engine with reverse-mode automatic differentiation.

Values live in numpy arrays (float32 by default, float64 switchable for
tight gradient checks); the graph is built eagerly by op functions that
attach backward closures. A graph is built on one thread. Forwards that
build no graph may run on several threads at once (``model.forward_in_shards``
runs one per run of a batch's sequences): they read the dtype and grad mode
their caller set, and the FLOP and allocation tallies are kept under one
lock, so they stay exact. ``blas_threads`` sets how many threads the bundled
OpenBLAS gives each call meanwhile. A row's result is then exact only to
float32 GEMM rounding: a GEMM or GEMV rounds a row by where it sits in its
operand (a GEMV's last rows mod 4 take another path), so the same rows split
another way can differ by about 1e-8. ``AdamW.step`` parks OpenBLAS's workers
and runs on as many threads as they were; no other thread may call BLAS
meanwhile.
"""

from __future__ import annotations

import ctypes
import functools
import math
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .artifacts import HEADER, BinaryReader, write_atomic


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


_default_dtype = np.float32
_grad_enabled = True
_flop_count = 0
_alloc_bytes = 0
_tally_lock = threading.Lock()  # the two tallies take adds from every thread that runs ops


def _count_flops(n: int) -> None:
    global _flop_count
    with _tally_lock:
        _flop_count += n


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


def matmul_flops() -> int:
    """Multiply-accumulate FLOPs (2*m*n*k) executed since import; callers take differences."""
    return _flop_count


def alloc_bytes() -> int:
    """Bytes of the arrays ``_build`` has wrapped since import (a fused op's internal arrays are not
    counted); callers take differences. Only perfbench's ``tensor.alloc_mb`` reads it."""
    return _alloc_bytes


# Functions of the OpenBLAS that numpy's Linux wheels bundle in ``numpy.libs`` (numpy has no API for
# them; threadpoolctl reaches the thread-count ones the same way): the thread count's get and set, the
# ILP64 cblas GEMMs, and the call that parks the worker threads until the next threaded call.
_OPENBLAS_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")
_GEMM_SYMBOLS = ("scipy_cblas_sgemm64_", "scipy_cblas_dgemm64_")
_PARK_SYMBOLS = ("blas_thread_shutdown_",)
_I, _N, _P = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p  # a cblas enum, an ILP64 dimension, a buffer
_SIGNATURES = {  # name -> (restype, argtypes)
    "scipy_openblas_get_num_threads64_": (_I, []), "scipy_openblas_set_num_threads64_": (None, [_I]),
    "blas_thread_shutdown_": (_I, []),
    **{name: (None, [_I, _I, _I, _N, _N, _N, real, _P, _N, _P, _N, real, _P, _N])  # order, trans a, trans b, m, n, k,
       for name, real in zip(_GEMM_SYMBOLS, (ctypes.c_float, ctypes.c_double))},  # alpha, a, lda, b, ldb, beta, c, ldc
}


@functools.lru_cache(maxsize=None)
def _openblas_calls(*names: str):
    """The bundled OpenBLAS's functions of these names, typed by ``_SIGNATURES``; None when the
    library or a symbol is missing."""
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy already loaded: the loader hands back that one
            calls = tuple(getattr(lib, name) for name in names)
        except (OSError, AttributeError):
            continue
        for call, name in zip(calls, names):
            call.restype, call.argtypes = _SIGNATURES[name]
        return calls
    return None


def _gemm_tn_add(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``c += a.T @ b`` in place. For C-contiguous operands of one float dtype the bundled OpenBLAS's
    GEMM adds into ``c`` at beta=1, so no temporary the size of ``c`` is made; otherwise numpy does."""
    calls = _openblas_calls(*_GEMM_SYMBOLS)
    (k, m), n = a.shape, b.shape[1]
    if calls is None or c.shape != (m, n) or b.shape[0] != k or c.dtype not in (np.float32, np.float64) or not all(
            x.dtype == c.dtype and x.flags.c_contiguous for x in (a, b, c)):
        c += a.T @ b
    else:  # RowMajor (101), a transposed (112), b not (111)
        gemm = calls[c.dtype == np.float64]
        gemm(101, 112, 111, m, n, k, 1.0, a.ctypes.data, m, b.ctypes.data, n, 1.0, c.ctypes.data, n)


def blas_thread_count() -> Optional[int]:
    """Threads the bundled OpenBLAS runs each call on, process-wide; None when it cannot be reached."""
    calls = _openblas_calls(*_OPENBLAS_SYMBOLS)
    return calls[0]() if calls else None


@contextmanager
def blas_threads(n: int):
    """Run the block with the bundled OpenBLAS at ``n`` threads per call, then restore the count it
    had, error or not. The count is process-wide. Without the library the block runs as it is."""
    calls = _openblas_calls(*_OPENBLAS_SYMBOLS)
    if calls is None:
        yield
        return
    get, put = calls
    prev = get()
    put(n)
    try:
        yield
    finally:
        put(prev)


class Tensor:
    """A numpy array plus an optional gradient buffer and backward hook."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        arr = np.asarray(data)
        if arr.dtype != _default_dtype:
            arr = arr.astype(_default_dtype)
        self.data = arr
        self.grad: Optional[np.ndarray | RowGrad] = None
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
        """Run reverse-mode accumulation from this node. Leaves (parameters and inputs) keep
        their gradients. Each interior node drops its gradient, backward closure and parents once
        its backward has run, so saved activations are freed as the walk goes; a second backward
        through a freed graph raises RuntimeError."""
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
            if node._backward_fn is _freed:
                raise RuntimeError("backward() through a graph an earlier backward() has freed; run the forward again")
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data) if grad is None else np.array(grad, self.data.dtype)
        while topo:  # popping drops the walk's own reference to each node it has finished
            node = topo.pop()
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
                node.grad, node._backward_fn, node._parents = None, _freed, ()


def _freed(g) -> None:
    """Backward closure of an interior node whose backward has already run; never called."""


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


@dataclass(eq=False)
class RowGrad:
    """A gradient that is zero outside ``rows``: ``values[i]`` is the gradient of row ``rows[i]`` of
    a ``shape`` parameter. ``rows`` are sorted, distinct int64 ids and ``values`` is
    ``[len(rows), *shape[1:]]``. ``gather_rows`` builds one; ``AdamW`` updates only its rows."""

    rows: np.ndarray
    values: np.ndarray
    shape: tuple[int, ...]

    def dense(self) -> np.ndarray:
        """The full gradient array, zero outside ``rows``."""
        out = np.zeros(self.shape, self.values.dtype)
        out[self.rows] = self.values
        return out


def _accumulate(param: Tensor, grad: np.ndarray | RowGrad) -> None:
    """Add ``grad`` into ``param.grad``. A first gradient is kept as it is, array or ``RowGrad``; a
    second one densifies ``param.grad`` and is added into it in place. So one rule holds: a backward
    hands each parent an array no other tensor holds. ``add``, the only op that would hand one array
    to two parents, copies for ``b``."""
    if param.grad is None:
        param.grad = grad
        return
    if isinstance(param.grad, RowGrad):
        param.grad = param.grad.dense()
    if isinstance(grad, RowGrad):
        param.grad[grad.rows] += grad.values
    else:
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
    global _alloc_bytes
    with _tally_lock:
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
            grad = _unbroadcast(g, b.shape)
            _accumulate(b, grad.copy() if a.requires_grad else grad)  # a may keep g itself

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

    def backward(g):
        if x.requires_grad:
            inner = np.sum(g * probs, axis=-1, keepdims=True)
            _accumulate(x, probs * (g - inner))

    return _build(probs, (x,), backward)


def rmsnorm(x, gain, eps: float = 1e-6) -> Tensor:
    """``x / sqrt(mean(x^2) + eps) * gain``, each row normalized over the last axis."""
    x, gain = as_tensor(x), as_tensor(gain)
    inv = 1.0 / np.sqrt(np.mean(np.square(x.data), axis=-1, keepdims=True) + eps)
    out = x.data * inv
    out *= gain.data

    def backward(g):
        if gain.requires_grad:
            _accumulate(gain, (g * x.data * inv).reshape(-1, gain.shape[0]).sum(axis=0))
        if x.requires_grad:
            gx = g * gain.data
            gx -= x.data * (inv**2 * np.sum(gx * x.data, axis=-1, keepdims=True) / gain.shape[0])
            gx *= inv
            _accumulate(x, gx)

    return _build(out, (x, gain), backward)


def tsum(x) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    x = as_tensor(x)

    def backward(g):
        if x.requires_grad:
            _accumulate(x, np.full(x.shape, g, dtype=x.data.dtype))

    return _build(np.asarray(np.sum(x.data)), (x,), backward)


# -- linear algebra ----------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    _count_flops(2 * a.shape[0] * a.shape[1] * b.shape[1])
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _build(data, (a, b), backward)


# -- indexing ----------------------------------------------------------------


def gather_rows(x, indices) -> Tensor:
    """Select rows by integer index; duplicates accumulate in backward.

    Backward sorts the ids once, sums the gradient rows of each distinct id and hands ``x``
    those sums as a ``RowGrad`` over the distinct ids, so no array of ``x``'s size is built
    unless ``x`` gets a second gradient.
    """
    x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)
    data = x.data[idx]

    def backward(g):
        if x.requires_grad:
            flat = idx.reshape(-1)
            order = np.argsort(flat, kind="stable")
            ids = flat[order]
            starts = np.flatnonzero(np.diff(ids, prepend=-1))  # first slot of each distinct id
            sums = np.add.reduceat(g.reshape((flat.size,) + x.shape[1:])[order], starts, axis=0)
            _accumulate(x, RowGrad(ids[starts], sums, x.shape))

    return _build(data, (x,), backward)


def segment_sum(x, weights: np.ndarray, lengths: Sequence[int]) -> Tensor:
    """Weighted row sums per segment: row b of the ``[len(lengths), ...]`` result sums
    ``weights[r] * x[r]`` over segment b, the next ``lengths[b]`` (>= 1) rows of ``x``.
    Counts the 2 * x.size FLOPs of the per-segment ``weights @ x`` products."""
    x = as_tensor(x)
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.sum() != x.shape[0] or len(weights) != x.shape[0] or lengths.min() < 1:
        raise ShapeError(f"segment_sum: {x.shape[0]} rows, {len(weights)} weights, lengths {lengths.tolist()}")
    scale = np.asarray(weights, x.data.dtype).reshape((-1,) + (1,) * (x.ndim - 1))
    _count_flops(2 * x.data.size)

    def backward(g):
        if x.requires_grad:
            _accumulate(x, np.repeat(g, lengths, axis=0) * scale)

    return _build(np.add.reduceat(x.data * scale, np.cumsum(lengths) - lengths, axis=0), (x,), backward)


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


def rope_tables(seq_len: int, head_dim: int, base: float = 10000.0) -> np.ndarray:
    """[seq_len, head_dim / 2] complex table of e^{i p theta_j}: multiplying feature pair
    (x_{2j}, x_{2j+1}), read as x_{2j} + i x_{2j+1}, by row p rotates it to position p."""
    if head_dim % 2 != 0:
        raise ShapeError(f"rotary embedding needs an even head dim, got {head_dim}")
    return np.exp(1j * np.arange(seq_len)[:, None] * base ** (-2.0 * np.arange(head_dim // 2) / head_dim))


# -- attention and mixture of experts ---------------------------------------------


def causal_attention(qkv, lengths: Sequence[int], n_heads: int) -> Tensor:
    """Rotary causal multi-head attention over packed sequences.

    ``qkv`` is ``[N, 3d]`` = ``[q | k | v]``, heads side by side within each
    part. Sequence b is the next ``lengths[b]`` (>= 1) rows, and each row
    attends to itself and the earlier rows of its own sequence only. q and k
    are rotated to each row's position in its sequence by one complex multiply
    with ``rope_tables(max(lengths), d / n_heads)``, q's factor also carrying
    1/sqrt(head_dim). Returns ``softmax(q k^T / sqrt(head_dim)) v`` as ``[N, d]``,
    one 3-D block of all heads per sequence, and counts its 4*L*L*d matmul FLOPs.
    """
    qkv = as_tensor(qkv)
    lengths = [int(length) for length in lengths]
    n, d = qkv.shape[0], qkv.shape[-1] // 3
    if qkv.shape != (sum(lengths), 3 * d) or d % n_heads or min(lengths) < 1:
        raise ShapeError(f"causal_attention: qkv {qkv.shape} does not hold {n_heads} heads over lengths {lengths}")
    hd, data = d // n_heads, np.ascontiguousarray(qkv.data)
    pairs = np.result_type(data.dtype, np.complex64)  # (x_2j, x_2j+1) as one number; turn: [N, 2 (q, k), 1, hd/2]
    positions = np.concatenate([np.arange(length) for length in lengths])
    turn = (rope_tables(max(lengths), hd)[positions][:, None, None] * [[[1 / math.sqrt(hd)]], [[1]]]).astype(pairs)

    def by_head(x):  # [N, parts * d] -> one [n_heads, N, hd] array per part, a view where reshape allows
        return x.reshape(n, -1, n_heads, hd).transpose(1, 2, 0, 3)

    qk = data.view(pairs)[:, :d].reshape(n, 2, n_heads, hd // 2) * turn
    (q, k), (v,) = by_head(qk.view(data.dtype).reshape(n, 2 * d)), by_head(data[:, 2 * d :])
    future = np.triu(np.full((max(lengths),) * 2, -np.inf, dtype=data.dtype), 1)  # 0 on and below the diagonal
    ends = np.cumsum(lengths)
    spans = list(zip(ends - lengths, ends))
    keep = _grad_enabled and qkv.requires_grad
    out, saved = np.empty((n, d), dtype=data.dtype), []
    (out_heads,) = by_head(out)
    _count_flops(sum(4 * length * length * d for length in lengths))
    for lo, hi in spans:
        probs = q[:, lo:hi] @ k[:, lo:hi].swapaxes(1, 2)
        probs += future[: hi - lo, : hi - lo]  # exp(-inf) is exactly 0: no weight on later rows
        probs -= np.max(probs, axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        sums = np.sum(probs, axis=-1, keepdims=True)
        np.divide(probs @ v[:, lo:hi], sums, out=out_heads[:, lo:hi])
        if keep:
            saved.append((probs, sums))

    def backward(g):  # runs only when qkv requires grad, so ``saved`` holds every sequence's exps and sums
        grad = np.empty(qkv.shape, dtype=data.dtype)  # C order, so by_head returns views into it
        (g,), (dq, dk, dv) = by_head(g), by_head(grad)
        for (lo, hi), (probs, sums) in zip(spans, saved):
            probs /= sums
            dv[:, lo:hi] = probs.swapaxes(1, 2) @ g[:, lo:hi]
            dscores = g[:, lo:hi] @ v[:, lo:hi].swapaxes(1, 2)
            dscores -= np.sum(dscores * probs, axis=-1, keepdims=True)
            dscores *= probs
            dq[:, lo:hi] = dscores @ k[:, lo:hi]
            dk[:, lo:hi] = dscores.swapaxes(1, 2) @ q[:, lo:hi]
        dqk = grad.view(pairs)[:, :d].reshape(n, 2, n_heads, hd // 2)
        np.multiply(dqk, turn.conj(), out=dqk)
        _accumulate(qkv, grad)

    return _build(out, (qkv,), backward)


def _swiglu_forward(x, w_gate, w_up, w_down, keep: bool):
    """``(SiLU(x w_gate) * (x w_up)) w_down`` on arrays, with SiLU(a) = a / (1 + exp(-a)). Returns
    the output and, when ``keep``, the (pre, up, act, hidden) that ``_swiglu_backward`` reads."""
    pre, up = x @ w_gate, x @ w_up
    act = np.negative(pre)
    with np.errstate(over="ignore"):  # exp(-a) = inf for very negative a, and a / inf = 0 is the exact limit
        np.exp(act, out=act)
    np.divide(pre, np.add(act, 1.0, out=act), out=act)
    hidden = np.multiply(act, up, out=None if keep else up)
    return hidden @ w_down, (pre, up, act, hidden) if keep else None


def _swiglu_backward(dy, x, w_gate, w_up, w_down, saved):
    """Gradients (dx, d w_gate, d w_up, d w_down) of ``_swiglu_forward``'s output, given ``dy``."""
    pre, up, act, hidden = saved
    dhidden = dy @ w_down.T
    dup = dhidden * act
    sig = _logistic(pre)
    dhidden *= up
    dhidden *= sig + act * (1.0 - sig)  # SiLU'(a) = sig + SiLU(a) (1 - sig)
    return dhidden @ w_gate.T + dup @ w_up.T, x.T @ dhidden, x.T @ dup, hidden.T @ dy


def swiglu(x, w_gate, w_up, w_down) -> Tensor:
    """Gated feed-forward ``(SiLU(x w_gate) * (x w_up)) w_down`` as one node; counts its matmul FLOPs."""
    parents = x, w_gate, w_up, w_down = tuple(as_tensor(t) for t in (x, w_gate, w_up, w_down))
    if x.ndim != 2 or w_gate.shape != w_up.shape or w_down.shape != w_gate.shape[::-1] or x.shape[1] != w_gate.shape[0]:
        raise ShapeError(f"swiglu: x {x.shape}, w_gate {w_gate.shape}, w_up {w_up.shape}, w_down {w_down.shape}")
    _count_flops(2 * x.shape[0] * (w_gate.data.size + w_up.data.size + w_down.data.size))
    y, saved = _swiglu_forward(*(t.data for t in parents), _grad_enabled and any(t.requires_grad for t in parents))

    def backward(g):
        for t, grad in zip(parents, _swiglu_backward(g, *(t.data for t in parents), saved)):
            if t.requires_grad:
                _accumulate(t, grad)

    return _build(y, parents, backward)


def moe_experts(z, scores, selected: np.ndarray, experts: Sequence[tuple[Tensor, Tensor, Tensor]]) -> Tensor:
    """Routed half of a mixture-of-experts sublayer, with dropless dispatch.

    Row t of the ``[N, d]`` result sums ``scores[t, e] * SwiGLU_e(z[t])`` over the experts
    e in row t of ``selected`` (``[N, k]``, distinct per row), ``experts[e]`` being
    ``(w_gate, w_up, w_down)``; no other entry of ``scores`` is read. Each expert runs once
    on the rows that selected it, in row order, and adds its scaled rows into the ``[N, d]``
    result, so a row's terms are summed in expert order. An expert given no row gets no
    gradient. Counts its matmul FLOPs.
    """
    z, scores = as_tensor(z), as_tensor(scores)
    n = selected.shape[0]
    if z.shape[0] != n or scores.shape != (n, len(experts)):
        raise ShapeError(f"moe_experts: z {z.shape}, scores {scores.shape} do not fit selected {selected.shape}")
    if np.any((selected < 0) | (selected >= len(experts))):
        raise ShapeError(f"moe_experts: selected holds an expert outside [0, {len(experts)})")
    parents = (z, scores) + tuple(w for weights in experts for w in weights)
    out, saved = np.zeros_like(z.data), []
    for e, weights in enumerate(experts):
        rows = np.nonzero(selected == e)[0]  # each row at most once: its experts are distinct
        if not len(rows):
            continue
        _count_flops(2 * len(rows) * sum(w.data.size for w in weights))
        x, scale = z.data[rows], scores.data[rows, e][:, None]
        y, acts = _swiglu_forward(x, *(w.data for w in weights), _grad_enabled)
        out[rows] += y * scale
        if _grad_enabled:  # dropped with the closure when no parent requires grad
            saved.append((e, rows, x, scale, acts, y))

    def backward(g):
        dx, dscores = np.zeros_like(z.data), np.zeros_like(scores.data)
        for e, rows, x, scale, acts, y in saved:
            g_rows = g[rows]
            dscores[rows, e] = np.sum(g_rows * y, axis=1)
            dx_rows, *grads = _swiglu_backward(g_rows * scale, x, *(w.data for w in experts[e]), acts)
            dx[rows] += dx_rows
            for w, grad in zip(experts[e], grads):
                if w.requires_grad:
                    _accumulate(w, grad)
        for t, grad in ((z, dx), (scores, dscores)):
            if t.requires_grad:
                _accumulate(t, grad)

    return _build(out, parents, backward)


# -- fused losses --------------------------------------------------------------


def cross_entropy_logits(logits, targets) -> Tensor:
    """Mean of -log softmax(logits)[target] over rows."""
    logits = as_tensor(logits)
    tgt = np.asarray(targets, dtype=np.int64)
    n = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(shifted), axis=-1))
    loss = -float(np.sum(shifted[np.arange(n), tgt] - logsumexp)) / n

    def backward(g):
        if logits.requires_grad:
            probs = shifted - logsumexp[:, None]
            np.exp(probs, out=probs)
            probs[np.arange(n), tgt] -= 1.0
            probs *= g / n
            _accumulate(logits, probs)

    return _build(np.asarray(loss, logits.data.dtype), (logits,), backward)


# Rows of h per ``lm_head_loss`` chunk: at the default 65,541-token vocab a chunk's float32 logits
# are 67 MB. Forward plus backward of an 854 x 256 head (2 vCPU, numpy 2.4, OpenBLAS 0.3.31,
# interleaved, median of 10) took 493 ms at 128 rows, 447 at 256, 471 at 512 and 465 at 1,024.
LM_HEAD_CHUNK = 256


def lm_head_loss(h, w_vocab, targets, weights) -> Tensor:
    """Weighted mean of -log softmax(h w_vocab)[target] over rows, without holding the logits.

    Walks ``LM_HEAD_CHUNK`` rows of ``h`` at a time: each chunk's logits give that chunk's loss
    and, when a gradient is wanted, its rows of ``dh`` and its share of ``dW``, so no array the
    size of all logits exists. A chunk's logits gradient stays unscaled in its buffer; the row
    scale goes onto the chunk's rows of ``h`` and ``dh``, and ``dW`` adds each chunk in place, so
    no second array of a chunk's logits or of ``dW``'s size is made (as in Cut Cross-Entropy,
    arXiv:2411.09009). Backward scales ``dh`` and ``dW`` in place by an upstream gradient other
    than 1 and hands them over.
    Counts the 2*n*d*V FLOPs of the logits product only, as ``matmul`` counts its forward only.
    """
    h, w_vocab = as_tensor(h), as_tensor(w_vocab)
    tgt = np.asarray(targets, dtype=np.int64)
    w = np.asarray(weights, h.data.dtype)
    n = h.shape[0]
    if h.ndim != 2 or w_vocab.ndim != 2 or h.shape[1] != w_vocab.shape[0] or tgt.shape != w.shape or w.shape != (n,):
        raise ShapeError(f"lm_head_loss: h {h.shape}, w_vocab {w_vocab.shape}, targets {tgt.shape}, weights {w.shape}")
    total_w = float(w.sum())
    if total_w <= 0:
        raise ValueError("lm_head_loss needs at least one weighted row")
    _count_flops(2 * h.data.size * w_vocab.shape[1])
    want_h, want_w = (_grad_enabled and t.requires_grad for t in (h, w_vocab))
    dh = np.empty_like(h.data) if want_h else None
    dw = np.zeros(w_vocab.shape, h.data.dtype) if want_w else None
    total = 0.0
    buf = np.empty((min(n, LM_HEAD_CHUNK), w_vocab.shape[1]), h.data.dtype)  # one chunk's logits, reused
    for lo in range(0, n, LM_HEAD_CHUNK):
        h_c, t_c, w_c = h.data[lo : lo + LM_HEAD_CHUNK], tgt[lo : lo + LM_HEAD_CHUNK], w[lo : lo + LM_HEAD_CHUNK]
        rows = np.arange(len(h_c))
        z = np.matmul(h_c, w_vocab.data, out=buf[: len(h_c)])  # the logits, then their exps, then their gradient
        z -= z.max(axis=1, keepdims=True)
        picked = z[rows, t_c]
        np.exp(z, out=z)
        norm = z.sum(axis=1)
        total -= float(np.dot(w_c, picked - np.log(norm)))
        if not (want_h or want_w):
            continue
        scale = (w_c / total_w / norm)[:, None]  # the logits' gradient is scale * (exps - norm at the target)
        z[rows, t_c] -= norm
        if want_h:
            np.multiply(z @ w_vocab.data.T, scale, out=dh[lo : lo + LM_HEAD_CHUNK])
        if want_w:
            _gemm_tn_add(dw, h_c * scale, z)

    def backward(g):
        for t, grad in ((h, dh), (w_vocab, dw)):
            if grad is not None:
                if g != 1:
                    grad *= g
                _accumulate(t, grad)

    return _build(np.asarray(total / total_w, h.data.dtype), (h, w_vocab), backward)


# -- optimizer -----------------------------------------------------------------


# Elements per AdamW block. On the 33.8M float32 elements of a default-model pretrain step (2 vCPU,
# numpy 2.4, interleaved, median of 11), 32K and 128K tied at 130 ms on one thread; on two threads
# 32K took 87 ms, 64K 74, 128K 72 and 256K 81.
ADAMW_BLOCK = 1 << 17
# Elements below which ``AdamW.step`` stays on one thread (OpenBLAS restarts its parked workers in
# ~2.6 ms). A step plus the next 2-thread GEMM took 9.8 ms serial against 12.5 threaded at 1M
# float32 elements, 14.3 against 13.5 at 2M and 21.3 against 16.2 at 4M.
ADAMW_THREADED_MIN = 1 << 21
ADAMW_BETAS = (0.9, 0.999)  # the decays of the first and second moments
ADAMW_EPS = 1e-8


def _adamw_update(jobs) -> None:
    """Update each job's flat, equal-sized p, m and v in place from its g, ``ADAMW_BLOCK`` elements at
    a time through one block-sized scratch, so each of them is read from memory once. A job is
    (p, g, m, v, (lr, wd, bc1, bc2))."""
    (b1, b2), eps = ADAMW_BETAS, ADAMW_EPS
    scratch = None
    for p, g, m, v, (lr, wd, bc1, bc2) in jobs:
        if scratch is None or scratch.dtype != p.dtype:
            scratch = np.empty(ADAMW_BLOCK, p.dtype)
        for lo in range(0, p.size, ADAMW_BLOCK):
            hi = lo + ADAMW_BLOCK
            pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
            s = scratch[: pb.size]
            mb *= b1
            np.multiply(gb, 1.0 - b1, out=s)
            mb += s
            vb *= b2
            np.multiply(gb, gb, out=s)
            s *= 1.0 - b2
            vb += s
            if wd:  # p -= lr wd p: a float32 factor 1 - lr wd would round lr wd ~ 1e-7 by up to 20%
                np.multiply(pb, lr * wd, out=s)
                pb -= s
            np.divide(vb, bc2, out=s)
            np.sqrt(s, out=s)
            s += eps
            np.divide(mb, s, out=s)
            s *= lr / bc1
            pb -= s


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay (Loshchilov & Hutter, arXiv:1711.05101).

    Takes one ``(parameter, lr, weight_decay)`` entry per parameter, so a layer-wise learning
    rate is just each entry's own lr; the moment decays are ``ADAMW_BETAS`` and the denominator's
    floor is ``ADAMW_EPS``.

    A parameter whose ``.grad`` is None is skipped and gets no state. A dense ``.grad``
    moves every element of the parameter under momentum and decay. A ``RowGrad`` moves
    only its rows: their p, m and v are copied out, updated as a dense gradient would
    update them, and written back, while every other row keeps its p, m and v this step,
    with no momentum step and no decay (the lazy update of PyTorch's ``SparseAdam``). Each
    update runs ``ADAMW_BLOCK`` elements of the flattened p, grad, m and v at a time::

        m = b1 m + (1 - b1) g        v = b2 v + (1 - b2) g^2
        p -= lr wd p                 p -= lr / bc1 * m / (sqrt(v / bc2) + eps)

    with bias corrections bc1 = 1 - b1^t and bc2 = 1 - b2^t at step t, the optimizer's
    step count.

    With OpenBLAS on n >= 2 threads and at least ``ADAMW_THREADED_MIN`` elements to update, the
    step parks OpenBLAS's workers (an idle one spins on a core after a threaded GEMM) and thread i
    updates the i-th of n slices of every parameter. Each element takes the same operations either
    way, so the result is bitwise that of one thread. No other thread may call BLAS meanwhile.
    """

    def __init__(self, entries: list[tuple[Tensor, float, float]]):
        self.entries = list(entries)
        self.step_count = 0
        self._moments: dict[int, np.ndarray] = {}  # id(p) -> [2, p.size]: the flat m and v

    def step(self) -> None:
        self.step_count += 1
        bc1, bc2 = (1.0 - b**self.step_count for b in ADAMW_BETAS)
        jobs, row_copies = [], []  # flat (p, g, m, v, hyper) to update; (array, rows, copy) to write back
        for p, lr, wd in self.entries:
            if p.grad is None:
                continue
            hyper = (lr, wd, bc1, bc2)
            if id(p) not in self._moments:
                self._moments[id(p)] = np.zeros((2, p.data.size), p.data.dtype)
            m, v = self._moments[id(p)]
            if isinstance(p.grad, RowGrad):  # update compact copies of the listed rows, then write them back
                rows, m, v = p.grad.rows, m.reshape(p.shape), v.reshape(p.shape)
                pr, mr, vr = p.data[rows], m[rows], v[rows]
                row_copies += [(p.data, rows, pr), (m, rows, mr), (v, rows, vr)]
                jobs.append((pr.reshape(-1), p.grad.values.reshape(-1), mr.reshape(-1), vr.reshape(-1), hyper))
            else:
                if not p.data.flags.c_contiguous:  # reshape(-1) must give a view, or the update is lost
                    p.data = np.ascontiguousarray(p.data)
                jobs.append((p.data.reshape(-1), p.grad.reshape(-1), m, v, hyper))
        threads, park = blas_thread_count() or 1, _openblas_calls(*_PARK_SYMBOLS)
        if threads < 2 or park is None or sum(job[0].size for job in jobs) < ADAMW_THREADED_MIN:
            _adamw_update(jobs)
        else:
            park[0]()
            shares = [[(*(a[a.size * i // threads : a.size * (i + 1) // threads] for a in arrays), hyper)
                       for *arrays, hyper in jobs] for i in range(threads)]
            with ThreadPoolExecutor(threads) as pool:
                list(pool.map(_adamw_update, shares))  # reading each result raises a worker's error
        for array, rows, copy in row_copies:
            array[rows] = copy


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
