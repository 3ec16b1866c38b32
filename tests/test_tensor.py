import warnings

import numpy as np
import pytest

from trafficmoe import tensor as T
from trafficmoe.model import rope_tables
from trafficmoe.tensor import AdamW, ShapeError, Tensor


def finite_diff_grad(make_scalar, param: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function w.r.t. param (in place)."""
    grad = np.zeros_like(param)
    flat, grad_flat = param.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = make_scalar()
        flat[i] = orig - h
        down = make_scalar()
        flat[i] = orig
        grad_flat[i] = (up - down) / (2 * h)
    return grad


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Worst absolute difference relative to the gradient scale (max norm).

    Judging near-zero entries against the tensor's own scale keeps the
    check meaningful where central differences only resolve that scale.
    """
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), floor)
    return float(np.max(np.abs(a - b)) / scale)


def check_grad(build_loss, params: list[np.ndarray], h: float, tol: float):
    """build_loss() -> Tensor scalar over Tensors wrapping the param arrays."""
    loss, tensors = build_loss()
    loss.backward()
    for arr, tensor in zip(params, tensors):
        fd = finite_diff_grad(lambda: build_loss()[0].item(), arr, h)
        assert tensor.grad is not None
        err = max_rel_err(fd, tensor.grad)
        assert err < tol, f"rel err {err} exceeds {tol}"


# -- forward examples ---------------------------------------------------------


def test_softmax_uniform_logits():
    out = T.softmax_lastdim(Tensor(np.zeros((1, 4))))
    assert np.allclose(out.data, 0.25, atol=1e-7)


def test_softmax_rows_sum_to_one(rng):
    x = Tensor(rng.normal(size=(20, 9)) * 5)
    out = T.softmax_lastdim(x).data
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
    assert (out > 0).all() and (out < 1).all()


def test_silu_at_zero():
    assert T.silu(Tensor(np.array([0.0]))).data[0] == 0.0


def test_rsqrt_mean_square_constant_rows():
    x = Tensor(np.full((3, 8), 2.0))
    out = T.rsqrt_mean_square(x, eps=0.0)
    assert np.allclose(out.data, 0.5)


def test_rsqrt_mean_square_zero_row_is_finite():
    out = T.rsqrt_mean_square(Tensor(np.zeros((1, 4))), eps=1e-6)
    assert np.isfinite(out.data).all()


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_gather_scatter_forward(rng):
    x = Tensor(rng.normal(size=(5, 3)))
    idx = np.array([4, 0, 0])
    gathered = T.gather_rows(x, idx)
    assert np.array_equal(gathered.data, x.data[idx])
    scattered = T.scatter_rows(gathered, idx, 5)
    assert np.allclose(scattered.data[0], 2 * x.data[0])  # duplicates accumulate
    assert np.allclose(scattered.data[4], x.data[4])
    assert np.all(scattered.data[[1, 2, 3]] == 0)


def test_cross_entropy_matches_manual(rng):
    logits = rng.normal(size=(3, 5))
    targets = np.array([1, 4, 0])
    out = T.cross_entropy_logits(Tensor(logits), targets).item()
    # per-row log-softmax oracle
    expected = 0.0
    for row, target in zip(logits, targets):
        shifted = row - row.max()
        expected -= shifted[target] - np.log(np.exp(shifted).sum())
    assert out == pytest.approx(expected / 3, rel=1e-6)


# -- gradients vs finite differences ----------------------------------------------


@pytest.mark.parametrize("dtype,h,tol", [(np.float32, 1e-3, 1e-3), (np.float64, 1e-5, 1e-5)])
def test_matmul_grad(dtype, h, tol, rng):
    with T.use_dtype(dtype):
        a = rng.normal(size=(3, 4)).astype(dtype)
        b = rng.normal(size=(4, 2)).astype(dtype)
        weight = rng.normal(size=(3, 2)).astype(dtype)

        def build():
            ta = Tensor(a, requires_grad=True)
            tb = Tensor(b, requires_grad=True)
            return T.tsum(T.mul(T.matmul(ta, tb), weight)), [ta, tb]

        check_grad(build, [a, b], h, tol)


def unary_cases(rng):
    x = rng.normal(size=(4, 6))
    weight = rng.normal(size=(4, 6))
    return {
        "silu": lambda t: T.silu(t),
        "sigmoid": lambda t: T.sigmoid(t),
        "softmax": lambda t: T.softmax_lastdim(t),
        "rsqrt_ms": lambda t: T.mul(t, T.rsqrt_mean_square(t)),
        "reshape": lambda t: T.reshape(t, (2, 12)),
        "mean0": lambda t: T.tmean(t, axis=0),
        "sum1k": lambda t: T.tsum(t, axis=1, keepdims=True),
    }, x, weight


@pytest.mark.parametrize(
    "name", ["silu", "sigmoid", "softmax", "rsqrt_ms", "reshape", "mean0", "sum1k"]
)
def test_unary_grads_float64(name, rng):
    with T.use_dtype(np.float64):
        cases, x, _ = unary_cases(rng)

        def build():
            t = Tensor(x, requires_grad=True)
            out = cases[name](t)
            return T.tsum(T.mul(out, np.arange(out.data.size).reshape(out.shape) * 0.1 + 0.3)), [t]

        check_grad(build, [x], 1e-6, 1e-6)


def test_broadcast_add_mul_grads(rng):
    with T.use_dtype(np.float64):
        x = rng.normal(size=(5, 3))
        vec = rng.normal(size=(3,))
        col = rng.normal(size=(5, 1))

        def build():
            tx = Tensor(x, requires_grad=True)
            tv = Tensor(vec, requires_grad=True)
            tc = Tensor(col, requires_grad=True)
            out = T.mul(T.add(tx, tv), tc)
            return T.tsum(T.mul(out, out)), [tx, tv, tc]

        check_grad(build, [x, vec, col], 1e-6, 1e-6)


def test_gather_with_duplicates_grad(rng):
    with T.use_dtype(np.float64):
        x = rng.normal(size=(4, 3))
        idx = np.array([0, 0, 2, 3, 3, 3])

        def build():
            t = Tensor(x, requires_grad=True)
            out = T.gather_rows(t, idx)
            return T.tsum(T.mul(out, np.linspace(0.1, 1.0, out.data.size).reshape(out.shape))), [t]

        check_grad(build, [x], 1e-6, 1e-6)


def test_scatter_take_concat_grads(rng):
    with T.use_dtype(np.float64):
        x = rng.normal(size=(4, 3))

        def build():
            t = Tensor(x, requires_grad=True)
            scattered = T.scatter_rows(t, np.array([1, 3, 3, 0]), 6)
            joined = T.concat_cols([scattered, T.mul(scattered, 2.0)])
            stacked = T.concat_rows([joined, T.mul(joined, -1.0)])
            return T.tsum(T.mul(stacked, np.arange(stacked.data.size).reshape(stacked.shape) * 0.05)), [t]

        check_grad(build, [x], 1e-6, 1e-6)


# -- causal attention over packed sequences ------------------------------------------


def attention_inputs(rng, lengths, n_heads, head_dim):
    """Random packed qkv [sum(lengths), 3 * n_heads * head_dim] plus rotary tables."""
    qkv = rng.normal(size=(sum(lengths), 3 * n_heads * head_dim)).astype(T.default_dtype())
    return qkv, *rope_tables(max(lengths), head_dim)


def test_causal_attention_grad_float64(rng):
    lengths, n_heads, hd = (4, 2, 3), 2, 4
    with T.use_dtype(np.float64):
        qkv, cos, sin = attention_inputs(rng, lengths, n_heads, hd)
        weight = rng.normal(size=(sum(lengths), n_heads * hd))

        def build():
            t = Tensor(qkv, requires_grad=True)
            return T.tsum(T.mul(T.causal_attention(t, lengths, n_heads, cos, sin), weight)), [t]

        loss, (t,) = build()
        loss.backward()
        fd = finite_diff_grad(lambda: build()[0].item(), qkv, 1e-6)
    for block in range(3 * n_heads):  # the q, k and v columns of each head, judged on their own scale
        cols = slice(block * hd, (block + 1) * hd)
        assert np.abs(fd[:, cols]).max() > 1e-3, block
        assert max_rel_err(fd[:, cols], t.grad[:, cols]) < 1e-6, block


def test_causal_attention_ignores_later_rows_and_other_sequences(rng):
    lengths, n_heads, d = (5, 3, 4), 2, 8
    qkv, cos, sin = attention_inputs(rng, lengths, n_heads, d // n_heads)
    base = T.causal_attention(Tensor(qkv), lengths, n_heads, cos, sin).data
    starts = np.cumsum((0,) + lengths[:-1])
    for lo, length in zip(starts, lengths):
        for t in range(lo, lo + length):
            later = qkv.copy()
            later[t + 1 : lo + length] += rng.normal(size=later[t + 1 : lo + length].shape)
            others = qkv.copy()
            others[:lo] += 1.0
            others[lo + length :] -= 1.0
            for changed in (later, others):
                out = T.causal_attention(Tensor(changed), lengths, n_heads, cos, sin).data
                assert np.array_equal(out[lo : t + 1], base[lo : t + 1])
            own_key = qkv.copy()
            own_key[lo, d:] += 1.0  # the sequence's first key and value reach every row of it
            out = T.causal_attention(Tensor(own_key), lengths, n_heads, cos, sin).data
            assert not np.array_equal(out[t], base[t])


@pytest.mark.parametrize("top_k", [1, 2])
def test_moe_experts_grad_float64(top_k, rng):
    n, d, hidden, n_experts = 6, 4, 3, 4
    selected = np.array([[0, 1], [2, 0], [1, 2], [0, 2], [2, 1], [1, 0]])[:, :top_k]  # expert 3 gets no row
    with T.use_dtype(np.float64):
        z = rng.normal(size=(n, d))
        sparse = np.zeros((n, n_experts))
        np.put_along_axis(sparse, selected, rng.uniform(0.2, 1.0, size=selected.shape), axis=1)
        weights = [rng.normal(size=shape) for _ in range(n_experts)
                   for shape in ((d, hidden), (d, hidden), (hidden, d))]  # w_gate, w_up, w_down per expert
        mix = rng.normal(size=(n, d))

        def build():
            tensors = [Tensor(a, requires_grad=True) for a in [z, sparse, *weights]]
            experts = [tuple(tensors[2 + 3 * e : 5 + 3 * e]) for e in range(n_experts)]
            return T.tsum(T.mul(T.moe_experts(tensors[0], tensors[1], selected, experts), mix)), tensors

        check_grad(build, [z, sparse, *weights[:9]], 1e-6, 1e-6)
        loss, tensors = build()
        loss.backward()
    assert all(t.grad is None for t in tensors[-3:])


def test_cross_entropy_grad(rng):
    with T.use_dtype(np.float64):
        logits = rng.normal(size=(5, 4))
        targets = np.array([0, 3, 1, 2, 2])
        weights = np.array([1.0, 0.0, 1.0, 1.0, 1.0])

        def build():
            t = Tensor(logits, requires_grad=True)
            return T.cross_entropy_logits(t, targets, weights), [t]

        check_grad(build, [logits], 1e-6, 1e-6)


# -- optimizer ----------------------------------------------------------------------


def test_adamw_zero_grad_zero_decay_is_noop():
    p = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    p.grad = np.zeros_like(p.data)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)


def test_adamw_none_grad_skipped_entirely():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW([p], lr=0.1, weight_decay=0.5)
    opt.step()
    assert p.data[0] == 1.0


def test_adamw_single_scalar_step():
    # g=1 with fresh state: m_hat = 1, v_hat = 1 -> update ~ lr
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = AdamW([p], lr=0.1, betas=(0.9, 0.999), eps=1e-8)
    p.grad = np.array([1.0], dtype=p.data.dtype)
    opt.step()
    assert p.data[0] == pytest.approx(-0.1, rel=1e-5)


def test_adamw_decoupled_decay_isolated():
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = AdamW([p], lr=1.0, weight_decay=0.01)
    p.grad = np.array([0.0], dtype=p.data.dtype)
    opt.step()
    assert p.data[0] == pytest.approx(2.0 * 0.99, rel=1e-7)


def test_adamw_param_groups_use_their_own_lr():
    a = Tensor(np.array([0.0]), requires_grad=True)
    b = Tensor(np.array([0.0]), requires_grad=True)
    opt = AdamW([{"params": [a], "lr": 0.1}, {"params": [b], "lr": 0.01}], lr=99.0)
    for p in (a, b):
        p.grad = np.array([1.0], dtype=p.data.dtype)
    opt.step()
    assert a.data[0] == pytest.approx(-0.1, rel=1e-5)
    assert b.data[0] == pytest.approx(-0.01, rel=1e-5)


# -- infrastructure ---------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    named = {
        "w": rng.normal(size=(3, 5)).astype(np.float32),
        "layers.0.b": rng.normal(size=(7,)).astype(np.float32),
        "scalarish": rng.normal(size=(1,)).astype(np.float32),
    }
    path = tmp_path / "model.ckpt"
    T.save_checkpoint(named, path)
    loaded = T.load_checkpoint(path)
    assert list(loaded) == list(named)
    for key in named:
        assert loaded[key].shape == named[key].shape
        assert loaded[key].tobytes() == named[key].tobytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        T.load_checkpoint(path)


def test_no_grad_builds_no_graph(rng):
    x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    with T.no_grad():
        out = T.mul(x, x)
    assert not out.requires_grad
    assert out._backward_fn is None


def test_debug_checks_flag_non_finite():
    T.set_debug_checks(True)
    try:
        with pytest.raises(FloatingPointError), np.errstate(over="ignore"):
            T.mul(Tensor(np.array([1e38], dtype=np.float32)), Tensor(np.array([1e38], dtype=np.float32)))
    finally:
        T.set_debug_checks(False)


def test_use_dtype_scopes_storage():
    with T.use_dtype(np.float64):
        assert Tensor(np.zeros(2)).data.dtype == np.float64
    assert Tensor(np.zeros(2)).data.dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_and_silu_saturate_without_overflow_warning(dtype):
    with T.use_dtype(dtype), warnings.catch_warnings():
        warnings.simplefilter("error")
        x = Tensor(np.array([-1000.0, 0.0, 1000.0]), requires_grad=True)
        sig = T.sigmoid(x)
        act = T.silu(x)
        T.tsum(T.add(sig, act)).backward()
    assert sig.data.tolist() == [0.0, 0.5, 1.0]
    assert act.data.tolist() == [0.0, 0.0, 1000.0]
    assert x.grad.tolist() == [0.0, 0.75, 1.0]
