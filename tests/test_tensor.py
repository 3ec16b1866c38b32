import contextlib
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import grad_array, tiny_config
from reference_ops import (moe_experts_ref, rmsnorm_chain_ref, rotary_attention_ref, swiglu_chain_ref,
                           weighted_cross_entropy_ref)
from trafficmoe import tensor as T
from trafficmoe.model import TrafficModel
from trafficmoe.tensor import AdamW, RowGrad, ShapeError, Tensor
from trafficmoe.training import ntp_loss


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
        err = max_rel_err(fd, grad_array(tensor))
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


def test_rmsnorm_op_gives_unit_rms_rows_times_the_gain():
    out = T.rmsnorm(Tensor(np.full((3, 8), 2.0)), Tensor(np.arange(8.0)), eps=0.0)
    assert np.allclose(out.data, np.arange(8.0))


def test_rmsnorm_op_maps_a_zero_row_to_zero():
    out = T.rmsnorm(Tensor(np.zeros((1, 4))), Tensor(np.ones(4)), eps=1e-6)
    assert np.all(out.data == 0.0)


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
    }, x, weight


@pytest.mark.parametrize(
    "name", ["silu", "sigmoid", "softmax"]
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
        loss, (t,) = build()
        loss.backward()
    assert isinstance(t.grad, RowGrad) and t.grad.rows.tolist() == [0, 2, 3] and t.grad.shape == x.shape
    assert t.grad.values.shape == (3, 3) and not t.grad.dense()[1].any()


def test_scatter_rows_grad(rng):
    with T.use_dtype(np.float64):
        x = rng.normal(size=(4, 3))

        def build():
            t = Tensor(x, requires_grad=True)
            scattered = T.scatter_rows(t, np.array([1, 3, 3, 0]), 6)
            return T.tsum(T.mul(scattered, np.arange(scattered.data.size).reshape(scattered.shape) * 0.05)), [t]

        check_grad(build, [x], 1e-6, 1e-6)


def test_gather_twice_plus_matmul_grad_float64(rng):
    # whichever of the three backwards runs first creates t.grad; the other two add into it
    with T.use_dtype(np.float64):
        x = rng.normal(size=(6, 3))
        first, second = np.array([4, 1, 4, 4, 0]), np.array([1, 1, 5, 4])
        proj = rng.normal(size=(3, 6))

        def build():
            t = Tensor(x, requires_grad=True)
            a, b = T.gather_rows(t, first), T.gather_rows(t, second)
            c = T.matmul(T.matmul(a, proj), t)  # [5, 6] @ [6, 3]
            parts = [T.tsum(T.mul(part, part)) for part in (a, b, c)]
            return T.add(T.add(parts[0], parts[1]), parts[2]), [t]

        check_grad(build, [x], 1e-6, 1e-6)


@pytest.mark.parametrize("second", ["gather", "matmul"])
@pytest.mark.parametrize("gather_first", [True, False])
def test_a_second_gradient_densifies_to_the_sum(second, gather_first, rng):
    with T.use_dtype(np.float64):
        x, a = rng.normal(size=(6, 3)), rng.normal(size=(2, 6))
        first, other_ids = np.array([4, 1, 4]), np.array([1, 5])
        w_first, w_other = rng.normal(size=(3, 3)), rng.normal(size=(2, 3))
        t = Tensor(x, requires_grad=True)
        other = T.gather_rows(t, other_ids) if second == "gather" else T.matmul(Tensor(a), t)
        terms = [T.tsum(T.mul(T.gather_rows(t, first), w_first)), T.tsum(T.mul(other, w_other))]
        T.add(*(terms if gather_first else terms[::-1])).backward()
    expected = np.zeros_like(x)
    np.add.at(expected, first, w_first)
    if second == "gather":
        np.add.at(expected, other_ids, w_other)
    else:
        expected += a.T @ w_other
    assert isinstance(t.grad, np.ndarray)
    assert np.allclose(t.grad, expected, rtol=1e-12, atol=0)


def test_segment_sum_forward_and_grad_float64(rng):
    lengths = (3, 1, 4)
    with T.use_dtype(np.float64):
        x, weights = rng.normal(size=(8, 3)), rng.uniform(0.1, 1.0, size=8)
        out = T.segment_sum(Tensor(x), weights, lengths).data
        bounds = np.cumsum((0,) + lengths)
        assert np.allclose(out, [weights[lo:hi] @ x[lo:hi] for lo, hi in zip(bounds, bounds[1:])], rtol=1e-12)

        def build():
            t = Tensor(x, requires_grad=True)
            out = T.segment_sum(t, weights, lengths)
            return T.tsum(T.mul(out, out)), [t]

        check_grad(build, [x], 1e-6, 1e-6)


def test_add_of_a_tensor_with_itself_doubles_and_keeps_upstream(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    upstream = rng.normal(size=(3, 4)).astype(x.data.dtype)
    kept = upstream.copy()
    T.add(x, x).backward(upstream)
    assert np.array_equal(x.grad, 2 * kept)
    assert np.array_equal(upstream, kept)


@pytest.mark.parametrize("sum_first", [True, False])
def test_add_gives_each_parent_its_own_gradient_when_one_fans_out(sum_first, rng):
    # a.grad and b.grad start from the same g of add; a's second term must not reach b.grad
    with T.use_dtype(np.float64):
        w, v = rng.normal(size=(2, 3, 4))
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        terms = [T.tsum(T.mul(T.add(a, b), w)), T.tsum(T.mul(a, v))]
        T.add(*(terms if sum_first else terms[::-1])).backward()
    assert np.allclose(a.grad, w + v, rtol=1e-12, atol=0)
    assert np.allclose(b.grad, w, rtol=1e-12, atol=0)


def test_cross_entropy_backward_holds_one_logits_sized_array(rng):
    logits = Tensor(rng.normal(size=(64, 4096)), requires_grad=True)
    loss = T.cross_entropy_logits(logits, np.arange(64) * 7)
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert logits.data.nbytes <= peak < 1.25 * logits.data.nbytes


# -- causal attention over packed sequences ------------------------------------------


def attention_inputs(rng, lengths, n_heads, head_dim):
    """Random packed qkv [sum(lengths), 3 * n_heads * head_dim]."""
    return rng.normal(size=(sum(lengths), 3 * n_heads * head_dim)).astype(T.default_dtype())


def test_causal_attention_grad_float64(rng):
    lengths, n_heads, hd = (4, 2, 3), 2, 4
    with T.use_dtype(np.float64):
        qkv = attention_inputs(rng, lengths, n_heads, hd)
        weight = rng.normal(size=(sum(lengths), n_heads * hd))

        def build():
            t = Tensor(qkv, requires_grad=True)
            return T.tsum(T.mul(T.causal_attention(t, lengths, n_heads), weight)), [t]

        loss, (t,) = build()
        loss.backward()
        fd = finite_diff_grad(lambda: build()[0].item(), qkv, 1e-6)
    for block in range(3 * n_heads):  # the q, k and v columns of each head, judged on their own scale
        cols = slice(block * hd, (block + 1) * hd)
        assert np.abs(fd[:, cols]).max() > 1e-3, block
        assert max_rel_err(fd[:, cols], t.grad[:, cols]) < 1e-6, block


def test_causal_attention_ignores_later_rows_and_other_sequences(rng):
    lengths, n_heads, d = (5, 3, 4), 2, 8
    qkv = attention_inputs(rng, lengths, n_heads, d // n_heads)
    base = T.causal_attention(Tensor(qkv), lengths, n_heads).data
    starts = np.cumsum((0,) + lengths[:-1])
    for lo, length in zip(starts, lengths):
        for t in range(lo, lo + length):
            later = qkv.copy()
            later[t + 1 : lo + length] += rng.normal(size=later[t + 1 : lo + length].shape)
            others = qkv.copy()
            others[:lo] += 1.0
            others[lo + length :] -= 1.0
            for changed in (later, others):
                out = T.causal_attention(Tensor(changed), lengths, n_heads).data
                assert np.array_equal(out[lo : t + 1], base[lo : t + 1])
            own_key = qkv.copy()
            own_key[lo, d:] += 1.0  # the sequence's first key and value reach every row of it
            out = T.causal_attention(Tensor(own_key), lengths, n_heads).data
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


@pytest.mark.parametrize("bad", [4, -1])
def test_moe_experts_rejects_an_expert_out_of_range(bad, rng):
    n, d, hidden, n_experts = 3, 4, 3, 4
    experts = [tuple(Tensor(rng.normal(size=shape)) for shape in ((d, hidden), (d, hidden), (hidden, d)))
               for _ in range(n_experts)]
    selected = np.array([[0, 1], [2, bad], [3, 0]])
    with pytest.raises(ShapeError, match="moe_experts"):
        T.moe_experts(rng.normal(size=(n, d)), np.full((n, n_experts), 0.25), selected, experts)


@pytest.mark.parametrize("top_k, dtype", [(1, np.float32), (2, np.float32), (3, np.float64)])
def test_moe_experts_matches_the_slot_buffer_reference(top_k, dtype, rng):
    """Bitwise at k <= 2, where adding a row's terms in expert order gives its slot sum exactly; at k = 3
    the three terms are added in another order, so they agree to 1e-12 relative in float64."""
    n, d, hidden, n_experts = 40, 16, 8, 6
    selected = np.argsort(rng.uniform(size=(n, n_experts)), axis=1)[:, :top_k]  # distinct experts per row
    arrays = [rng.normal(size=(n, d)), rng.uniform(size=(n, n_experts))] + [
        rng.normal(size=shape) for _ in range(n_experts) for shape in ((d, hidden), (d, hidden), (hidden, d))]
    mix = np.sin(np.arange(n * d)).reshape(n, d)
    results = []
    with T.use_dtype(dtype):
        for op in (T.moe_experts, moe_experts_ref):
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            out = op(tensors[0], tensors[1], selected, [tuple(tensors[i : i + 3]) for i in range(2, len(tensors), 3)])
            T.tsum(T.mul(out, mix)).backward()
            results.append([out.data] + [t.grad for t in tensors])
    assert all(g is not None and g.dtype == dtype for g in results[0])  # every expert served a row
    for new, old in zip(*results):
        if top_k <= 2:
            assert np.array_equal(new, old)
        else:
            assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))


# -- fused SwiGLU and RMSNorm, and every rewritten op against its reference copy -----------


def swiglu_inputs(rng, n=5, d=4, hidden=3):
    """float64 (x, w_gate, w_up, w_down) with some pre-activations far below zero."""
    x, w_gate, w_up, w_down = (rng.normal(size=s) for s in ((n, d), (d, hidden), (d, hidden), (hidden, d)))
    x[0] *= 40.0
    return [x, w_gate, w_up, w_down]


def test_swiglu_grad_float64(rng):
    with T.use_dtype(np.float64):
        arrays, weight = swiglu_inputs(rng), rng.normal(size=(5, 4))

        def build():
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            return T.tsum(T.mul(T.swiglu(*tensors), weight)), tensors

        check_grad(build, arrays, 1e-6, 1e-6)


def test_swiglu_keeps_four_arrays_for_backward_and_none_without(rng):
    arrays = swiglu_inputs(rng)
    assert [a.shape for a in T._swiglu_forward(*arrays, keep=True)[1]] == [(5, 3)] * 4  # pre, up, act, hidden
    assert T._swiglu_forward(*arrays, keep=False)[1] is None


def test_swiglu_rejects_mismatched_shapes(rng):
    x, w_gate, w_up, w_down = swiglu_inputs(rng)
    with pytest.raises(ShapeError, match="swiglu"):
        T.swiglu(x, w_gate, w_up[:, :2], w_down)


def test_rmsnorm_grad_float64(rng):
    with T.use_dtype(np.float64):
        x, gain, weight = rng.normal(size=(4, 6)), rng.normal(size=6), rng.normal(size=(4, 6))

        def build():
            tensors = [Tensor(x, requires_grad=True), Tensor(gain, requires_grad=True)]
            return T.tsum(T.mul(T.rmsnorm(*tensors), weight)), tensors

        check_grad(build, [x, gain], 1e-6, 1e-6)


def reference_cases(rng):
    """name -> (op, its reference copy, the float64 arrays both take as inputs)."""
    lengths, n_heads = (5, 1, 3), 2
    return {
        "attention": (lambda t: T.causal_attention(t, lengths, n_heads),
                      lambda t: rotary_attention_ref(t, lengths, n_heads), [rng.normal(size=(9, 3 * 2 * 6))]),
        "swiglu": (T.swiglu, swiglu_chain_ref, swiglu_inputs(rng)),
        "rmsnorm": (T.rmsnorm, rmsnorm_chain_ref, [rng.normal(size=(7, 6)), rng.normal(size=6)]),
    }


@pytest.mark.parametrize("name", ["attention", "swiglu", "rmsnorm"])
def test_rewritten_op_matches_its_reference_copy_float64(name, rng):
    results = []
    with T.use_dtype(np.float64):
        op, ref, arrays = reference_cases(rng)[name]
        for fn in (op, ref):
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            out = fn(*tensors)
            T.tsum(T.mul(out, np.sin(np.arange(out.data.size)).reshape(out.shape))).backward()
            results.append([out.data] + [t.grad for t in tensors])
    for new, old in zip(*results):
        assert np.max(np.abs(new - old)) <= 1e-10 * np.max(np.abs(old)), name


def test_cross_entropy_grad(rng):
    with T.use_dtype(np.float64):
        logits = rng.normal(size=(5, 4))
        targets = np.array([0, 3, 1, 2, 2])

        def build():
            t = Tensor(logits, requires_grad=True)
            return T.cross_entropy_logits(t, targets), [t]

        check_grad(build, [logits], 1e-6, 1e-6)


def head_inputs(rng, n, d, vocab):
    """float64 (h, w_vocab, targets, weights) for ``lm_head_loss``; weights include zeros."""
    weights = rng.uniform(0.0, 2.0, size=n) * (rng.uniform(size=n) > 0.25)
    weights[0] = 1.0
    return rng.normal(size=(n, d)), rng.normal(size=(d, vocab)), rng.integers(0, vocab, size=n), weights


def test_lm_head_loss_grad_float64_across_chunks(rng, monkeypatch):
    monkeypatch.setattr(T, "LM_HEAD_CHUNK", 3)  # 7 rows: chunks of 3, 3 and 1
    with T.use_dtype(np.float64):
        h, w_vocab, targets, weights = head_inputs(rng, 7, 4, 5)

        def build():
            tensors = [Tensor(h, requires_grad=True), Tensor(w_vocab, requires_grad=True)]
            return T.lm_head_loss(*tensors, targets, weights), tensors

        check_grad(build, [h, w_vocab], 1e-6, 1e-7)


def test_lm_head_loss_matches_unfused_head_float64(rng):
    n = 2 * T.LM_HEAD_CHUNK + 37  # not a multiple of the chunk; the second chunk weighs 0
    with T.use_dtype(np.float64):
        h, w_vocab, targets, weights = head_inputs(rng, n, 6, 11)
        weights[T.LM_HEAD_CHUNK : 2 * T.LM_HEAD_CHUNK] = 0.0
        results = []
        for fused in (True, False):
            tensors = [Tensor(h, requires_grad=True), Tensor(w_vocab, requires_grad=True)]
            if fused:
                loss = T.lm_head_loss(*tensors, targets, weights)
            else:
                loss = weighted_cross_entropy_ref(T.matmul(*tensors), targets, weights)
            T.mul(loss, 0.5).backward()  # an upstream gradient other than 1
            results.append([loss.data] + [t.grad for t in tensors])
    for fused, unfused in zip(*results):
        assert np.allclose(fused, unfused, rtol=1e-10, atol=0)
    assert not results[0][1][T.LM_HEAD_CHUNK : 2 * T.LM_HEAD_CHUNK].any()


def test_lm_head_loss_keeps_no_gradient_without_grad(rng):
    h, w_vocab = rng.normal(size=(8, 512)), rng.normal(size=(512, 2048))  # dW would be 4 MB at float32
    targets, weights = rng.integers(0, 2048, size=8), np.ones(8)
    params = [Tensor(h, requires_grad=True), Tensor(w_vocab, requires_grad=True)]
    results = []
    for grad_mode, inputs in ((T.no_grad, params), (contextlib.nullcontext, (Tensor(h), Tensor(w_vocab)))):
        tracemalloc.start()
        try:
            with grad_mode():
                loss = T.lm_head_loss(*inputs, targets, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not loss.requires_grad and loss._backward_fn is None and loss._parents == ()
        assert peak < w_vocab.size  # a quarter of dW's float32 bytes: neither dW nor dh was built
        results.append(loss.item())
    results.append(T.lm_head_loss(*params, targets, weights).item())  # the gradient path's loss
    assert results[0] == results[1] == results[2]


def test_lm_head_loss_counts_the_logits_product_once(rng):
    n, d, vocab = T.LM_HEAD_CHUNK + 5, 4, 9
    h, w_vocab, targets, weights = head_inputs(rng, n, d, vocab)
    params = [Tensor(h, requires_grad=True), Tensor(w_vocab, requires_grad=True)]
    before = T.matmul_flops()
    loss = T.lm_head_loss(*params, targets, weights)
    assert T.matmul_flops() - before == 2 * n * d * vocab
    loss.backward()
    assert T.matmul_flops() - before == 2 * n * d * vocab


def test_lm_head_loss_holds_one_chunk_of_logits(rng):
    n, d, vocab = 4 * T.LM_HEAD_CHUNK, 8, 2048
    h = Tensor(rng.normal(size=(n, d)).astype(np.float32), requires_grad=True)
    w_vocab = Tensor(rng.normal(size=(d, vocab)).astype(np.float32), requires_grad=True)
    targets = rng.integers(0, vocab, size=n)
    chunk_bytes = T.LM_HEAD_CHUNK * vocab * 4
    tracemalloc.start()
    try:
        T.lm_head_loss(h, w_vocab, targets, np.ones(n)).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * chunk_bytes < 0.5 * n * vocab * 4


@pytest.mark.skipif(T._openblas_calls(*T._GEMM_SYMBOLS) is None, reason="needs the bundled OpenBLAS's GEMM")
def test_lm_head_loss_adds_each_chunk_into_dw_in_place(rng):
    n, d, vocab = 4 * T.LM_HEAD_CHUNK, T.LM_HEAD_CHUNK, 2048  # dW [d, V] is as large as one chunk of logits
    h = Tensor(rng.normal(size=(n, d)).astype(np.float32))  # no dh: only the logits buffer and dW are large
    w_vocab = Tensor(rng.normal(size=(d, vocab)).astype(np.float32), requires_grad=True)
    targets = rng.integers(0, vocab, size=n)
    chunk_bytes = T.LM_HEAD_CHUNK * vocab * 4
    tracemalloc.start()
    try:
        T.lm_head_loss(h, w_vocab, targets, np.ones(n)).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * chunk_bytes  # a [d, V] temporary per chunk would make it at least 3


@pytest.mark.skipif(T._openblas_calls(*T._GEMM_SYMBOLS) is None, reason="needs the bundled OpenBLAS's GEMM")
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gemm_tn_add_matches_numpy_to_rounding(dtype, rng):
    a, b, c = (rng.normal(size=shape).astype(dtype) for shape in ((37, 5), (37, 11), (5, 11)))
    want = c + a.T @ b
    T._gemm_tn_add(c, a, b)
    assert np.allclose(c, want, rtol=0, atol=64 * np.finfo(dtype).eps * np.abs(want).max())


def test_without_the_gemm_symbols_the_head_adds_dw_through_numpy(rng, monkeypatch):
    monkeypatch.setattr(T, "_GEMM_SYMBOLS", ("missing_sgemm", "missing_dgemm"))
    assert T._openblas_calls(*T._GEMM_SYMBOLS) is None
    a, b, c = (rng.normal(size=shape).astype(np.float32) for shape in ((37, 5), (37, 11), (5, 11)))
    want = c + a.T @ b
    T._gemm_tn_add(c, a, b)
    assert np.array_equal(c, want)
    test_lm_head_loss_matches_unfused_head_float64(rng)
    test_lm_head_loss_grad_float64_across_chunks(rng, monkeypatch)


def test_lm_head_loss_rejects_mismatched_shapes(rng):
    h, w_vocab, targets, weights = head_inputs(rng, 5, 3, 4)
    with pytest.raises(ShapeError, match="lm_head_loss"):
        T.lm_head_loss(h, w_vocab.T, targets, weights)
    with pytest.raises(ShapeError, match="lm_head_loss"):
        T.lm_head_loss(h, w_vocab, targets[:4], weights)
    with pytest.raises(ValueError, match="weighted row"):
        T.lm_head_loss(h, w_vocab, targets, np.zeros(5))


# -- optimizer ----------------------------------------------------------------------


def test_adamw_zero_grad_zero_decay_is_noop():
    p = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    opt = AdamW([(p, 0.1, 0.0)])
    p.grad = np.zeros_like(p.data)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)


def test_adamw_none_grad_skipped_entirely():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW([(p, 0.1, 0.5)])
    opt.step()
    assert p.data[0] == 1.0


def test_adamw_single_scalar_step():
    # g=1 with fresh state: m_hat = 1, v_hat = 1 -> update ~ lr
    assert (T.ADAMW_BETAS, T.ADAMW_EPS) == ((0.9, 0.999), 1e-8)
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = AdamW([(p, 0.1, 0.0)])
    p.grad = np.array([1.0], dtype=p.data.dtype)
    opt.step()
    assert p.data[0] == pytest.approx(-0.1, rel=1e-5)


def test_adamw_decoupled_decay_isolated():
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = AdamW([(p, 1.0, 0.01)])
    p.grad = np.array([0.0], dtype=p.data.dtype)
    opt.step()
    assert p.data[0] == pytest.approx(2.0 * 0.99, rel=1e-7)


def test_adamw_param_groups_use_their_own_lr():
    a = Tensor(np.array([0.0]), requires_grad=True)
    b = Tensor(np.array([0.0]), requires_grad=True)
    opt = AdamW([(a, 0.1, 0.0), (b, 0.01, 0.0)])
    for p in (a, b):
        p.grad = np.array([1.0], dtype=p.data.dtype)
    opt.step()
    assert a.data[0] == pytest.approx(-0.1, rel=1e-5)
    assert b.data[0] == pytest.approx(-0.01, rel=1e-5)


def test_adamw_float64_matches_formula_over_blocks_and_groups(rng):
    lr, wd, eps, b1, b2 = (0.1, 0.05), (0.0, 0.02), 1e-8, 0.9, 0.999
    with T.use_dtype(np.float64):
        starts = [rng.normal(size=(2, 3)), rng.normal(size=2 * T.ADAMW_BLOCK + 13)]  # 3 blocks, the last partial
        params = [Tensor(a, requires_grad=True) for a in starts]
        opt = AdamW(list(zip(params, lr, wd)))
        expected = [a.copy() for a in starts]
        moments = [[0.0, 0.0], [0.0, 0.0]]
        for t in range(1, 6):
            grads = [rng.normal(size=a.shape) for a in starts]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            opt.step()
            for i, g in enumerate(grads):  # Loshchilov & Hutter, Algorithm 2, with eta = lr and alpha = 1
                m, v = moments[i]
                m, v = b1 * m + (1 - b1) * g, b2 * v + (1 - b2) * g * g
                moments[i] = [m, v]
                m_hat, v_hat = m / (1 - b1**t), v / (1 - b2**t)
                expected[i] = expected[i] - lr[i] * (m_hat / (np.sqrt(v_hat) + eps) + wd[i] * expected[i])
    for p, want in zip(params, expected):
        assert np.allclose(p.data, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("wd", [0.0, 0.05])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_row_grad_step_matches_dense_step_on_its_rows(dtype, wd, rng):
    n, d = 8000, 64
    rows = np.sort(rng.choice(n, size=4400, replace=False))  # 281,600 elements: two full blocks and a partial one
    assert len(rows) * d > 2 * T.ADAMW_BLOCK
    with T.use_dtype(dtype):
        start = rng.normal(size=(n, d))
        params = [Tensor(start.copy(), requires_grad=True) for _ in range(2)]
        opts = [AdamW([(p, 0.01, wd)]) for p in params]
        for _ in range(3):  # the same dense history on both sides: prior p, m and v
            g = rng.normal(size=(n, d)).astype(dtype)
            for p, opt in zip(params, opts):
                p.grad = g.copy()
                opt.step()
        sparse = RowGrad(rows, rng.normal(size=(len(rows), d)).astype(dtype), (n, d))
        (p_row, p_dense), (opt_row, opt_dense) = params, opts
        p_row.grad, p_dense.grad = sparse, sparse.dense()
        before = [p_row.data.copy()] + [a.reshape(n, d).copy() for a in opt_row._moments[id(p_row)]]
        for opt in opts:
            opt.step()
    after_row = [p_row.data] + [a.reshape(n, d) for a in opt_row._moments[id(p_row)]]
    after_dense = [p_dense.data] + [a.reshape(n, d) for a in opt_dense._moments[id(p_dense)]]
    others = np.setdiff1d(np.arange(n), rows)
    for row_side, dense_side, old in zip(after_row, after_dense, before):  # p, m and v
        assert row_side.dtype == dtype
        assert np.array_equal(row_side[rows], dense_side[rows])
        assert np.array_equal(row_side[others], old[others])
        assert not np.array_equal(row_side[rows], old[rows])


def lm_step_grads(model, ids):
    """One next-token forward and backward of ``model`` over ``ids``: ``embed.tok`` gets a ``RowGrad``."""
    model.zero_grad()
    h, _ = model.forward(ids, mode="hidden")
    ntp_loss(h, model.params["head.vocab"], ids, np.ones(ids.shape, bool)).backward()
    assert isinstance(model.params["embed.tok"].grad, RowGrad)


@pytest.mark.skipif(T.blas_thread_count() is None, reason="needs the bundled OpenBLAS's thread count")
def test_threaded_adamw_is_bitwise_the_serial_step(monkeypatch):
    ids = np.random.default_rng(1).integers(4, 64, size=(3, 12))
    models = [TrafficModel(tiny_config(), seed=0) for _ in range(2)]
    opts = [AdamW([(p, 0.01, 0.05) for p in model.params.values()]) for model in models]
    update, callers, main = T._adamw_update, [], threading.get_ident()
    monkeypatch.setattr(T, "_adamw_update", lambda jobs: (callers.append(threading.get_ident()), update(jobs)))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the update threads trade the interpreter lock as often as they can
    try:
        for _ in range(3):
            for model, opt, floor in zip(models, opts, (1 << 62, 0)):  # serial, then threaded
                lm_step_grads(model, ids)
                monkeypatch.setattr(T, "ADAMW_THREADED_MIN", floor)
                callers.clear()
                with T.blas_threads(3):  # more threads than this machine's 2 cores
                    opt.step()
                assert callers == [main] if floor else len(callers) == 3 and main not in callers
            for (name, p_serial), p_threaded in zip(models[0].params.items(), models[1].params.values()):
                assert np.array_equal(p_serial.data, p_threaded.data), name
                moments = [opt._moments.get(id(p)) for opt, p in zip(opts, (p_serial, p_threaded))]  # None: no grad
                assert np.array_equal(*moments), name
    finally:
        sys.setswitchinterval(switch)


def test_without_the_park_symbol_adamw_steps_serially(monkeypatch):
    ids = np.random.default_rng(1).integers(4, 64, size=(3, 12))
    models = [TrafficModel(tiny_config(), seed=0) for _ in range(2)]
    opts = [AdamW([(p, 0.01, 0.0) for p in model.params.values()]) for model in models]
    lm_step_grads(models[0], ids)
    opts[0].step()  # below the floor: serial
    monkeypatch.setattr(T, "_PARK_SYMBOLS", ("missing_blas_thread_shutdown",))
    monkeypatch.setattr(T, "ThreadPoolExecutor", None)  # a worker pool would now raise TypeError
    monkeypatch.setattr(T, "ADAMW_THREADED_MIN", 0)
    lm_step_grads(models[1], ids)
    with T.blas_threads(2):
        opts[1].step()
    for name, p in models[0].params.items():
        assert np.array_equal(p.data, models[1].params[name].data), name


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


def test_backward_frees_interior_gradients_and_keeps_leaves():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    w = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    y = T.mul(x, w)  # interior
    loss = T.tsum(T.mul(y, y))  # sum (x w)^2
    loss.backward()
    assert y.grad is None and loss.grad is None
    assert x.grad.tolist() == [0.5, 4.0, 24.0]  # 2 x w^2
    assert w.grad.tolist() == [1.0, -8.0, 36.0]  # 2 w x^2


def test_backward_drops_each_interior_node_from_the_graph(rng):
    x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    y = T.mul(x, x)
    loss = T.tsum(y)
    loss.backward()
    for node in (y, loss):
        assert node._parents == ()
    assert x.grad is not None


def test_second_backward_through_a_freed_graph_raises(rng):
    x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    y = T.mul(x, x)
    T.tsum(y).backward()
    first = x.grad.copy()
    for root in (T.tsum(y), T.tsum(T.mul(y, 2.0))):  # the freed node as root's parent, and deeper
        with pytest.raises(RuntimeError, match="freed"):
            root.backward()
    assert np.array_equal(x.grad, first)  # nothing ran before the error


def test_no_grad_builds_no_graph(rng):
    x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    with T.no_grad():
        out = T.mul(x, x)
    assert not out.requires_grad
    assert out._backward_fn is None


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


def test_flop_and_allocation_tallies_lose_no_add_across_threads():
    """More threads than cores run ops at once, switching as often as the interpreter allows:
    every matmul's FLOPs and every output's bytes must reach the tallies."""
    a, b = Tensor(np.ones((1, 3))), Tensor(np.ones((3, 2)))
    n_threads, calls = 4, 5000
    flops, alloc = T.matmul_flops(), T.alloc_bytes()
    workers = [threading.Thread(target=lambda: [T.matmul(a, b) for _ in range(calls)]) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert T.matmul_flops() - flops == n_threads * calls * 2 * 1 * 3 * 2
    assert T.alloc_bytes() - alloc == n_threads * calls * 2 * np.dtype(T.default_dtype()).itemsize
