import math
import threading
from collections import Counter

import numpy as np
import pytest

from conftest import grad_array, lm_logits, tiny_config
from reference_ops import weighted_cross_entropy_ref
from trafficmoe import model as model_module
from trafficmoe import tensor as T
from trafficmoe.evaluation import build_dense_variant
from trafficmoe.model import (
    LayerRouting,
    ModelConfig,
    TrafficModel,
    forward_in_shards,
    load_balance_loss,
    packed_rows,
    parameter_specs,
    rmsnorm,
    route_tokens,
    shard_bounds,
    swiglu,
)
from trafficmoe.tensor import Tensor


# -- reference implementations (kept independent of the library code) -----------


def rmsnorm_ref(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    out = np.empty_like(x)
    for t in range(x.shape[0]):
        rms = math.sqrt(float(np.mean(x[t] ** 2)) + eps)
        out[t] = x[t] / rms * gain
    return out


def rope_ref(x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    half = x.shape[1] // 2
    for t in range(x.shape[0]):
        for i in range(half):
            angle = positions[t] * 10000.0 ** (-2.0 * i / x.shape[1])
            c, s = math.cos(angle), math.sin(angle)
            out[t, 2 * i] = x[t, 2 * i] * c - x[t, 2 * i + 1] * s
            out[t, 2 * i + 1] = x[t, 2 * i] * s + x[t, 2 * i + 1] * c
    return out


def softmax_ref(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def swiglu_ref(z: np.ndarray, w_gate, w_up, w_down) -> np.ndarray:
    gate = z @ w_gate
    gate = gate / (1.0 + np.exp(-gate)) * 1.0  # SiLU
    return (gate * (z @ w_up)) @ w_down


def head_weights(model: TrafficModel, layer: int, head: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(wq, wk, wv) of one head: its ``head_dim`` columns in each of the q, k and v parts of ``wqkv``."""
    d, hd = model.config.d_model, model.config.head_dim
    w = model.params[f"layers.{layer}.attn.wqkv"].data
    return tuple(w[:, part * d + head * hd : part * d + (head + 1) * hd] for part in range(3))


def attention_oracle(h: np.ndarray, model: TrafficModel, layer: int) -> np.ndarray:
    """Loop re-computation of the attention sublayer."""
    cfg = model.config
    p = {k: v.data for k, v in model.params.items()}
    z = rmsnorm_ref(h, p[f"layers.{layer}.attn.norm_gain"])
    seq_len = h.shape[0]
    positions = np.arange(seq_len)
    heads = []
    for j in range(cfg.n_heads):
        wq, wk, wv = head_weights(model, layer, j)
        q = rope_ref(z @ wq, positions)
        k = rope_ref(z @ wk, positions)
        v = z @ wv
        out = np.zeros_like(v)
        for t in range(seq_len):
            scores = np.array([q[t] @ k[pos] / math.sqrt(cfg.head_dim) for pos in range(t + 1)])
            weights = softmax_ref(scores)
            out[t] = sum(weights[pos] * v[pos] for pos in range(t + 1))
        heads.append(out)
    return h + np.concatenate(heads, axis=1) @ p[f"layers.{layer}.attn.wo"]


def moe_oracle(h: np.ndarray, model: TrafficModel, layer: int, top_k: int) -> np.ndarray:
    """Dense loop evaluation of every expert, then top-k masking."""
    cfg = model.config
    p = {k: v.data for k, v in model.params.items()}
    z = rmsnorm_ref(h, p[f"layers.{layer}.ffn.norm_gain"])
    scores = np.stack([softmax_ref(row) for row in z @ p[f"layers.{layer}.moe.router"]])
    gate = 1.0 / (1.0 + np.exp(-(z @ p[f"layers.{layer}.moe.shared_gate"])))
    shared = f"layers.{layer}.moe.shared"
    out = h + gate * swiglu_ref(
        z, p[f"{shared}.w_gate"], p[f"{shared}.w_up"], p[f"{shared}.w_down"]
    )
    for t in range(h.shape[0]):
        keep = np.argsort(-scores[t], kind="stable")[:top_k]
        for e in keep:
            base = f"layers.{layer}.moe.expert{e}"
            expert_out = swiglu_ref(
                z[t : t + 1], p[f"{base}.w_gate"], p[f"{base}.w_up"], p[f"{base}.w_down"]
            )
            out[t] += scores[t, e] * expert_out[0]
    return out


def rope(x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The rotation ``tensor.causal_attention`` applies to k (and, times 1/sqrt(head_dim), to q):
    feature pairs read as complex numbers, times the ``rope_tables`` rows of the given positions."""
    pairs = np.ascontiguousarray(x).view(np.result_type(x.dtype, np.complex64))
    return (pairs * T.rope_tables(int(np.max(positions)) + 1, x.shape[-1])[positions].astype(pairs.dtype)).view(x.dtype)


def moe_block(model: TrafficModel, h: Tensor, layer: int) -> tuple[Tensor, list[LayerRouting]]:
    routing = []
    return model._moe_block(h, layer, routing), routing


# -- rmsnorm --------------------------------------------------------------------


def test_rmsnorm_constant_rows():
    x = Tensor(np.full((3, 8), 5.0))
    out = rmsnorm(x, Tensor(np.ones(8)))
    assert np.allclose(out.data, 1.0, atol=1e-4)


def test_rmsnorm_zero_rows():
    out = rmsnorm(Tensor(np.zeros((2, 8))), Tensor(np.ones(8)))
    assert np.all(out.data == 0.0)


def test_rmsnorm_matches_reference(rng):
    x = rng.normal(size=(10, 16)).astype(np.float32)
    gain = rng.normal(size=16).astype(np.float32)
    out = rmsnorm(Tensor(x), Tensor(gain)).data
    assert np.max(np.abs(out - rmsnorm_ref(x, gain))) < 1e-6


# -- rotary embedding ---------------------------------------------------------------


def test_rope_identity_at_position_zero(rng):
    x = rng.normal(size=(4, 8)).astype(np.float32)
    out = rope(x, np.zeros(4, dtype=int))
    assert np.allclose(out, x, atol=1e-7)


def test_rope_preserves_norms(rng):
    x = rng.normal(size=(6, 16)).astype(np.float32)
    out = rope(x, np.arange(6) * 3)
    assert np.allclose(np.linalg.norm(out, axis=1), np.linalg.norm(x, axis=1), atol=1e-5)


def test_rope_matches_reference(rng):
    x = rng.normal(size=(5, 8)).astype(np.float32)
    positions = np.array([0, 1, 2, 5, 9])
    out = rope(x, positions)
    assert np.max(np.abs(out - rope_ref(x, positions))) < 1e-5


def test_rope_relative_offset_property(rng):
    q = rng.normal(size=8).astype(np.float64)
    k = rng.normal(size=8).astype(np.float64)
    with T.use_dtype(np.float64):
        inner = {}
        for p1 in range(0, 12, 2):
            for offset in (0, 1, 3):
                p2 = p1 + offset
                rq = rope(q[None, :], np.array([p1]))[0]
                rk = rope(k[None, :], np.array([p2]))[0]
                inner.setdefault(offset, []).append(float(rq @ rk))
        for offset, values in inner.items():
            assert max(values) - min(values) < 1e-4


def test_rope_rejects_odd_dim():
    with pytest.raises(T.ShapeError):
        T.rope_tables(2, 3)


# -- attention ------------------------------------------------------------------------


def test_attention_single_token(tiny_model):
    h = np.random.default_rng(1).normal(size=(1, 16)).astype(np.float32)
    out = tiny_model._attention_block(Tensor(h), 0, np.array([len(h)])).data
    # with T=1 the attention weight is 1 on self: output = h + concat(v) @ wo
    p = {k: v.data for k, v in tiny_model.params.items()}
    z = rmsnorm_ref(h, p["layers.0.attn.norm_gain"])
    v = np.concatenate([z @ head_weights(tiny_model, 0, j)[2] for j in range(2)], axis=1)
    expected = h + v @ p["layers.0.attn.wo"]
    assert np.max(np.abs(out - expected)) < 1e-6


def test_attention_matches_loop_oracle(tiny_model, rng):
    h = rng.normal(size=(3, 16)).astype(np.float32)
    out = tiny_model._attention_block(Tensor(h), 1, np.array([len(h)])).data
    expected = attention_oracle(h, tiny_model, 1)
    assert np.max(np.abs(out - expected)) < 1e-5


def test_attention_causality_bitwise(tiny_model, rng):
    h = rng.normal(size=(6, 16)).astype(np.float32)
    base = tiny_model._attention_block(Tensor(h), 0, np.array([len(h)])).data.copy()
    perturbed = h.copy()
    perturbed[4:] += rng.normal(size=(2, 16)).astype(np.float32)
    after = tiny_model._attention_block(Tensor(perturbed), 0, np.array([len(h)])).data
    assert np.array_equal(base[:4], after[:4])


# -- routing -----------------------------------------------------------------------------


def test_route_uniform_logits_tie_break():
    z = Tensor(np.zeros((3, 4)))
    w = Tensor(np.zeros((4, 4)))
    scores, selected = route_tokens(z, w, 2)
    assert np.allclose(scores.data, 0.25, atol=1e-7)
    assert np.array_equal(selected, np.tile([0, 1], (3, 1)))


def test_route_k_equals_n_is_dense(rng):
    z = Tensor(rng.normal(size=(5, 8)))
    w = Tensor(rng.normal(size=(8, 6)))
    _, selected = route_tokens(z, w, 6)
    assert np.array_equal(np.sort(selected, axis=1), np.tile(np.arange(6), (5, 1)))


def test_route_known_logits():
    # softmax([2,1,0,-1]) = e^x / sum: top-2 keeps experts 0 and 1
    d = 4
    z = Tensor(np.eye(1, d))
    w = Tensor(np.array([[2.0, 1.0, 0.0, -1.0]] + [[0.0] * 4] * (d - 1)))
    scores, selected = route_tokens(z, w, 2)
    e = np.exp([2.0, 1.0, 0.0, -1.0])
    expected = e / e.sum()
    assert np.allclose(scores.data[0], expected, atol=1e-6)
    assert selected[0].tolist() == [0, 1]


def test_route_rows_sum_to_one_and_k_nonzeros(rng):
    z = Tensor(rng.normal(size=(50, 12)) * 3)
    w = Tensor(rng.normal(size=(12, 8)))
    for k in (1, 2, 3, 8):
        scores, selected = route_tokens(z, w, k)
        assert np.allclose(scores.data.sum(axis=1), 1.0, atol=1e-6)
        assert selected.shape == (50, k)
        top_k = np.take_along_axis(scores.data, selected, axis=1)
        assert np.array_equal(np.sort(top_k, axis=1), np.sort(scores.data, axis=1)[:, -k:])


# -- experts ------------------------------------------------------------------------------


def test_expert_zero_input():
    out = swiglu(
        Tensor(np.zeros((3, 4))), Tensor(np.ones((4, 6))), Tensor(np.ones((4, 6))), Tensor(np.ones((6, 4)))
    )
    assert np.all(out.data == 0.0)


def test_expert_hand_computed_scalar_case():
    # d=2, hidden=2, one token [1, 2]; weights chosen for easy arithmetic
    z = Tensor(np.array([[1.0, 2.0]]))
    w_gate = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    w_up = Tensor(np.array([[2.0, 0.0], [0.0, 0.5]]))
    w_down = Tensor(np.array([[1.0, 1.0], [1.0, -1.0]]))
    out = swiglu(z, w_gate, w_up, w_down).data[0]
    silu1 = 1.0 / (1.0 + math.exp(-1.0))          # SiLU(1)
    silu2 = 2.0 * (1.0 / (1.0 + math.exp(-2.0)))  # SiLU(2)
    h1, h2 = silu1 * 2.0, silu2 * 1.0
    assert out[0] == pytest.approx(h1 + h2, rel=1e-6)
    assert out[1] == pytest.approx(h1 - h2, rel=1e-6)


def test_expert_gradient_finite_difference(rng):
    with T.use_dtype(np.float64):
        z = rng.normal(size=(3, 4))
        w_gate = rng.normal(size=(4, 5))
        w_up = rng.normal(size=(4, 5))
        w_down = rng.normal(size=(5, 4))
        weight = rng.normal(size=(3, 4))

        def loss_of(arrs):
            tz, tg, tu, td = (Tensor(a, requires_grad=True) for a in arrs)
            loss = T.tsum(T.mul(swiglu(tz, tg, tu, td), weight))
            return loss, (tz, tg, tu, td)

        loss, tensors = loss_of((z, w_gate, w_up, w_down))
        loss.backward()
        for arr, tensor in zip((z, w_gate, w_up, w_down), tensors):
            flat = arr.reshape(-1)
            for idx in rng.choice(flat.size, size=4, replace=False):
                orig = flat[idx]
                h = 1e-6
                flat[idx] = orig + h
                up = loss_of((z, w_gate, w_up, w_down))[0].item()
                flat[idx] = orig - h
                down = loss_of((z, w_gate, w_up, w_down))[0].item()
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                assert fd == pytest.approx(tensor.grad.reshape(-1)[idx], rel=1e-3, abs=1e-9)


# -- the expert sublayer -----------------------------------------------------------------


def test_moe_layer_matches_dense_oracle_k_equals_n(rng):
    cfg = tiny_config(top_k=4, ffn_hidden=32)  # k = N: dense mixture
    model = TrafficModel(cfg, seed=2)
    h = rng.normal(size=(6, 16)).astype(np.float32)
    out, _ = moe_block(model, Tensor(h), 0)
    expected = moe_oracle(h, model, 0, top_k=4)
    assert np.max(np.abs(out.data - expected)) < 1e-5


def test_moe_layer_matches_masked_oracle_top_k(rng):
    model = TrafficModel(tiny_config(), seed=3)
    h = rng.normal(size=(8, 16)).astype(np.float32)
    out, routing = moe_block(model, Tensor(h), 1)
    expected = moe_oracle(h, model, 1, top_k=2)
    assert np.max(np.abs(out.data - expected)) < 1e-5
    assert routing[0].selected.shape == (8, 2)


def _force_router_to(model, layer: int, expert: int, h: np.ndarray) -> None:
    """Point the router's logits at one expert for these specific inputs.

    Column `expert` projects onto the mean normalized input (positive for
    every row of this h by construction check), the rest onto its negation,
    giving that expert a decisive logit margin token by token.
    """
    gain = model.params[f"layers.{layer}.ffn.norm_gain"].data
    z = rmsnorm_ref(h, gain)
    direction = z.mean(axis=0)
    assert (z @ direction > 0).all(), "fixture inputs must align with their mean"
    router = model.params[f"layers.{layer}.moe.router"]
    forced = np.tile((-100.0 * direction)[:, None], (1, router.shape[1]))
    forced[:, expert] = 100.0 * direction
    router.data = forced.astype(router.data.dtype)


def test_moe_layer_forced_single_expert(rng):
    model = TrafficModel(tiny_config(top_k=1), seed=4)
    h = rng.normal(size=(5, 16)).astype(np.float32)
    _force_router_to(model, 0, 2, h)
    out, routing = moe_block(model, Tensor(h), 0)
    assert (routing[0].selected == 2).all()
    expected = moe_oracle(h, model, 0, top_k=1)
    assert np.max(np.abs(out.data - expected)) < 1e-5


def test_moe_layer_zero_gate_pure_residual(rng):
    model = TrafficModel(tiny_config(), seed=5)
    # drive the shared gate to 0 and null every expert's output projection
    model.params["layers.0.moe.shared_gate"].data = np.full((16, 1), -50.0, dtype=np.float32)
    model.params["layers.0.moe.shared.w_down"].data[:] = 0.0
    for e in range(4):
        model.params[f"layers.0.moe.expert{e}.w_down"].data[:] = 0.0
    h = rng.normal(size=(4, 16)).astype(np.float32)
    out, _ = moe_block(model, Tensor(h), 0)
    assert np.max(np.abs(out.data - h)) < 1e-6


def test_unselected_experts_get_no_gradient(rng):
    model = TrafficModel(tiny_config(top_k=1, n_experts=4), seed=6)
    h_data = rng.normal(size=(3, 16)).astype(np.float32)
    _force_router_to(model, 0, 1, h_data)
    h = Tensor(h_data, requires_grad=True)
    out, routing = moe_block(model, h, 0)
    assert (routing[0].selected == 1).all()
    T.tsum(out).backward()
    assert model.params["layers.0.moe.expert1.w_gate"].grad is not None
    for e in (0, 2, 3):
        assert model.params[f"layers.0.moe.expert{e}.w_gate"].grad is None


# -- load balance loss ------------------------------------------------------------------


def test_balance_loss_uniform_equals_one():
    n, n_experts = 48, 6
    probs = np.full((n, n_experts), 1.0 / n_experts)
    selected = np.stack([np.arange(n) % n_experts, (np.arange(n) + 1) % n_experts], axis=1)
    routing = [LayerRouting(probs=Tensor(probs), selected=selected)]
    assert load_balance_loss(routing).item() == pytest.approx(1.0, abs=1e-6)


def test_balance_loss_collapse_equals_n():
    n, n_experts = 32, 4
    probs = np.zeros((n, n_experts))
    probs[:, 0] = 1.0
    routing = [LayerRouting(probs=Tensor(probs), selected=np.zeros((n, 1), dtype=int))]
    assert load_balance_loss(routing).item() == pytest.approx(n_experts, abs=1e-6)


def test_balance_loss_matches_recomputation(rng, tiny_model):
    h = rng.normal(size=(2, 12)) * 0  # any ids; use a real forward for routing records
    ids = rng.integers(0, 64, size=(2, 12))
    _, routing = tiny_model.forward(ids, mode="hidden")
    loss = load_balance_loss(routing).item()
    # independent recomputation from the raw probability matrices
    expected = 0.0
    for rec in routing:
        probs = rec.probs.data
        n_tok, n_exp = probs.shape
        counts = np.zeros(n_exp)
        for row in rec.selected:
            for e in row:
                counts[e] += 1
        load = counts / (n_tok * tiny_model.config.top_k)
        expected += n_exp * float(np.sum(load * probs.mean(axis=0)))
    expected /= len(routing)
    assert loss == pytest.approx(expected, rel=1e-6)


def test_balance_loss_requires_tokens():
    with pytest.raises(ValueError):
        load_balance_loss([])


# -- full forward -------------------------------------------------------------------------


def test_forward_lm_logits_shape(tiny_model, rng):
    ids = rng.integers(0, 64, size=(2, 12))
    hidden, _ = tiny_model.forward(ids)  # the default mode is hidden
    logits, _ = lm_logits(tiny_model, ids)
    assert hidden.shape == (24, 16) and logits.shape == (24, 64)


def test_forward_rejects_out_of_range_ids(tiny_model):
    ids = np.full((1, 12), 64)
    with pytest.raises(ValueError, match="out of range"):
        tiny_model.forward(ids, mode="hidden")


def test_forward_rejects_unknown_mode(tiny_model):
    with pytest.raises(ValueError, match="unknown mode 'lm'"):
        tiny_model.forward(np.zeros((1, 12), dtype=int), mode="lm")


def test_forward_classify_single_valid_token_equals_mlp_of_hidden(tiny_model, rng):
    ids = rng.integers(0, 64, size=(1, 12))
    valid = np.zeros((1, 12), dtype=bool)
    valid[0, 0] = True
    logits, _ = tiny_model.forward(ids, valid, mode="classify")
    with T.no_grad():
        hidden, _ = tiny_model._backbone(ids[0], np.array([12]))  # the whole row; slot 0 sees only itself
    hidden = hidden.data[0]
    p = {k: v.data for k, v in tiny_model.params.items()}
    pre = hidden @ p["head.cls.w1"] + p["head.cls.b1"]
    act = pre / (1.0 + np.exp(-pre))
    expected = act @ p["head.cls.w2"] + p["head.cls.b2"]
    assert np.max(np.abs(logits.data[0] - expected)) < 1e-5


def test_forward_classify_pad_invariance(tiny_model, rng):
    ids = rng.integers(0, 64, size=(1, 8))
    valid = np.ones((1, 8), dtype=bool)
    base, _ = tiny_model.forward(ids, valid, mode="classify")
    padded_ids = np.concatenate([ids, np.full((1, 4), 2)], axis=1)  # [PAD] id is 2
    padded_valid = np.concatenate([valid, np.zeros((1, 4), dtype=bool)], axis=1)
    padded, _ = tiny_model.forward(padded_ids, padded_valid, mode="classify")
    assert np.max(np.abs(base.data - padded.data)) < 1e-5


def test_forward_causality_end_to_end(tiny_model, rng):
    ids = rng.integers(0, 64, size=(1, 12))
    with T.no_grad():
        base, _ = lm_logits(tiny_model, ids)
        for cut in (3, 7, 11):
            mutated = ids.copy()
            mutated[0, cut:] = rng.integers(0, 64, size=12 - cut)
            after, _ = lm_logits(tiny_model, mutated)
            assert np.array_equal(base.data[:cut], after.data[:cut])


def test_forward_batch_equals_individual(tiny_model, rng):
    ids = rng.integers(0, 64, size=(3, 12))
    valid = np.ones((3, 12), dtype=bool)
    with T.no_grad():
        batched, _ = tiny_model.forward(ids, valid, mode="classify")
        singles = [tiny_model.forward(ids[b : b + 1], valid[b : b + 1], mode="classify")[0].data
                   for b in range(3)]
    assert np.max(np.abs(batched.data - np.concatenate(singles))) < 1e-5


# -- packed forward: trailing [PAD] never enters the backbone ---------------------------------


def ragged_batch(rng, lengths=(12, 5, 9), pad_to=12):
    """Random ids with valid prefixes of the given lengths; [PAD] (id 2) fills the rest."""
    valid = np.arange(pad_to) < np.array(lengths)[:, None]
    ids = np.full(valid.shape, 2)
    ids[valid] = rng.integers(3, 64, size=int(valid.sum()))
    return ids, valid


def pad_right(ids, valid, extra):
    return (np.concatenate([ids, np.full((len(ids), extra), 2)], axis=1),
            np.concatenate([valid, np.zeros((len(ids), extra), dtype=bool)], axis=1))


def test_packed_lm_logits_match_unmasked_run(tiny_model, rng):
    ids, valid = ragged_batch(rng)
    valid[2, 3] = False  # an interior pad is computed like any token
    with T.no_grad():
        packed, _ = lm_logits(tiny_model, ids, valid)
        full, _ = lm_logits(tiny_model, ids)
    rows, lengths = packed_rows(ids.shape, valid)
    assert lengths.tolist() == [12, 5, 9] and packed.shape == (26, 64) and full.shape == (36, 64)
    assert np.allclose(packed.data, full.data[rows], rtol=1e-5, atol=1e-6)
    interior = list(rows).index(2 * 12 + 3)  # the interior pad's slot is packed
    assert np.allclose(packed.data[interior], full.data[2 * 12 + 3], rtol=1e-5, atol=1e-6)


def test_packed_lm_objective_pad_invariance_is_bitwise(tiny_model, rng):
    from trafficmoe.training import ntp_loss

    ids, valid = ragged_batch(rng, lengths=(8, 3, 5), pad_to=8)
    results = []
    for batch in ((ids, valid), pad_right(ids, valid, 24)):
        h, trace = tiny_model.forward(*batch, mode="hidden")
        loss = T.add(ntp_loss(h, tiny_model.params["head.vocab"], *batch), T.mul(load_balance_loss(trace), 0.02))
        tiny_model.zero_grad()
        loss.backward()
        results.append([loss.data] + [grad_array(p) for p in tiny_model.params.values()])
    assert sum(g is not None for g in results[0]) == 1 + 45  # the loss and every backbone and vocab-head gradient
    assert all(np.array_equal(a, b) for a, b in zip(*results))


def test_fused_lm_objective_matches_unfused_head_for_every_parameter(rng, monkeypatch):
    from trafficmoe.training import ntp_loss

    monkeypatch.setattr(T, "LM_HEAD_CHUNK", 8)  # 26 packed rows: four chunks, the last partial
    with T.use_dtype(np.float64):
        model = TrafficModel(tiny_config(), seed=4)
        ids, valid = ragged_batch(rng)
        valid[2, 3] = False  # an interior pad: a packed row whose target weighs 0
        targets, weights = np.zeros_like(ids), np.zeros(ids.shape)
        targets[:, :-1], weights[:, :-1] = ids[:, 1:], valid[:, 1:]
        rows, _ = packed_rows(ids.shape, valid)
        results = []
        for fused in (True, False):
            if fused:
                h, trace = model.forward(ids, valid, mode="hidden")
                task = ntp_loss(h, model.params["head.vocab"], ids, valid)
            else:
                logits, trace = lm_logits(model, ids, valid)
                task = weighted_cross_entropy_ref(logits, targets.reshape(-1)[rows], weights.reshape(-1)[rows])
            loss = T.add(task, T.mul(load_balance_loss(trace), 0.02))
            model.zero_grad()
            loss.backward()
            results.append([loss.data] + [grad_array(p) for p in model.params.values() if p.grad is not None])
    assert len(results[0]) == len(results[1]) == 1 + 45
    for fused, unfused in zip(*results):
        assert np.allclose(fused, unfused, rtol=1e-10, atol=1e-18)


def test_packed_classify_pad_invariance_is_bitwise(tiny_model, rng):
    ids, valid = ragged_batch(rng, lengths=(8, 3, 6), pad_to=8)
    with T.no_grad():
        base, _ = tiny_model.forward(ids, valid, mode="classify")
        padded, _ = tiny_model.forward(*pad_right(ids, valid, 24), mode="classify")
    assert np.array_equal(base.data, padded.data)


def test_padding_adds_no_matmul_flops(tiny_model, rng):
    ids, valid = ragged_batch(rng, lengths=(8, 3, 6), pad_to=8)
    flops = []
    for batch in ((ids, valid), pad_right(ids, valid, 24)):  # 8 -> 32 slots per sequence
        before = T.matmul_flops()
        with T.no_grad():
            tiny_model.forward(*batch, mode="classify")
        flops.append(T.matmul_flops() - before)
    assert flops[0] == flops[1] > 0


def test_routing_trace_covers_each_valid_prefix_only(tiny_model, rng):
    ids, valid = ragged_batch(rng, lengths=(12, 5, 9))
    valid[0, 6] = False  # interior: still routed
    _, routing = tiny_model.forward(ids, valid, mode="hidden")
    assert [rec.n_tokens for rec in routing] == [12 + 5 + 9] * tiny_model.config.n_layers
    _, unmasked = tiny_model.forward(ids, mode="hidden")
    assert [rec.n_tokens for rec in unmasked] == [3 * 12] * tiny_model.config.n_layers


def test_balance_loss_ignores_trailing_pads(tiny_model, rng):
    ids, valid = ragged_batch(rng, lengths=(9, 5, 7), pad_to=9)
    with T.no_grad():
        cut = load_balance_loss(tiny_model.forward(ids, valid, mode="hidden")[1]).item()
        padded = load_balance_loss(tiny_model.forward(*pad_right(ids, valid, 3), mode="hidden")[1]).item()
        same_length = ragged_batch(rng, lengths=(9, 9, 9), pad_to=9)[0]
        unmasked = load_balance_loss(tiny_model.forward(same_length, mode="hidden")[1]).item()
        masked = load_balance_loss(
            tiny_model.forward(*pad_right(same_length, np.ones((3, 9), dtype=bool), 3), mode="hidden")[1]
        ).item()
    assert padded == cut
    assert masked == unmasked


def graph_nodes(out: Tensor) -> list[Tensor]:
    """Every graph node behind ``out``; parameters and inputs are leaves, not nodes."""
    nodes, seen, stack = [], set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._backward_fn is not None:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def op_name(node: Tensor) -> str:
    return node._backward_fn.__qualname__.split(".")[0]


def graph_ops(out: Tensor) -> Counter:
    """How many graph nodes each op built behind ``out``."""
    return Counter(op_name(node) for node in graph_nodes(out))


def test_one_attention_node_per_layer_whatever_batch_and_heads(rng):
    graphs = []
    for n_heads in (1, 2, 4):
        model = TrafficModel(tiny_config(n_heads=n_heads, top_k=4), seed=0)  # top_k = n_experts: every expert runs
        for lengths in ((7,), (12, 5, 9, 1, 3)):
            logits, _ = lm_logits(model, *ragged_batch(rng, lengths))
            graphs.append(graph_ops(logits))
    assert graphs[0]["causal_attention"] == model.config.n_layers
    assert graphs[0]["scatter_rows"] == 0  # lm logits stay packed
    assert all(graph == graphs[0] for graph in graphs)
    class_logits = model.forward(*ragged_batch(rng), mode="classify")[0]
    classify = graph_ops(class_logits)
    assert classify["moe_experts"] == model.config.n_layers
    routed = [node for node in graph_nodes(class_logits) if op_name(node) == "moe_experts"]
    assert all(op_name(node._parents[1]) == "softmax_lastdim" for node in routed)  # scores arrive unmasked
    assert classify["scatter_rows"] == 0
    assert classify["gather_rows"] == 1  # the embedding; pooling is one node
    assert classify["segment_sum"] == 1


@pytest.mark.parametrize("mode", ["lm", "classify"])
def test_packed_forward_gradients_match_finite_differences(mode):
    from trafficmoe.training import classification_loss, ntp_loss

    with T.use_dtype(np.float64):
        model = TrafficModel(tiny_config(n_layers=1), seed=3)
        rng = np.random.default_rng(3)
        ids, valid = ragged_batch(rng, lengths=(10, 4, 7))
        valid[2, 2] = False
        labels = np.array([0, 1, 1])

        def loss_and_selection():
            if mode == "lm":
                h, routing = model.forward(ids, valid, mode="hidden")
                task = ntp_loss(h, model.params["head.vocab"], ids, valid)
            else:
                out, routing = model.forward(ids, valid, mode=mode)
                task = classification_loss(out, labels)
            loss = T.add(task, T.mul(load_balance_loss(routing), 0.5))
            return loss, [rec.selected.tobytes() for rec in routing]

        loss, base_sel = loss_and_selection()
        model.zero_grad()
        loss.backward()
        d = model.config.d_model
        probes = [("embed.tok", ids[1, 2] * d + k) for k in range(3)]
        routed = next(name for name, p in model.params.items() if ".expert" in name and p.grad is not None)
        head = "head.vocab" if mode == "lm" else "head.cls.w2"
        for name in ("layers.0.attn.wqkv", "layers.0.moe.router", "layers.0.moe.shared.w_up", "final_norm_gain",
                     routed, head):
            probes += [(name, i) for i in rng.choice(model.params[name].data.size, size=4, replace=False)]
        rows, _ = packed_rows(ids.shape, valid)
        grad = model.params["embed.tok"].grad  # trailing [PAD] slots are never gathered, so id 2 is absent
        assert isinstance(grad, T.RowGrad) and np.array_equal(grad.rows, np.unique(ids.reshape(-1)[rows]))
        assert 2 not in grad.rows and grad.values.shape == (len(grad.rows), d)
        checked = 0
        for name, idx in probes:
            flat = model.params[name].data.reshape(-1)
            orig, h = flat[idx], 1e-6
            flat[idx] = orig + h
            up, sel_up = loss_and_selection()
            flat[idx] = orig - h
            down, sel_down = loss_and_selection()
            flat[idx] = orig
            if sel_up != base_sel or sel_down != base_sel:
                continue  # the probe flipped a top-k choice; the gradient is undefined there
            fd = (up.item() - down.item()) / (2 * h)
            assert fd == pytest.approx(grad_array(model.params[name]).reshape(-1)[idx], rel=1e-4, abs=1e-9), name
            checked += 1
        assert checked >= len(probes) - 2


# -- sharded inference: a no-grad batch's sequences over the BLAS threads ------------------------

needs_blas_calls = pytest.mark.skipif(T.blas_thread_count() is None,
                                      reason="the bundled OpenBLAS's thread-count calls are not reachable")


def sharded_forward(model, ids, valid, mode, blas_threads, monkeypatch):
    """``forward_in_shards`` with OpenBLAS at ``blas_threads``, which is also ``inference_shards``:
    (output, each layer's selections over its runs' forwards joined in batch order, matmul FLOPs, each
    run's thread and sequence count)."""
    forward, runs = TrafficModel.forward, []

    def spy(self, ids, valid_mask=None, mode="hidden"):
        out, routing = forward(self, ids, valid_mask, mode)
        runs.append((ids.ctypes.data, threading.get_ident(), len(ids), routing))  # a run is a view of the batch
        return out, routing

    with monkeypatch.context() as patch, T.blas_threads(blas_threads):
        patch.setattr(TrafficModel, "forward", spy)
        assert model_module.inference_shards(len(ids)) == blas_threads
        before = T.matmul_flops()
        out = forward_in_shards(model, ids, valid, mode)
        flops = T.matmul_flops() - before
    runs.sort(key=lambda run: run[0])
    selected = [np.concatenate([rec.selected for rec in layer]) for layer in zip(*(run[3] for run in runs))]
    return out, selected, flops, [run[1:3] for run in runs]


@needs_blas_calls
@pytest.mark.parametrize("mode", ["classify", "hidden"])
def test_sharded_forward_matches_serial_at_one_blas_thread(tiny_model, rng, monkeypatch, mode):
    ids, valid = ragged_batch(rng, lengths=(12, 5, 9, 3, 11))
    serial, serial_sel, serial_flops, serial_runs = sharded_forward(tiny_model, ids, valid, mode, 1, monkeypatch)
    assert len(serial_runs) == 1
    sharded, sharded_sel, sharded_flops, runs = sharded_forward(tiny_model, ids, valid, mode, 2, monkeypatch)
    assert len({thread for thread, _ in runs}) == 2 and sum(n for _, n in runs) == 5
    assert runs[0][0] == threading.get_ident()  # the first run goes on the caller's thread
    assert np.max(np.abs(sharded - serial)) <= 1e-5
    if mode == "classify":
        assert np.array_equal(np.argmax(sharded, axis=1), np.argmax(serial, axis=1))
    assert len(sharded_sel) == tiny_model.config.n_layers
    assert all(np.array_equal(a, b) for a, b in zip(sharded_sel, serial_sel))
    assert sharded_flops == serial_flops


@needs_blas_calls
def test_two_sharded_runs_are_bitwise_equal(tiny_model, rng, monkeypatch):
    ids, valid = ragged_batch(rng, lengths=(12, 5, 9, 3, 11))
    first, again = (sharded_forward(tiny_model, ids, valid, "classify", 2, monkeypatch) for _ in range(2))
    assert np.array_equal(first[0], again[0])
    assert all(np.array_equal(a, b) for a, b in zip(first[1], again[1]))


@needs_blas_calls
def test_a_hidden_batch_with_an_empty_row_matches_a_serial_forward(tiny_model, rng, monkeypatch):
    """A sequence without a valid slot adds no packed row; such a batch runs as one forward on the caller's
    thread, so no run can be empty."""
    ids, valid = ragged_batch(rng, lengths=(0, 12, 0, 9, 3, 0))
    with T.no_grad():
        serial, _ = tiny_model.forward(ids, valid, mode="hidden")
    sharded, _, _, runs = sharded_forward(tiny_model, ids, valid, "hidden", 2, monkeypatch)
    assert runs == [(threading.get_ident(), 6)] and sharded.shape == (24, tiny_model.config.d_model)
    assert np.array_equal(sharded, serial.data)


@needs_blas_calls
def test_forward_runs_one_backbone_on_the_callers_thread(tiny_model, rng, monkeypatch):
    backbone, calls = TrafficModel._backbone, []

    def spy(self, packed, lengths):
        calls.append(threading.get_ident())
        return backbone(self, packed, lengths)

    monkeypatch.setattr(TrafficModel, "_backbone", spy)
    ids, valid = ragged_batch(rng, lengths=(12, 5, 9, 3, 11))
    with T.blas_threads(2), T.no_grad():
        tiny_model.forward(ids, valid, mode="classify")
    assert calls == [threading.get_ident()]


@needs_blas_calls
def test_a_failing_shard_raises_in_the_caller_and_leaves_no_thread(tiny_model, rng, monkeypatch):
    caller, backbone = threading.current_thread(), TrafficModel._backbone

    def fail_off_the_caller(self, packed, lengths):
        if threading.current_thread() is not caller:
            raise RuntimeError("shard failed")
        return backbone(self, packed, lengths)

    monkeypatch.setattr(TrafficModel, "_backbone", fail_off_the_caller)
    ids, valid = ragged_batch(rng)
    threads = threading.active_count()
    with T.blas_threads(2):
        with pytest.raises(RuntimeError, match="shard failed"):
            forward_in_shards(tiny_model, ids, valid, "classify")
        assert T.blas_thread_count() == 2
    assert threading.active_count() == threads


@needs_blas_calls
def test_blas_threads_restores_the_count_on_error():
    before = T.blas_thread_count()
    with pytest.raises(KeyError):
        with T.blas_threads(1):
            assert T.blas_thread_count() == 1
            raise KeyError
    assert T.blas_thread_count() == before


def test_without_the_blas_symbols_a_no_grad_forward_stays_serial(tiny_model, rng, monkeypatch):
    ids, valid = ragged_batch(rng, lengths=(12, 5, 9, 3, 11))
    graph_logits, _ = tiny_model.forward(ids, valid, mode="classify")  # builds a graph
    monkeypatch.setattr(T, "_OPENBLAS_SYMBOLS", ("missing_get_num_threads", "missing_set_num_threads"))
    monkeypatch.setattr(model_module, "ThreadPoolExecutor", None)  # a worker pool would now raise TypeError
    assert T.blas_thread_count() is None
    with T.blas_threads(2):
        assert model_module.inference_shards(len(ids)) == 1
        logits = forward_in_shards(tiny_model, ids, valid, "classify")
    assert np.array_equal(logits, graph_logits.data)


def test_shard_bounds_cut_contiguous_nonempty_runs_nearest_equal_rows():
    assert shard_bounds([5, 5, 5, 5], 2).tolist() == [0, 2, 4]
    assert shard_bounds([100, 1, 1, 1], 2).tolist() == [0, 1, 4]
    assert shard_bounds([1, 1, 1, 100], 2).tolist() == [0, 3, 4]
    assert shard_bounds([3, 3, 1, 1], 2).tolist() == [0, 1, 4]  # 3 | 5 rows beats 6 | 2
    assert shard_bounds([7, 3], 2).tolist() == [0, 1, 2]
    assert shard_bounds([1, 1, 100], 3).tolist() == shard_bounds([100, 1, 1], 3).tolist() == [0, 1, 2, 3]
    assert shard_bounds([4, 4, 4], 3).tolist() == [0, 1, 2, 3]
    assert shard_bounds([1] * 6, 3).tolist() == [0, 2, 4, 6]


# -- parameter layout and persistence ---------------------------------------------------------


def test_parameter_shapes_match_contract():
    cfg = tiny_config()
    model = TrafficModel(cfg, seed=0)
    p = {k: v.shape for k, v in model.params.items()}
    d, dff, dex = cfg.d_model, cfg.ffn_hidden, cfg.expert_hidden
    assert p["embed.tok"] == (cfg.vocab_size, d)
    for i in range(cfg.n_layers):
        assert p[f"layers.{i}.attn.wqkv"] == (d, 3 * d)
        assert p[f"layers.{i}.attn.wo"] == (d, d)
        assert p[f"layers.{i}.moe.router"] == (d, cfg.n_experts)
        assert p[f"layers.{i}.moe.shared_gate"] == (d, 1)
        assert p[f"layers.{i}.moe.shared.w_gate"] == (d, dff)
        assert p[f"layers.{i}.moe.shared.w_down"] == (dff, d)
        for e in range(cfg.n_experts):
            assert p[f"layers.{i}.moe.expert{e}.w_gate"] == (d, dex)
            assert p[f"layers.{i}.moe.expert{e}.w_down"] == (dex, d)
    assert p["head.vocab"] == (d, cfg.vocab_size)
    assert p["head.cls.w1"] == (d, d)
    assert p["head.cls.w2"] == (d, cfg.num_classes)


def test_experts_are_mutually_independent():
    model = TrafficModel(tiny_config(), seed=0)
    a = model.params["layers.0.moe.expert0.w_gate"].data
    b = model.params["layers.0.moe.expert1.w_gate"].data
    assert not np.array_equal(a, b)


def test_active_ffn_parameter_ratio_defaults():
    cfg = ModelConfig(
        n_layers=2, d_model=32, n_heads=4, n_experts=8, top_k=2,
        ffn_hidden=64, vocab_size=128, max_tokens=16,
    )
    active, total = TrafficModel(cfg, seed=0).ffn_parameter_counts()
    assert active / total == pytest.approx(0.4)
    assert active == 2 * 6 * 32 * 64  # 6*d*d' per layer
    for cfg in (tiny_config(), tiny_config(n_experts=5, top_k=3, ffn_hidden=36)):  # 3 d h per SwiGLU of width h
        layers, d = cfg.n_layers, cfg.d_model
        shared, expert = 3 * d * cfg.ffn_hidden, 3 * d * cfg.expert_hidden
        model = TrafficModel(cfg, seed=0)
        assert model.ffn_parameter_counts() == ((shared + cfg.top_k * expert) * layers,
                                                (shared + cfg.n_experts * expert) * layers)
        dense = build_dense_variant(model, seed=0)
        per_layer = 3 * d * dense.config.dense_hidden
        assert dense.ffn_parameter_counts() == (per_layer * layers, per_layer * layers)


def test_model_save_load_round_trip(tmp_path, tiny_model, rng):
    path = tmp_path / "model.ckpt"
    tiny_model.save(path)
    restored = TrafficModel.load(path)
    assert restored.config == tiny_model.config
    ids = rng.integers(0, 64, size=(2, 12))
    with T.no_grad():
        a, _ = lm_logits(tiny_model, ids)
        b, _ = lm_logits(restored, ids)
    assert np.array_equal(a.data, b.data)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=30, n_heads=4, vocab_size=10, max_tokens=4)
    with pytest.raises(ValueError):
        ModelConfig(top_k=0, vocab_size=10, max_tokens=4)
    with pytest.raises(ValueError):
        ModelConfig(top_k=9, n_experts=8, vocab_size=10, max_tokens=4)
    with pytest.raises(ValueError):
        ModelConfig(ffn_kind="dense", vocab_size=10, max_tokens=4)  # needs dense_hidden
    with pytest.raises(ValueError, match="d_model=15 / n_heads=5 is odd: rotary embedding needs it even"):
        ModelConfig(d_model=15, n_heads=5, vocab_size=10, max_tokens=4)


@pytest.mark.parametrize("field,value", [("n_heads", 0), ("n_heads", -8), ("n_layers", -2), ("d_model", 0),
                                         ("n_experts", 0), ("ffn_hidden", -4), ("vocab_size", 0), ("max_tokens", 0),
                                         ("num_classes", 0), ("num_classes", -1)])
def test_config_rejects_non_positive_sizes(field, value):
    with pytest.raises(ValueError, match=f"{field}={value} must be >= 1"):
        ModelConfig(**{field: value})


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_matches_one_float64_draw_per_tensor_cast_to_the_dtype(dtype, monkeypatch):
    monkeypatch.setattr(model_module, "INIT_BLOCK", 7)  # blocks that end inside rows, the last one partial
    cfg = tiny_config()
    with T.use_dtype(dtype):
        model = TrafficModel(cfg, seed=5)
    rng = np.random.default_rng(5)
    for name, shape, kind in parameter_specs(cfg):
        old = rng.normal(0.0, 0.02, size=shape) if kind == "normal" else getattr(np, kind)(shape)
        assert model.params[name].data.tobytes() == old.astype(dtype).tobytes(), name


def test_init_is_seed_deterministic():
    a = TrafficModel(tiny_config(), seed=11)
    b = TrafficModel(tiny_config(), seed=11)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)


def test_init_keeps_the_given_weights_and_draws_the_rest_from_the_seed_in_spec_order():
    cfg = tiny_config()
    backbone = {name: p.data for name, p in TrafficModel(cfg, seed=3).params.items() if not name.startswith("head.")}
    a, b = TrafficModel(cfg, seed=11, weights=backbone), TrafficModel(cfg, seed=11, weights=backbone)
    rng = np.random.default_rng(11)
    for name, shape, kind in parameter_specs(cfg):
        if name in backbone:
            assert a.params[name].data is backbone[name], name
        else:
            drawn = rng.normal(0.0, 0.02, size=shape) if kind == "normal" else getattr(np, kind)(shape)
            assert a.params[name].data.tobytes() == b.params[name].data.tobytes() == \
                drawn.astype(T.default_dtype()).tobytes(), name
    drawn_names = [name for name in a.params if name not in backbone]
    assert drawn_names == ["head.vocab", "head.cls.w1", "head.cls.b1", "head.cls.w2", "head.cls.b2"]
