"""Built-in invariant battery behind the `selftest` command.

Each check is small and self-contained; the battery passes only if all
checks do. (The pytest suite is the full verification; this is a quick
smoke screen for installed environments.)
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from . import tensor as T
from .evaluation import ConfusionMatrix, compute_metrics
from .model import ModelConfig, TrafficModel, load_balance_loss, rope, route_tokens
from .synth import synth_flow, synth_flows, write_pcap
from .tensor import AdamW, Tensor
from .tokenization import (
    FULL_BIGRAM_VOCAB_SIZE,
    SerializerConfig,
    build_vocabulary,
    serialize_flow,
    tokenize,
)
from .training import llrd_schedule, ntp_loss
from .flows import parse_capture, reassemble_sessions


def _check_routing() -> str:
    rng = np.random.default_rng(0)
    z = Tensor(rng.normal(size=(40, 16)))
    w = Tensor(rng.normal(size=(16, 8)))
    scores, sparse, selected = route_tokens(z, w, 2)
    assert np.allclose(scores.data.sum(axis=1), 1.0, atol=1e-6)
    assert (np.count_nonzero(sparse.data, axis=1) == 2).all()
    dense_scores, dense_sparse, _ = route_tokens(z, w, 8)
    assert np.array_equal(dense_scores.data, dense_sparse.data)
    return "softmax rows sum to 1; top-k sparsity holds; k=N is dense"


def _check_balance_anchors() -> str:
    from .model import LayerRouting, RoutingTrace

    n, n_experts, k = 64, 8, 2
    uniform = RoutingTrace(n_experts=n_experts, top_k=k)
    probs = np.full((n, n_experts), 1.0 / n_experts)
    selected = np.stack([np.arange(n) % n_experts, (np.arange(n) + 1) % n_experts], axis=1)
    uniform.layers.append(LayerRouting(probs=Tensor(probs), selected=selected))
    assert abs(load_balance_loss(uniform).item() - 1.0) < 1e-6

    collapse = RoutingTrace(n_experts=n_experts, top_k=1)
    one_hot = np.zeros((n, n_experts))
    one_hot[:, 0] = 1.0
    collapse.layers.append(LayerRouting(probs=Tensor(one_hot), selected=np.zeros((n, 1), int)))
    assert abs(load_balance_loss(collapse).item() - n_experts) < 1e-6
    return "uniform -> 1.0, collapse -> N"


def _check_rope() -> str:
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(5, 8)))
    at_zero = rope(x, np.zeros(5, dtype=int))
    assert np.allclose(at_zero.data, x.data, atol=1e-6)
    rotated = rope(x, np.arange(5))
    assert np.allclose(
        np.linalg.norm(rotated.data, axis=1), np.linalg.norm(x.data, axis=1), atol=1e-5
    )
    return "identity at position 0; norms preserved"


def _check_gradients() -> str:
    with T.use_dtype(np.float64):
        cfg = ModelConfig(
            n_layers=1, d_model=8, n_heads=2, n_experts=4, top_k=2,
            ffn_hidden=8, vocab_size=16, max_tokens=6,
        )
        model = TrafficModel(cfg, seed=3)
        ids = np.random.default_rng(3).integers(0, 16, size=(2, 6))
        valid = np.ones((2, 6), dtype=bool)

        def loss_and_selection():
            logits, trace = model.forward(ids, valid, mode="lm")
            loss = T.add(ntp_loss(logits, ids, valid), T.mul(load_balance_loss(trace), 0.02))
            return loss, [rec.selected.tolist() for rec in trace.layers]

        loss, base_sel = loss_and_selection()
        model.zero_grad()
        loss.backward()
        rng = np.random.default_rng(7)
        routed = f"layers.0.moe.expert{base_sel[0][0][0]}.w_down"  # an expert the first token was routed to
        for name in ("embed.tok", "layers.0.moe.router", "layers.0.attn.head0.wq", routed):
            p = model.params[name]
            flat_idx = rng.integers(0, p.data.size)
            h = 1e-5
            orig = p.data.reshape(-1)[flat_idx]
            p.data.reshape(-1)[flat_idx] = orig + h
            up, sel_up = loss_and_selection()
            p.data.reshape(-1)[flat_idx] = orig - h
            down, sel_down = loss_and_selection()
            p.data.reshape(-1)[flat_idx] = orig
            if sel_up != base_sel or sel_down != base_sel:
                continue  # probe flipped a top-k choice; gradient is undefined there
            fd = (up.item() - down.item()) / (2 * h)
            an = p.grad.reshape(-1)[flat_idx]
            denom = max(abs(fd), abs(an), 1e-8)
            assert abs(fd - an) / denom < 1e-4, f"{name}: fd={fd} analytic={an}"
    return "spot finite-difference check (float64) within 1e-4"


def _check_causality() -> str:
    cfg = ModelConfig(
        n_layers=2, d_model=16, n_heads=2, n_experts=4, top_k=2,
        ffn_hidden=16, vocab_size=32, max_tokens=8,
    )
    model = TrafficModel(cfg, seed=5)
    rng = np.random.default_rng(5)
    ids = rng.integers(0, 32, size=(1, 8))
    with T.no_grad():
        base, _ = model.forward(ids, mode="lm")
        changed = ids.copy()
        changed[0, 5:] = rng.integers(0, 32, size=3)
        after, _ = model.forward(changed, mode="lm")
    assert np.array_equal(base.data[0, :5], after.data[0, :5])
    return "prefix logits bit-identical under suffix perturbation"


def _check_pad_invariance() -> str:
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=2, n_experts=4, top_k=2, ffn_hidden=16, vocab_size=32,
                      max_tokens=8, num_classes=3)
    model = TrafficModel(cfg, seed=9)
    valid = np.arange(8) < np.array([8, 3, 5])[:, None]
    ids = np.where(valid, np.random.default_rng(9).integers(3, 32, size=valid.shape), 2)
    with T.no_grad():
        base, _ = model.forward(ids, valid, mode="classify")
        padded, _ = model.forward(np.pad(ids, ((0, 0), (0, 24)), constant_values=2),
                                  np.pad(valid, ((0, 0), (0, 24))), mode="classify")
    assert np.array_equal(base.data, padded.data)
    return "class logits bit-identical under 4x trailing [PAD]"


def _check_tokenizer() -> str:
    vocab = build_vocabulary(mode="full_bigram")
    assert len(vocab) == FULL_BIGRAM_VOCAB_SIZE
    cfg = SerializerConfig(packets_per_flow=10, payload_bytes=40, max_tokens=512)
    flow = synth_flow(np.random.default_rng(2), label=1, n_packets=6)
    serialized = serialize_flow(flow, cfg)
    seq = tokenize(serialized, vocab, cfg.max_tokens)
    tokens = serialized.split()
    assert all(vocab.id_of(t) != 4 or t == "[UNK]" for t in tokens)
    assert tokens[0] == "[PD]" and tokens[-1] == "[END]"
    assert seq.n_valid == len(tokens)
    return f"vocab size {FULL_BIGRAM_VOCAB_SIZE}; no [UNK]; markers intact"


def _check_flows() -> str:
    flows = synth_flows(6, n_classes=2, seed=4)
    packets = [pkt for f in flows for pkt, _ in f.packets]
    blob = write_pcap(sorted(packets, key=lambda p: p.timestamp))
    parsed = parse_capture(blob)
    assert len(parsed) == len(packets)
    reassembled = reassemble_sessions(parsed)
    assert sum(len(f) for f in reassembled) == len(parsed)
    return "capture round trip preserves the packet partition"


def _check_metrics() -> str:
    rng = np.random.default_rng(6)
    counts = rng.integers(0, 30, size=(4, 4))
    metrics = compute_metrics(ConfusionMatrix(counts))
    for c in range(4):
        tp = counts[c, c]
        fn = counts[c].sum() - tp
        recall = tp / (tp + fn) if tp + fn else 0.0
        assert abs(metrics["recall"][c] - recall) < 1e-12
        assert abs(metrics["fnr"][c] - (1 - recall)) < 1e-12
    return "per-class recall and FNR identities hold"


def _check_llrd() -> str:
    rates = llrd_schedule(4, 1e-4, 0.9)
    expected = np.array([0.9**3, 0.9**2, 0.9, 1.0]) * 1e-4
    assert np.allclose(rates, expected, rtol=0, atol=0)
    return "rates equal decay**(L-l) * base"


def _check_checkpoint() -> str:
    rng = np.random.default_rng(8)
    named = {"a.b": rng.normal(size=(3, 4)).astype(np.float32), "c": rng.normal(size=7).astype(np.float32)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.ckpt"
        T.save_checkpoint(named, path)
        loaded = T.load_checkpoint(path)
    assert set(loaded) == set(named)
    for k in named:
        assert named[k].tobytes() == loaded[k].tobytes()
    return "bit-exact round trip"


def _check_optimizer() -> str:
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = AdamW([p], lr=0.5, weight_decay=0.0)
    p.grad = np.zeros_like(p.data)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)
    return "zero grad + zero decay leaves parameters bit-unchanged"


CHECKS = [
    ("routing_invariants", _check_routing),
    ("balance_loss_anchors", _check_balance_anchors),
    ("rotary_embedding", _check_rope),
    ("gradient_spot_check", _check_gradients),
    ("causality", _check_causality),
    ("pad_invariance", _check_pad_invariance),
    ("tokenizer", _check_tokenizer),
    ("flow_assembly", _check_flows),
    ("metrics", _check_metrics),
    ("llrd_schedule", _check_llrd),
    ("checkpoint_roundtrip", _check_checkpoint),
    ("optimizer_isolation", _check_optimizer),
]


def run_selftest(verbose: bool = True) -> bool:
    """Run every check; returns True only if all pass."""
    all_ok = True
    for name, check in CHECKS:
        try:
            detail = check()
            status = "ok"
        except Exception as exc:  # report and continue
            detail = f"{type(exc).__name__}: {exc}"
            status = "FAIL"
            all_ok = False
        if verbose:
            print(f"[{status:>4}] {name}: {detail}")
    return all_ok
