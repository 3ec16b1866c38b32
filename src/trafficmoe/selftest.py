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
from .model import LayerRouting, ModelConfig, TrafficModel, inference_shards, load_balance_loss, route_tokens
from .synth import synth_flow, synth_flows
from .tensor import AdamW, Tensor
from .tokenization import (
    END_ID,
    FULL_BIGRAM_VOCAB_SIZE,
    PAD_ID,
    PD_ID,
    UNK_ID,
    SerializerConfig,
    build_vocabulary,
    serialize_flow,
    tokenize,
)
from .training import llrd_schedule, ntp_loss
from .flows import FlowTable, parse_capture, reassemble_sessions, write_pcap


def _check_routing() -> str:
    rng = np.random.default_rng(0)
    z = Tensor(rng.normal(size=(40, 16)))
    w = Tensor(rng.normal(size=(16, 8)))
    scores, selected = route_tokens(z, w, 2)
    assert np.allclose(scores.data.sum(axis=1), 1.0, atol=1e-6)
    top2 = np.take_along_axis(scores.data, selected, axis=1)
    assert np.array_equal(np.sort(top2, axis=1), np.sort(scores.data, axis=1)[:, -2:])
    _, every = route_tokens(z, w, 8)
    assert np.array_equal(np.sort(every, axis=1), np.tile(np.arange(8), (40, 1)))
    return "softmax rows sum to 1; top-k keeps the k largest; k=N selects every expert"


def _check_balance_anchors() -> str:
    n, n_experts = 64, 8
    probs = np.full((n, n_experts), 1.0 / n_experts)
    selected = np.stack([np.arange(n) % n_experts, (np.arange(n) + 1) % n_experts], axis=1)
    uniform = [LayerRouting(probs=Tensor(probs), selected=selected)]
    assert abs(load_balance_loss(uniform).item() - 1.0) < 1e-6

    one_hot = np.zeros((n, n_experts))
    one_hot[:, 0] = 1.0
    collapse = [LayerRouting(probs=Tensor(one_hot), selected=np.zeros((n, 1), int))]
    assert abs(load_balance_loss(collapse).item() - n_experts) < 1e-6
    return "uniform -> 1.0, collapse -> N"


def _check_rope() -> str:
    x = np.random.default_rng(1).normal(size=(5, 8)).view(np.complex128)  # 4 feature pairs per row
    assert np.allclose(x * T.rope_tables(5, 8)[0], x, atol=1e-6)
    assert np.allclose(np.linalg.norm(x * T.rope_tables(5, 8), axis=1), np.linalg.norm(x, axis=1), atol=1e-5)
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
            h, routing = model.forward(ids, valid, mode="hidden")
            loss = T.add(ntp_loss(h, model.params["head.vocab"], ids, valid), T.mul(load_balance_loss(routing), 0.02))
            return loss, [rec.selected.tolist() for rec in routing]

        loss, base_sel = loss_and_selection()
        model.zero_grad()
        loss.backward()
        rng = np.random.default_rng(7)
        routed = f"layers.0.moe.expert{base_sel[0][0][0]}.w_down"  # an expert the first token was routed to
        for name in ("embed.tok", "layers.0.moe.router", "layers.0.attn.wqkv", routed, "head.vocab"):
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
            an = (p.grad.dense() if isinstance(p.grad, T.RowGrad) else p.grad).reshape(-1)[flat_idx]
            denom = max(abs(fd), abs(an), 1e-8)
            assert abs(fd - an) / denom < 1e-4, f"{name}: fd={fd} analytic={an}"
    return "spot finite-difference check (float64) within 1e-4"


def _check_gradient_ownership() -> str:
    rng = np.random.default_rng(11)
    with T.use_dtype(np.float64):
        w, v = rng.normal(size=(2, 3, 4))
        for order in (1, -1):  # both backward orders of a's two consumers
            a, b = (Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(2))
            T.add(*[T.tsum(T.mul(T.add(a, b), w)), T.tsum(T.mul(a, v))][::order]).backward()
            assert np.allclose(a.grad, w + v, rtol=1e-12, atol=0), "a.grad"
            assert np.allclose(b.grad, w, rtol=1e-12, atol=0), "b.grad"
    return "add's parents keep separate gradients when one also feeds another term"


def _check_causality() -> str:
    cfg = ModelConfig(
        n_layers=2, d_model=16, n_heads=2, n_experts=4, top_k=2,
        ffn_hidden=16, vocab_size=32, max_tokens=8,
    )
    model = TrafficModel(cfg, seed=5)
    rng = np.random.default_rng(5)
    ids = rng.integers(0, 32, size=(1, 8))
    changed = ids.copy()
    changed[0, 5:] = rng.integers(0, 32, size=3)
    with T.no_grad():
        base, after = (T.matmul(model.forward(x, mode="hidden")[0], model.params["head.vocab"])
                       for x in (ids, changed))
    assert np.array_equal(base.data[:5], after.data[:5])
    return "prefix logits bit-identical under suffix perturbation"


def _check_pad_invariance() -> str:
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=2, n_experts=4, top_k=2, ffn_hidden=16, vocab_size=32,
                      max_tokens=8, num_classes=3)
    model = TrafficModel(cfg, seed=9)
    valid = np.arange(32) < np.array([8, 3, 5])[:, None]  # the S=8 batch plus 24 trailing [PAD]
    ids = np.where(valid, np.random.default_rng(9).integers(3, 32, size=valid.shape), 2)
    outputs = []
    for s in (8, 32):
        class_logits, _ = model.forward(ids[:, :s], valid[:, :s], mode="classify")
        h, routing = model.forward(ids[:, :s], valid[:, :s], mode="hidden")
        task = ntp_loss(h, model.params["head.vocab"], ids[:, :s], valid[:, :s])
        loss = T.add(task, T.mul(load_balance_loss(routing), 0.02))
        model.zero_grad()
        loss.backward()
        grads = [p.grad.dense() if isinstance(p.grad, T.RowGrad) else p.grad for p in model.params.values()]
        outputs.append([class_logits.data, loss.data] + grads)
    assert all(np.array_equal(a, b) for a, b in zip(*outputs))
    return "class logits, LM loss and gradients bit-identical under 4x trailing [PAD]"


def _check_sharded_forward() -> str:
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=2, n_experts=4, top_k=2, ffn_hidden=16, vocab_size=32,
                      max_tokens=8, num_classes=3)
    model = TrafficModel(cfg, seed=12)
    valid = np.arange(8) < np.array([8, 3, 6, 5])[:, None]
    ids = np.where(valid, np.random.default_rng(12).integers(3, 32, size=valid.shape), 2)
    runs = []
    for threads in (1, 2):  # one BLAS thread: one shard; two: two shards of one BLAS thread each
        with T.no_grad(), T.blas_threads(threads):
            shards = inference_shards(len(ids))
            before = T.matmul_flops()
            logits, routing = model.forward(ids, valid, mode="classify")
            runs.append((logits.data, [rec.selected for rec in routing], T.matmul_flops() - before))
    (serial, serial_sel, serial_flops), (sharded, sharded_sel, sharded_flops) = runs
    diff = float(np.max(np.abs(sharded - serial)))
    assert diff <= 1e-5, f"logits differ by {diff:.2e}"
    assert np.array_equal(np.argmax(sharded, axis=1), np.argmax(serial, axis=1)), "classes"
    assert all(np.array_equal(a, b) for a, b in zip(sharded_sel, serial_sel)), "routing"
    assert sharded_flops == serial_flops, f"FLOPs {sharded_flops} != {serial_flops}"
    return f"{shards} shards against 1: logits within {diff:.1e}; classes, routing and FLOPs equal"


def _check_tokenizer() -> str:
    vocab = build_vocabulary(mode="full_bigram")
    assert len(vocab) == FULL_BIGRAM_VOCAB_SIZE
    cfg = SerializerConfig(packets_per_flow=10, payload_bytes=40, max_tokens=512)
    flow = synth_flow(np.random.default_rng(2), label=1, n_packets=6)
    codes = serialize_flow(flow, cfg)
    seq = tokenize(codes, vocab, cfg.max_tokens)
    assert codes[0] == PD_ID and codes[-1] == END_ID and UNK_ID not in codes
    assert seq.n_valid == len(codes) and np.array_equal(seq.ids[: len(codes)], codes)
    assert np.all(seq.ids[len(codes) :] == PAD_ID)
    return f"vocab size {FULL_BIGRAM_VOCAB_SIZE}; no [UNK]; markers intact; ids pass through unchanged"


def _check_flows() -> str:
    packets = FlowTable.of(synth_flows(6, n_classes=2, seed=4)).packets
    parsed = parse_capture(write_pcap(packets))
    assert len(parsed) == len(packets)
    reassembled = reassemble_sessions(parsed)
    assert reassembled.counts.sum() == len(parsed)
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
    with T.use_dtype(np.float64):  # two steps over three blocks, the last one partial
        rng = np.random.default_rng(10)
        start, grads = rng.normal(size=2 * T.ADAMW_BLOCK + 7), rng.normal(size=(2, 2 * T.ADAMW_BLOCK + 7))
        q = Tensor(start, requires_grad=True)
        opt = AdamW([q], lr=0.1, weight_decay=0.01)
        expected, m, v = start.copy(), 0.0, 0.0
        for t, g in enumerate(grads, 1):
            q.grad = g.copy()
            opt.step()
            m, v = 0.9 * m + 0.1 * g, 0.999 * v + 0.001 * g * g
            expected -= 0.1 * ((m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8) + 0.01 * expected)
        assert np.allclose(q.data, expected, rtol=1e-12, atol=1e-12)
        start = rng.normal(size=(9, 3))  # row-sparse: listed rows follow the formula, the others stay put
        r = Tensor(start, requires_grad=True)
        opt = AdamW([r], lr=0.1, weight_decay=0.01)
        expected, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
        for t, rows in enumerate((np.array([1, 4, 7]), np.array([0, 4, 8])), 1):
            g = rng.normal(size=(len(rows), 3))
            before = r.data.copy()
            r.grad = T.RowGrad(rows, g.copy(), start.shape)
            opt.step()
            m[rows], v[rows] = 0.9 * m[rows] + 0.1 * g, 0.999 * v[rows] + 0.001 * g * g
            step = (m[rows] / (1 - 0.9**t)) / (np.sqrt(v[rows] / (1 - 0.999**t)) + 1e-8)
            expected[rows] -= 0.1 * (step + 0.01 * expected[rows])
            assert np.allclose(r.data[rows], expected[rows], rtol=1e-12, atol=1e-12)
            others = np.setdiff1d(np.arange(len(start)), rows)
            assert np.array_equal(r.data[others], before[others])
    return ("zero grad + zero decay leaves parameters bit-unchanged; float64 steps across blocks match the formula; "
            "a row-sparse step moves only its rows")


CHECKS = [
    ("routing_invariants", _check_routing),
    ("balance_loss_anchors", _check_balance_anchors),
    ("rotary_embedding", _check_rope),
    ("gradient_spot_check", _check_gradients),
    ("gradient_ownership", _check_gradient_ownership),
    ("causality", _check_causality),
    ("pad_invariance", _check_pad_invariance),
    ("sharded_forward", _check_sharded_forward),
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
