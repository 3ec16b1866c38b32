import math

import numpy as np
import pytest

from conftest import tiny_config
from trafficmoe import evaluation, training
from trafficmoe import tensor as T
from trafficmoe.model import TrafficModel
from trafficmoe.synth import synth_flows
from trafficmoe.tensor import Tensor
from trafficmoe.tokenization import (
    SerializerConfig,
    build_vocabulary,
    serialize_flow,
    tokenize,
)
from trafficmoe.training import (
    DivergenceError,
    TrainConfig,
    batch_arrays,
    build_param_groups,
    classification_loss,
    composite_loss,
    llrd_schedule,
    ntp_loss,
    split_dataset,
    train,
)


def small_dataset(n_flows=24, n_classes=2, seed=0, max_tokens=64):
    serializer = SerializerConfig(packets_per_flow=4, payload_bytes=12, max_tokens=max_tokens)
    flows = synth_flows(n_flows, n_classes=n_classes, seed=seed, n_packets=5)
    corpus = [serialize_flow(f, serializer) for f in flows]
    vocab = build_vocabulary(corpus, mode="wordpiece", min_freq=1)
    seqs = [
        tokenize(line, vocab, max_tokens, label=f.label) for line, f in zip(corpus, flows)
    ]
    return seqs, vocab


def small_model(vocab_size, max_tokens, num_classes=2, seed=0, **overrides):
    cfg = tiny_config(
        vocab_size=vocab_size, max_tokens=max_tokens, num_classes=num_classes, **overrides
    )
    return TrafficModel(cfg, seed=seed)


# -- losses ------------------------------------------------------------------


def head_of(logits: np.ndarray) -> tuple[Tensor, Tensor]:
    """(h, head_vocab) whose product is ``logits``: the rows themselves times an identity head."""
    return Tensor(logits), Tensor(np.eye(logits.shape[-1]))


def test_ntp_loss_uniform_two_token_vocab():
    logits = np.zeros((2 * 5, 2))  # packed rows: every slot of an unmasked batch
    ids = np.ones((2, 5), dtype=int)
    valid = np.ones((2, 5), dtype=bool)
    assert ntp_loss(*head_of(logits), ids, valid).item() == pytest.approx(math.log(2), rel=1e-6)


def test_ntp_loss_confident_predictions_vanish():
    ids = np.array([[1, 0, 1, 0]])
    logits = np.full((4, 2), -30.0)
    for t in range(3):
        logits[t, ids[0, t + 1]] = 30.0
    valid = np.ones((1, 4), dtype=bool)
    assert ntp_loss(*head_of(logits), ids, valid).item() < 1e-6


def test_ntp_loss_matches_per_position_oracle(rng):
    vocab_size, seq_len = 7, 3
    logits = rng.normal(size=(seq_len, vocab_size))
    ids = rng.integers(0, vocab_size, size=(1, seq_len))
    valid = np.ones((1, seq_len), dtype=bool)
    out = ntp_loss(*head_of(logits), ids, valid).item()
    # hand computation: hidden at t-1 predicts token at t
    expected = 0.0
    for t in range(1, seq_len):
        row = logits[t - 1]
        log_probs = row - (row.max() + np.log(np.exp(row - row.max()).sum()))
        expected -= log_probs[ids[0, t]]
    assert out == pytest.approx(expected / (seq_len - 1), rel=1e-5)


def test_ntp_loss_excludes_padded_targets(rng):
    vocab_size = 5
    logits = rng.normal(size=(3, vocab_size))  # packed: trailing [PAD] slots have no row
    ids = rng.integers(0, vocab_size, size=(1, 6))
    valid = np.array([[True, True, True, False, False, False]])
    out = ntp_loss(*head_of(logits), ids, valid).item()
    expected = 0.0
    for t in (1, 2):
        row = logits[t - 1]
        log_probs = row - (row.max() + np.log(np.exp(row - row.max()).sum()))
        expected -= log_probs[ids[0, t]]
    assert out == pytest.approx(expected / 2, rel=1e-5)


def test_ntp_loss_needs_two_valid_tokens():
    with pytest.raises(ValueError):
        ntp_loss(*head_of(np.zeros((3, 2))), np.zeros((1, 3), int), np.array([[True, False, False]]))


def test_classification_loss_uniform_and_confident():
    uniform = classification_loss(Tensor(np.zeros((4, 2))), np.array([0, 1, 0, 1]))
    assert uniform.item() == pytest.approx(math.log(2), rel=1e-6)
    confident = np.full((3, 4), -30.0)
    labels = np.array([1, 2, 0])
    for i, label in enumerate(labels):
        confident[i, label] = 30.0
    assert classification_loss(Tensor(confident), labels).item() < 1e-6


def test_classification_loss_matches_loop_oracle(rng):
    logits = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    out = classification_loss(Tensor(logits), labels).item()
    expected = 0.0
    for row, label in zip(logits, labels):
        e = np.exp(row - row.max())
        expected -= math.log(e[label] / e.sum())
    assert out == pytest.approx(expected / 6, rel=1e-6)


def test_classification_loss_validates_labels():
    with pytest.raises(ValueError):
        classification_loss(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_composite_loss_arithmetic():
    task = Tensor(np.asarray(0.5))
    aux = Tensor(np.asarray(1.0))
    assert composite_loss(task, aux, 0.0).item() == pytest.approx(0.5)
    assert composite_loss(task, aux, 0.02).item() == pytest.approx(0.52, rel=1e-6)
    with pytest.raises(ValueError):
        composite_loss(task, aux, -0.1)


def test_composite_gradient_is_sum_of_components(rng):
    with T.use_dtype(np.float64):
        x = rng.normal(size=(3, 3))

        def parts(arr):
            t = Tensor(arr, requires_grad=True)
            task = T.tsum(T.mul(t, t))
            aux = T.tsum(T.mul(t, 3.0))
            return t, task, aux

        t, task, aux = parts(x)
        composite_loss(task, aux, 0.5).backward()
        combined = t.grad.copy()

        t2, task2, _ = parts(x)
        task2.backward()
        t3, _, aux3 = parts(x)
        aux3.backward()
        assert np.allclose(combined, t2.grad + 0.5 * t3.grad, atol=1e-10)

        # finite-difference confirmation on one entry
        h = 1e-6
        x[0, 0] += h
        _, task_up, aux_up = parts(x)
        up = task_up.item() + 0.5 * aux_up.item()
        x[0, 0] -= 2 * h
        _, task_dn, aux_dn = parts(x)
        down = task_dn.item() + 0.5 * aux_dn.item()
        x[0, 0] += h
        assert (up - down) / (2 * h) == pytest.approx(combined[0, 0], rel=1e-6)


# -- schedules ----------------------------------------------------------------


def test_llrd_examples():
    rates = llrd_schedule(4, 1e-4, 0.9)
    assert np.allclose(rates, np.array([7.29, 8.1, 9.0, 10.0]) * 1e-5, rtol=1e-12)
    assert np.allclose(llrd_schedule(5, 2e-4, 1.0), 2e-4)
    deep = llrd_schedule(12, 1e-4, 0.9)
    assert deep[0] == pytest.approx(0.9**11 * 1e-4, rel=1e-12)
    assert deep[-1] == pytest.approx(1e-4, rel=1e-12)


def test_param_groups_depth_and_decay(tiny_model):
    groups = build_param_groups(tiny_model, base_lr=1e-3, llrd_decay=0.9, weight_decay=0.01)
    lr_of = {}
    wd_of = {}
    for group in groups:
        for p in group["params"]:
            lr_of[p.name] = group["lr"]
            wd_of[p.name] = group["weight_decay"]
    n_layers = tiny_model.config.n_layers
    assert lr_of["embed.tok"] == pytest.approx(0.9 ** (n_layers - 1) * 1e-3)
    assert lr_of["layers.0.attn.wo"] == pytest.approx(0.9 ** (n_layers - 1) * 1e-3)
    assert lr_of["layers.1.moe.router"] == pytest.approx(1e-3)
    assert lr_of["head.vocab"] == pytest.approx(1e-3)
    assert wd_of["layers.0.attn.norm_gain"] == 0.0
    assert wd_of["layers.0.moe.shared_gate"] == 0.0
    assert wd_of["head.cls.b1"] == 0.0
    assert wd_of["head.cls.w1"] == 0.01


# -- dataset handling ------------------------------------------------------------


class _Item:
    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return f"Item({self.label})"


def test_split_sizes_8_1_1():
    items = [_Item(0) for _ in range(100)]
    train_s, val_s, test_s = split_dataset(items, seed=1)
    assert (len(train_s), len(val_s), len(test_s)) == (80, 10, 10)
    assert set(map(id, train_s)) | set(map(id, val_s)) | set(map(id, test_s)) == set(map(id, items))


def test_split_stratified_keeps_class_ratios():
    items = [_Item(0) for _ in range(90)] + [_Item(1) for _ in range(10)]
    train_s, val_s, test_s = split_dataset(items, seed=3)
    for part, expected in ((train_s, 0.9), (val_s, 0.9), (test_s, 0.9)):
        zero = sum(1 for item in part if item.label == 0)
        assert abs(zero - expected * len(part)) <= 1.0
    assert (len(train_s), len(val_s), len(test_s)) == (80, 10, 10)


def test_split_deterministic_given_seed():
    items = [_Item(i % 3) for i in range(50)]
    a = split_dataset(items, seed=9)
    b = split_dataset(items, seed=9)
    assert all([x is y for xs, ys in zip(a, b) for x, y in zip(xs, ys)])


def test_batch_arrays_stacks():
    seqs, _ = small_dataset(4)
    ids, valid, labels = batch_arrays(seqs)
    assert ids.shape == valid.shape == (4, 64)
    assert labels.tolist() == [s.label for s in seqs]


# -- the training loop ----------------------------------------------------------


def test_finetune_overfits_small_separable_set():
    seqs, vocab = small_dataset(16, seed=5)
    model = small_model(len(vocab), 64, seed=1)
    config = TrainConfig(mode="finetune", batch_size=8, epochs=25, base_lr=3e-3, seed=0)
    train(model, seqs, config)
    preds = evaluation.predict_classes(model, seqs, batch_size=8)
    labels = np.array([s.label for s in seqs])
    assert (preds == labels).mean() == 1.0


def test_pretrain_loss_decreases():
    seqs, vocab = small_dataset(16, seed=6)
    model = small_model(len(vocab), 64, seed=2)
    config = TrainConfig(mode="pretrain", batch_size=8, epochs=3, base_lr=1e-3, seed=0)
    history, _ = train(model, seqs, config)
    losses = history.series("train", "ntp_loss")
    assert len(losses) == 3
    assert losses[1] < losses[0] and losses[2] < losses[1]


def test_early_stopping_halts_at_best_plus_patience(monkeypatch):
    seqs, vocab = small_dataset(12, seed=7)
    model = small_model(len(vocab), 64, seed=3)

    def frozen_eval(model, seqs, batch_size=32):
        return None, {"macro_f1": 0.5, "accuracy": 0.5}

    monkeypatch.setattr(training, "evaluate_classifier", frozen_eval)
    config = TrainConfig(mode="finetune", batch_size=8, epochs=40, base_lr=1e-4, patience=5, seed=0)
    history, _ = train(model, seqs, config, val_seqs=seqs[:4])
    epochs_run = max(e for e, *_ in history.rows)
    assert epochs_run == 6  # best at epoch 1, halt at 1 + patience


def test_early_stopping_returns_best_state(monkeypatch):
    seqs, vocab = small_dataset(12, seed=8)
    model = small_model(len(vocab), 64, seed=4)
    scores = iter([0.3, 0.9, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4])
    snapshots = {}

    def scripted_eval(m, s, batch_size=32):
        f1 = next(scores)
        snapshots[f1] = m.state_copy()
        return None, {"macro_f1": f1, "accuracy": f1}

    monkeypatch.setattr(training, "evaluate_classifier", scripted_eval)
    config = TrainConfig(mode="finetune", batch_size=8, epochs=40, base_lr=1e-4, patience=5, seed=0)
    train(model, seqs, config, val_seqs=seqs[:4])
    best = snapshots[0.9]
    for name, arr in model.state_copy().items():
        assert np.array_equal(arr, best[name]), name


@pytest.mark.parametrize("mode", ["pretrain", "finetune"])
def test_train_without_validation_copies_no_state(mode, monkeypatch):
    seqs, vocab = small_dataset(12, seed=8)
    model = small_model(len(vocab), 64, seed=4)
    last = {}
    step = T.AdamW.step

    def step_and_snapshot(optimizer):
        step(optimizer)
        last.update({name: p.data.copy() for name, p in model.params.items()})

    def no_copy(self):
        raise AssertionError("state_copy ran without a validation epoch")

    monkeypatch.setattr(T.AdamW, "step", step_and_snapshot)
    monkeypatch.setattr(TrafficModel, "state_copy", no_copy)
    config = TrainConfig(mode=mode, batch_size=8, epochs=1, base_lr=1e-3, seed=0)
    history, best = train(model, seqs, config)
    assert best is None and history.rows
    for name, p in model.params.items():
        assert np.array_equal(p.data, last[name]), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_step():
    seqs, vocab = small_dataset(8, seed=9)
    model = small_model(len(vocab), 64, seed=5)
    config = TrainConfig(mode="finetune", batch_size=4, epochs=3, base_lr=1e9, seed=0)
    with pytest.raises(DivergenceError) as err:
        train(model, seqs, config)
    assert err.value.step >= 1


def test_training_is_reproducible_bitwise():
    def run():
        seqs, vocab = small_dataset(12, seed=10)
        model = small_model(len(vocab), 64, seed=6)
        config = TrainConfig(mode="finetune", batch_size=6, epochs=2, base_lr=1e-3, seed=42)
        train(model, seqs, config)
        return model.state_copy()

    a, b = run(), run()
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_run_directory_layout(tmp_path):
    seqs, vocab = small_dataset(12, seed=11)
    model = small_model(len(vocab), 64, seed=7)
    config = TrainConfig(mode="finetune", batch_size=6, epochs=2, base_lr=1e-3, seed=0)
    train(model, seqs, config, val_seqs=seqs[:4], run_dir=tmp_path / "run")
    run = tmp_path / "run"
    for name in ("config.txt", "history.tsv", "best.ckpt", "last.ckpt"):
        assert (run / name).exists(), name
    assert (run / "routing" / "epoch1.tsv").exists()
    header = (run / "history.tsv").read_text().splitlines()[0]
    assert header == "epoch\tsplit\tmetric\tvalue"


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mode="nonsense")
    with pytest.raises(ValueError):
        TrainConfig(mode="pretrain", llrd_decay=0.0)
    with pytest.raises(ValueError):
        TrainConfig(mode="pretrain", patience=0)
    config = TrainConfig(mode="pretrain")
    assert config.epochs == 8 and config.base_lr == pytest.approx(3e-4)
    config = TrainConfig(mode="finetune")
    assert config.epochs == 40 and config.base_lr == pytest.approx(5e-5)
