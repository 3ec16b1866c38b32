import numpy as np
import pytest

from conftest import lm_logits, tiny_config
from reference_ops import flops_per_sequence_ref
from trafficmoe import tensor as T
from trafficmoe.evaluation import (
    RoutingAccumulator,
    bench_to_tsv,
    build_dense_variant,
    check_parameter_match,
    compose_shift_split,
    compute_metrics,
    confusion_counts,
    efficiency_bench,
    metrics_to_tsv,
    proportion_shift_split,
    time_shift_split,
    trace_dump_tsv,
)
from trafficmoe.model import ModelConfig, TrafficModel
from trafficmoe.tokenization import PAD_ID, TokenSequence


# -- metrics ------------------------------------------------------------------


def metrics_loop_oracle(counts: np.ndarray) -> dict:
    """Independent per-class loop over the confusion-matrix definitions."""
    n_classes = counts.shape[0]
    total = counts.sum()
    per = {k: [] for k in ("precision", "recall", "f1", "fnr", "fpr")}
    for c in range(n_classes):
        tp = counts[c][c]
        fp = sum(counts[r][c] for r in range(n_classes) if r != c)
        fn = sum(counts[c][p] for p in range(n_classes) if p != c)
        tn = total - tp - fp - fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per["precision"].append(precision)
        per["recall"].append(recall)
        per["f1"].append(f1)
        per["fnr"].append(1.0 - recall)
        per["fpr"].append(fp / (fp + tn) if fp + tn else 0.0)
    out = {k: np.array(v) for k, v in per.items()}
    out["macro_precision"] = float(np.mean(per["precision"]))
    out["macro_recall"] = float(np.mean(per["recall"]))
    out["macro_f1"] = float(np.mean(per["f1"]))
    out["accuracy"] = float(sum(counts[c][c] for c in range(n_classes)) / total)
    return out


def test_metrics_perfect_diagonal():
    metrics = compute_metrics(np.diag([5, 3, 7]))
    assert metrics["accuracy"] == 1.0
    assert metrics["macro_precision"] == metrics["macro_recall"] == metrics["macro_f1"] == 1.0
    assert np.all(metrics["fnr"] == 0.0) and np.all(metrics["fpr"] == 0.0)


def test_metrics_two_class_hand_computed():
    metrics = compute_metrics(np.array([[8, 2], [1, 9]]))
    assert metrics["precision"][0] == pytest.approx(8 / 9)
    assert metrics["recall"][0] == pytest.approx(0.8)
    assert metrics["fnr"][0] == pytest.approx(0.2)
    assert metrics["fpr"][0] == pytest.approx(0.1)
    assert metrics["accuracy"] == pytest.approx(17 / 20)


def test_metrics_single_class_degenerate():
    metrics = compute_metrics(np.array([[precision] for precision in [4]]))
    assert metrics["macro_f1"] == metrics["f1"][0] == 1.0


def test_metrics_match_loop_oracle_on_random_matrices(rng):
    for _ in range(100):
        size = int(rng.integers(2, 7))
        counts = rng.integers(0, 40, size=(size, size))
        got = compute_metrics(counts)
        expected = metrics_loop_oracle(counts)
        for key, value in expected.items():
            assert np.max(np.abs(np.asarray(got[key]) - np.asarray(value))) < 1e-12


def test_fnr_identity_exact(rng):
    counts = rng.integers(0, 25, size=(5, 5)) + np.eye(5, dtype=int)
    metrics = compute_metrics(counts)
    assert np.all(metrics["fnr"] == 1.0 - metrics["recall"])


def test_confusion_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        compute_metrics(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        compute_metrics(np.zeros(4))
    with pytest.raises(ValueError, match="non-negative"):
        compute_metrics(np.array([[1, -1], [0, 0]]))
    with pytest.raises(ValueError, match="empty"):
        compute_metrics(np.zeros((2, 2)))


@pytest.mark.parametrize("y_true,y_pred", [([2], [0]), ([0], [2]), ([-1, 0], [0, 0]), ([0, 1], [1, -1])])
def test_confusion_matrix_rejects_labels_out_of_range(y_true, y_pred):
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        confusion_counts(y_true, y_pred, 2)


def test_confusion_counts_tally_true_by_predicted():
    counts = confusion_counts([0, 0, 1, 2, 2, 2], [0, 1, 1, 2, 2, 0], 4)
    assert counts.dtype == np.int64
    assert counts.tolist() == [[1, 1, 0, 0], [0, 1, 0, 0], [1, 0, 2, 0], [0, 0, 0, 0]]
    assert confusion_counts([], [], 3).tolist() == [[0] * 3] * 3


def test_metrics_tsv_deterministic(tmp_path):
    metrics = compute_metrics(np.array([[8, 2], [1, 9]]))
    metrics_to_tsv(metrics, tmp_path / "a.tsv")
    metrics_to_tsv(metrics, tmp_path / "b.tsv")
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


# -- time shift ----------------------------------------------------------------


def test_time_shift_span_percentages():
    times = np.arange(1.0, 11.0)
    labels = np.zeros(10, dtype=int)
    train_items, test_items = time_shift_split(times, labels)
    assert train_items.tolist() == [0, 1, 2, 3]      # t in [1, 4.6)
    assert test_items.tolist() == [6, 7, 8, 9]       # t in (6.4, 10]


def test_time_shift_zero_span_warns_all_train():
    with pytest.warns(UserWarning, match="zero time"):
        train_items, test_items = time_shift_split([5.0, 5.0, 5.0], [0, 0, 0])
    assert train_items.tolist() == [0, 1, 2] and test_items.tolist() == []
    assert train_items.dtype == test_items.dtype == np.int64  # an empty split too


def test_time_shift_matches_brute_force_oracle(rng):
    n = 200
    times = rng.uniform(0, 100, size=n)
    labels = rng.integers(0, 3, size=n)
    train_items, test_items = time_shift_split(times, labels)
    train_set, test_set = set(train_items.tolist()), set(test_items.tolist())
    assert not train_set & test_set
    for i in range(n):
        cls_times = times[labels == labels[i]]
        span = cls_times.max() - cls_times.min()
        in_train = times[i] < cls_times.min() + 0.4 * span
        in_test = times[i] > cls_times.max() - 0.4 * span
        assert (i in train_set) == in_train
        assert (i in test_set) == in_test



# -- proportion shift -------------------------------------------------------------


def _labeled_items(spec):
    """spec: list of (coarse, fine, count) -> (coarse[], fine[]), one entry per sample."""
    coarse, fine = [], []
    for c, f, count in spec:
        coarse += [c] * count
        fine += [f] * count
    return np.array(coarse), np.array(fine)


def test_proportion_shift_documented_budget_case():
    # sub-class 0 dominates; the minor pool of 50 sets each side's size to 5 * (50 // 5)
    coarse, fine = _labeled_items([(0, 0, 100), (0, 1, 50)])
    train_items, test_items = proportion_shift_split(coarse, fine)
    train_fine = [fine[i] for i in train_items]
    test_fine = [fine[i] for i in test_items]
    assert (train_fine.count(0), train_fine.count(1)) == (40, 10)
    assert (test_fine.count(0), test_fine.count(1)) == (10, 40)
    assert not set(train_items) & set(test_items)


def test_proportion_shift_swap_symmetry():
    # the same counts with the sub-class labels swapped, so the other sub-class dominates
    a_coarse, a_fine = _labeled_items([(0, 0, 100), (0, 1, 50)])
    b_coarse, b_fine = _labeled_items([(0, 0, 50), (0, 1, 100)])
    a_train, a_test = proportion_shift_split(a_coarse, a_fine)
    b_train, b_test = proportion_shift_split(b_coarse, b_fine)
    a_of = lambda split: sorted(a_fine[i] for i in split)
    b_of = lambda split: sorted(b_fine[i] for i in split)
    assert a_of(a_train) == [1 - f for f in reversed(b_of(b_train))]
    assert a_of(a_test) == [1 - f for f in reversed(b_of(b_test))]


def test_proportion_shift_counting_oracle(rng):
    for _ in range(10):
        dom = int(rng.integers(20, 60))
        minor = int(rng.integers(20, 60))
        coarse, fine = _labeled_items([(0, 0, dom), (0, 1, minor), (1, 5, 30), (1, 6, 45)])
        train_items, test_items = proportion_shift_split(coarse, fine)
        for cls in (0, 1):
            tr = [i for i in train_items if coarse[i] == cls]
            te = [i for i in test_items if coarse[i] == cls]
            sub_ids, counts = np.unique(fine[coarse == cls], return_counts=True)
            dom_id = sub_ids[np.argmax(counts)]
            tr_dom = sum(1 for i in tr if fine[i] == dom_id)
            te_dom = sum(1 for i in te if fine[i] == dom_id)
            assert tr_dom == 4 * (len(tr) - tr_dom)       # train 4:1
            assert 4 * te_dom == len(te) - te_dom         # test 1:4
        assert not set(train_items) & set(test_items)


def test_proportion_shift_insufficient_samples_names_class():
    coarse, fine = _labeled_items([(7, 0, 3), (7, 1, 1)])
    with pytest.raises(ValueError, match="7"):
        proportion_shift_split(coarse, fine)


# -- compose shift ------------------------------------------------------------------


def test_compose_shift_two_subclasses():
    coarse, fine = _labeled_items([(0, 0, 20), (0, 1, 20)])
    train_items, test_items = compose_shift_split(coarse, fine, seed=5)
    train_fine = {fine[i] for i in train_items}
    test_fine = {fine[i] for i in test_items}
    assert len(train_fine) == 1          # ceil(2/2) = 1 sub-class masked
    assert test_fine == {0, 1}           # test covers all sub-classes
    assert not set(train_items) & set(test_items)


def test_compose_shift_seed_determinism():
    coarse, fine = _labeled_items([(0, 0, 10), (0, 1, 10), (1, 2, 10), (1, 3, 10), (1, 4, 10)])
    a = compose_shift_split(coarse, fine, seed=3)
    b = compose_shift_split(coarse, fine, seed=3)
    assert [split.tolist() for split in a] == [split.tolist() for split in b]


def test_compose_shift_masks_ceil_half_per_class():
    coarse, fine = _labeled_items(
        [(0, f, 8) for f in range(5)] + [(1, 10 + f, 8) for f in range(4)]
    )
    train_items, test_items = compose_shift_split(coarse, fine, seed=1)
    for cls, n_sub in ((0, 5), (1, 4)):
        sub_all = set(fine[coarse == cls].tolist())
        sub_train = {fine[i] for i in train_items if coarse[i] == cls}
        assert len(sub_all - sub_train) == -(-n_sub // 2)
        assert {fine[i] for i in test_items if coarse[i] == cls} == sub_all


def test_compose_shift_masking_rate_over_seeds():
    coarse, fine = _labeled_items([(0, 0, 4), (0, 1, 4), (0, 2, 4), (0, 3, 4)])
    masked_counts = {f: 0 for f in range(4)}
    n_seeds = 1000
    for seed in range(n_seeds):
        train_items, _ = compose_shift_split(coarse, fine, seed=seed)
        present = {fine[i] for i in train_items}
        for f in range(4):
            if f not in present:
                masked_counts[f] += 1
    for f, count in masked_counts.items():
        assert abs(count / n_seeds - 0.5) < 0.05


# -- routing statistics ----------------------------------------------------------------


def test_routing_stats_one_hot(tiny_model, rng):
    from trafficmoe.model import LayerRouting
    from trafficmoe.tensor import Tensor

    probs = np.zeros((1, 4))
    probs[0, 2] = 1.0
    acc = RoutingAccumulator()
    acc.add([LayerRouting(probs=Tensor(probs), selected=np.array([[2]]))])
    assert acc.mean_probs(0).tolist() == [0.0, 0.0, 1.0, 0.0]
    assert acc.load_fractions(0).tolist() == [0.0, 0.0, 1.0, 0.0]


def test_routing_stats_match_trace_dump(tmp_path, tiny_model, rng):
    ids = rng.integers(0, 64, size=(3, 12))
    _, routing = tiny_model.forward(ids, mode="hidden")
    acc = RoutingAccumulator()
    acc.add(routing)
    dump = tmp_path / "trace.tsv"
    trace_dump_tsv(routing, dump)
    # recompute the stats from the dumped text
    rows = [line.split("\t") for line in dump.read_text().splitlines()[1:]]
    for layer in range(len(routing)):
        sums = np.zeros(4)
        count = 0
        for layer_txt, tok, expert, prob in rows:
            if int(layer_txt) == layer:
                sums[int(expert)] += float(prob)
                count += 1
        recomputed = sums / (count / 4)
        assert np.allclose(acc.mean_probs(layer), recomputed, atol=1e-9)
        assert acc.mean_probs(layer).sum() == pytest.approx(1.0, abs=1e-6)


# -- flops and the dense twin -------------------------------------------------------------


def bench_config(**overrides):
    base = dict(
        n_layers=2, d_model=32, n_heads=4, n_experts=8, top_k=2,
        ffn_hidden=64, vocab_size=256, max_tokens=16, num_classes=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


def forward_flops(model, ids, mode="hidden"):
    """``T.matmul_flops()`` difference over one all-valid ``no_grad`` forward (``lm``: hidden times the head)."""
    valid = np.ones(ids.shape, dtype=bool)
    with T.no_grad():
        before = T.matmul_flops()
        if mode == "lm":
            lm_logits(model, ids, valid)
        else:
            model.forward(ids, valid, mode=mode)
        return T.matmul_flops() - before


def valid_corpus(n, seq_len, vocab_size, seed=0):
    """``n`` sequences of ``seq_len`` random ids in [PAD_ID + 1, vocab_size), every slot valid."""
    ids = np.random.default_rng(seed).integers(PAD_ID + 1, vocab_size, size=(n, seq_len))
    return [TokenSequence(row) for row in ids]


def test_analytic_flops_match_instrumented_counter(rng):
    cfg = bench_config()
    model = TrafficModel(cfg, seed=0)
    for mode in ("hidden", "lm", "classify"):
        for batch in (1, 2):
            ids = rng.integers(0, cfg.vocab_size, size=(batch, cfg.max_tokens))
            assert forward_flops(model, ids, mode) == batch * flops_per_sequence_ref(cfg, cfg.max_tokens, mode)


def test_efficiency_bench_without_a_class_head_builds_no_vocab_sized_logits():
    cfg = bench_config(num_classes=None, vocab_size=4096)
    model = TrafficModel(cfg, seed=0)
    dense = build_dense_variant(model)
    batch, seq_len = 8, 16
    logits_bytes = batch * seq_len * cfg.vocab_size * 4  # one float32 [B*S, V] array: 2 MiB
    corpus = valid_corpus(batch, seq_len, cfg.vocab_size)
    moe_row = efficiency_bench(model, dense, corpus, batch_sizes=(batch,))[0]
    assert moe_row.model == "moe"
    assert 0 < moe_row.peak_bytes < logits_bytes / 2
    ids = corpus[0].ids[None]
    assert moe_row.flops_per_seq == forward_flops(model, ids) == flops_per_sequence_ref(cfg, seq_len, "hidden")


def test_dense_variant_flops_match_counter(rng):
    model = TrafficModel(bench_config(), seed=0)
    dense = build_dense_variant(model)
    ids = rng.integers(0, 256, size=(2, 16))
    assert forward_flops(dense, ids, "classify") == 2 * flops_per_sequence_ref(dense.config, 16, "classify")


def test_ffn_flops_strictly_increase_with_k(rng):
    ids = rng.integers(0, 256, size=(2, 16))
    flops = []
    for k in range(1, 9):
        cfg = bench_config(top_k=k, ffn_hidden=32 * k)
        assert cfg.expert_hidden == 32
        flops.append(forward_flops(TrafficModel(cfg, seed=0), ids))
    assert all(b > a for a, b in zip(flops, flops[1:]))


def test_moe_ffn_flops_beat_matched_dense_for_sparse_k(rng):
    model = TrafficModel(bench_config(), seed=0)
    ids = rng.integers(0, 256, size=(2, 16))
    assert forward_flops(model, ids) < forward_flops(build_dense_variant(model), ids)


def test_dense_limit_k_equals_n_no_sparsity_win(rng):
    model = TrafficModel(bench_config(top_k=8, ffn_hidden=64), seed=0)
    ids = rng.integers(0, 256, size=(2, 16))
    assert forward_flops(model, ids) >= forward_flops(build_dense_variant(model), ids)


def test_dense_variant_parameter_match_and_mismatch_error():
    model = TrafficModel(bench_config(), seed=0)
    dense = build_dense_variant(model)
    check_parameter_match(model, dense)  # within 1%
    undersized = TrafficModel(bench_config(ffn_kind="dense", dense_hidden=16), seed=0)
    with pytest.raises(ValueError, match=r"\d+ vs \d+"):
        check_parameter_match(model, undersized)


def test_efficiency_bench_report_structure(tmp_path):
    model = TrafficModel(bench_config(), seed=0)
    dense = build_dense_variant(model)
    corpus = valid_corpus(6, 16, model.config.vocab_size)  # batch size 4 ends on a short batch of 2
    rows = efficiency_bench(model, dense, corpus, batch_sizes=(2, 4))
    assert [(r.model, r.batch_size) for r in rows] == [("moe", 2), ("moe", 4), ("dense", 2), ("dense", 4)]
    for row in rows:
        bench_model, ratio = (model, 0.4) if row.model == "moe" else (dense, 1.0)
        assert row.throughput_seq_per_s > 0
        assert row.mean_latency_ms > 0
        assert row.active_param_ratio == pytest.approx(ratio)
        assert row.peak_bytes > 0
        assert row.flops_per_seq == flops_per_sequence_ref(bench_model.config, 16, "classify") > 0
    out = tmp_path / "bench.tsv"
    bench_to_tsv(rows, out)
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 4
    assert lines[1].startswith("moe\t2\t")
    assert lines[3].startswith("dense\t2\t")


def test_routed_model_peaks_below_its_dense_twin():
    model = TrafficModel(bench_config(), seed=0)
    corpus = valid_corpus(4, 16, model.config.vocab_size)
    moe_row, dense_row = efficiency_bench(model, build_dense_variant(model), corpus, batch_sizes=(4,))
    assert (moe_row.model, dense_row.model) == ("moe", "dense")
    assert 0 < moe_row.peak_bytes < dense_row.peak_bytes


def test_efficiency_bench_flops_are_the_corpus_forward_flops():
    """On a ragged corpus, ``flops_per_seq`` is the sum of each sequence's own forward FLOPs over the
    sequence count, floored to the column's integer: every batch size, short last batch or not."""
    model = TrafficModel(bench_config(), seed=0)
    dense = build_dense_variant(model)
    rng = np.random.default_rng(1)
    corpus = []
    for n_valid in (16, 3, 9, 1, 12, 5, 16):
        ids = np.full(16, PAD_ID)
        ids[:n_valid] = rng.integers(PAD_ID + 1, model.config.vocab_size, size=n_valid)
        corpus.append(TokenSequence(ids))
    for row in efficiency_bench(model, dense, corpus, batch_sizes=(1, 3, 7)):
        bench_model = model if row.model == "moe" else dense
        total = 0
        with T.no_grad():
            for seq in corpus:
                before = T.matmul_flops()
                bench_model.forward(seq.ids[None], seq.valid_mask[None], mode="classify")
                total += T.matmul_flops() - before
        assert row.flops_per_seq == total // len(corpus), (row.model, row.batch_size)
