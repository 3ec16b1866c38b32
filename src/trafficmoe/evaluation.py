"""Classification metrics, distribution-shift splits, routing statistics, and the
sparse-vs-dense inference benchmark, which reads FLOPs and peak memory off its forward."""

from __future__ import annotations

import dataclasses
import itertools
import time
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .artifacts import write_atomic
from .model import LayerRouting, TrafficModel, forward_in_shards, parameter_specs
from .tokenization import TokenSequence, batch_arrays

# -- confusion matrix and derived metrics -------------------------------------


def confusion_counts(y_true, y_pred, n_classes: int) -> np.ndarray:
    """The ``[n_classes, n_classes]`` int64 counts[true, predicted] of the label pairs."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if np.any((y_true < 0) | (y_true >= n_classes) | (y_pred < 0) | (y_pred >= n_classes)):
        raise ValueError(f"y_true and y_pred must lie in [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return counts


def compute_metrics(counts) -> dict:
    """Per-class precision/recall/F1/FNR/FPR plus macro averages and accuracy of a square,
    non-negative, non-empty confusion matrix ``counts[true, predicted]``.

    Zero-denominator conventions: precision and recall fall back to 0,
    F1 is 0 when precision + recall is 0, and FNR is defined as
    1 - recall so the identity holds exactly.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValueError("confusion matrix must be square")
    if (counts < 0).any():
        raise ValueError("confusion matrix entries must be non-negative")
    total = int(counts.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    tp = np.diag(counts).astype(float)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    tn = total - tp - fp - fn

    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0)
        fpr = np.where(fp + tn > 0, fp / (fp + tn), 0.0)
    fnr = 1.0 - recall

    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "fnr": fnr,
        "fpr": fpr,
        "macro_precision": float(precision.mean()),
        "macro_recall": float(recall.mean()),
        "macro_f1": float(f1.mean()),
        "accuracy": float(tp.sum() / total),
    }


def metrics_to_tsv(metrics: dict, path: str | Path) -> None:
    """Write scalar metrics then per-class rows, deterministically."""
    scalars = ("accuracy", "macro_precision", "macro_recall", "macro_f1")
    write_atomic(path, ["metric\tclass\tvalue\n"] + [f"{key}\t-\t{metrics[key]:.10g}\n" for key in scalars]
                 + [f"{key}\t{cls}\t{value:.10g}\n" for key in ("precision", "recall", "f1", "fnr", "fpr")
                    for cls, value in enumerate(metrics[key])])


def predict_classes(
    model: TrafficModel, sequences: Sequence[TokenSequence], batch_size: int = 32
) -> np.ndarray:
    """Argmax class predictions, ``batch_size`` sequences at a time through ``forward_in_shards``."""
    if batch_size < 1:
        raise ValueError(f"batch_size={batch_size} must be >= 1")
    preds = []
    for start in range(0, len(sequences), batch_size):
        ids, valid, _ = batch_arrays(sequences[start : start + batch_size])
        preds.append(np.argmax(forward_in_shards(model, ids, valid, "classify"), axis=-1))
    return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)


def evaluate_classifier(model: TrafficModel, sequences: Sequence[TokenSequence], batch_size: int = 32) -> dict:
    """``compute_metrics`` of the model's predictions for the labelled ``sequences``."""
    labels = np.array([s.label for s in sequences], dtype=np.int64)
    preds = predict_classes(model, sequences, batch_size)
    return compute_metrics(confusion_counts(labels, preds, model.config.num_classes))


# -- distribution-shift split constructors --------------------------------------


def _joined(parts: list) -> np.ndarray:
    """The index arrays of ``parts`` end to end, as one int64 array, empty when there are none."""
    return np.concatenate([np.zeros(0, np.int64), *parts])


def time_shift_split(times: Sequence[float], labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Past-predicts-future split on each class's time span: the train and test sample indices.

    Per class, samples in the earliest 40% of the span go to train and
    those in the latest 40% to test; the 20% buffer between them is
    discarded. A class whose samples share one timestamp goes entirely to
    train, with a warning.
    """
    times = np.asarray(times, dtype=float)
    labels = np.asarray(labels)
    train: list = []
    test: list = []
    for cls in np.unique(labels):
        members = np.nonzero(labels == cls)[0]
        t = times[members]
        span = float(t.max() - t.min())
        if span == 0.0:
            warnings.warn(f"class {cls} spans zero time; all samples assigned to train")
            train.append(members)
            continue
        lo = t.min() + 0.4 * span
        hi = t.max() - 0.4 * span
        train.append(members[t < lo])
        test.append(members[t > hi])
    return _joined(train), _joined(test)


def proportion_shift_split(coarse: Sequence[int], fine: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Invert dominant/minor composition between train and test: the train and test sample indices.

    Within each coarse class the dominant sub-class (the most frequent
    one, the lowest label among ties) outnumbers the aggregated minor pool
    4:1 in train and 1:4 in test, sampled disjointly in stable order. With
    ``unit`` = min(dominant pool, minor pool) // 5, each side holds
    5 * ``unit`` samples of the class.
    """
    coarse = np.asarray(coarse)
    fine = np.asarray(fine)
    train: list = []
    test: list = []
    for cls in np.unique(coarse):
        members = np.nonzero(coarse == cls)[0]
        sub = fine[members]
        sub_ids, counts = np.unique(sub, return_counts=True)
        if sub_ids.size < 2:
            raise ValueError(f"coarse class {cls} needs >= 2 fine sub-classes")
        dom = sub_ids[np.argmax(counts)]
        dom_pool = members[sub == dom]
        min_pool = members[sub != dom]
        unit = min(len(dom_pool), len(min_pool)) // 5
        if unit < 1:
            raise ValueError(
                f"coarse class {cls} has too few samples to realize the 4:1 ratios "
                f"(dominant {len(dom_pool)}, minor {len(min_pool)})"
            )
        train += [dom_pool[: 4 * unit], min_pool[:unit]]
        test += [dom_pool[4 * unit : 5 * unit], min_pool[unit : 5 * unit]]
    return _joined(train), _joined(test)


def compose_shift_split(coarse: Sequence[int], fine: Sequence[int], seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Hide half of each coarse class's sub-classes from training: the train and test sample indices.

    Per coarse class, a seeded random ceil(s/2) of its s sub-classes go
    only to test; each remaining sub-class holds out a seeded random 20%
    of its samples (at least one) so test covers every sub-class.
    """
    coarse = np.asarray(coarse)
    fine = np.asarray(fine)
    rng = np.random.default_rng(seed)
    train: list = []
    test: list = []
    for cls in np.unique(coarse):
        members = np.nonzero(coarse == cls)[0]
        sub_ids = np.unique(fine[members])
        if sub_ids.size < 2:
            raise ValueError(f"coarse class {cls} needs >= 2 fine sub-classes")
        n_masked = -(-sub_ids.size // 2)  # ceil(s/2)
        masked = set(rng.permutation(sub_ids)[:n_masked].tolist())
        for sub in sub_ids:
            pool = members[fine[members] == sub]
            if sub in masked:
                test.append(pool)
            else:
                n_test = max(1, int(len(pool) * 0.2))
                picked = np.isin(pool, rng.choice(pool, size=n_test, replace=False))
                test.append(pool[picked])
                train.append(pool[~picked])
    return _joined(train), _joined(test)


# -- routing statistics -----------------------------------------------------------


class RoutingAccumulator:
    """Aggregates forwards' routing lists into per-layer load and probability tables;
    the first list added sets the layer and expert counts."""

    def __init__(self):
        self._prob_sums: list[np.ndarray] = []
        self._load_sums: list[np.ndarray] = []  # per layer: each record's load fractions times its token count
        self._tokens: list[int] = []

    def add(self, routing: list[LayerRouting]) -> None:
        if not self._tokens:
            self._prob_sums = [np.zeros(rec.probs.shape[1]) for rec in routing]
            self._load_sums = [np.zeros(rec.probs.shape[1]) for rec in routing]
            self._tokens = [0] * len(routing)
        for i, rec in enumerate(routing):
            self._prob_sums[i] += rec.probs.data.sum(axis=0)
            self._load_sums[i] += rec.load_fractions() * rec.n_tokens
            self._tokens[i] += rec.n_tokens

    def mean_probs(self, layer: int) -> np.ndarray:
        return self._prob_sums[layer] / max(self._tokens[layer], 1)

    def load_fractions(self, layer: int) -> np.ndarray:
        """``LayerRouting.load_fractions`` over every token added."""
        return self._load_sums[layer] / max(self._tokens[layer], 1)

    def to_tsv(self, path: str | Path) -> None:
        write_atomic(path, ["layer\texpert\tload\tprob\n"] + [
            f"{layer}\t{e}\t{load:.10g}\t{prob:.10g}\n" for layer in range(len(self._tokens))
            for e, (load, prob) in enumerate(zip(self.load_fractions(layer), self.mean_probs(layer)))])


def trace_dump_tsv(routing: list[LayerRouting], path: str | Path) -> None:
    """Dump one forward's routing list at full resolution: layer, token, expert, probability.

    ``token`` indexes the forward's packed rows, ``model.packed_rows(ids.shape, valid_mask)``:
    each sequence's slots up to its last valid one, back to back; trailing [PAD] is absent.
    """
    write_atomic(path, itertools.chain(["layer\ttoken\texpert\tprob\n"], (
        f"{layer}\t{tok}\t{e}\t{p:.10g}\n" for layer, rec in enumerate(routing)
        for tok, row in enumerate(rec.probs.data) for e, p in enumerate(row))))


# -- sparse-vs-dense benchmark -----------------------------------------------------


@dataclass
class BenchRow:
    model: str
    batch_size: int
    throughput_seq_per_s: float
    mean_latency_ms: float
    flops_per_seq: int
    active_param_ratio: float
    peak_bytes: int


def bench_to_tsv(rows: Sequence[BenchRow], path: str | Path) -> None:
    """One table: a header, then one line per row in order."""
    write_atomic(path, ["model\tbatch_size\tthroughput_seq_per_s\tmean_latency_ms"
                        "\tflops_per_seq\tactive_param_ratio\tpeak_bytes\n"] + [
        f"{r.model}\t{r.batch_size}\t{r.throughput_seq_per_s:.6g}\t{r.mean_latency_ms:.6g}"
        f"\t{r.flops_per_seq}\t{r.active_param_ratio:.6g}\t{r.peak_bytes}\n" for r in rows])


def build_dense_variant(model: TrafficModel, seed: int = 0) -> TrafficModel:
    """Parameter-matched dense twin: each expert sublayer becomes one FFN.

    The dense intermediate width is chosen so total parameter counts
    match within 1%; a larger mismatch is an error.
    """
    cfg = model.config
    if cfg.ffn_kind != "moe":
        raise ValueError("model is already dense")
    per_layer = sum(int(np.prod(shape)) for name, shape, _ in parameter_specs(cfg) if name.startswith("layers.0.moe."))
    hidden = int(round(per_layer / (3 * cfg.d_model)))
    dense = TrafficModel(dataclasses.replace(cfg, ffn_kind="dense", dense_hidden=hidden), seed=seed)
    check_parameter_match(model, dense)
    return dense


def check_parameter_match(a: TrafficModel, b: TrafficModel, tolerance: float = 0.01) -> None:
    n_a, n_b = a.n_parameters(), b.n_parameters()
    if abs(n_a - n_b) / max(n_a, n_b) > tolerance:
        raise ValueError(
            f"parameter counts differ by more than {tolerance:.0%}: {n_a} vs {n_b}"
        )


def efficiency_bench(
    moe_model: TrafficModel,
    dense_model: TrafficModel,
    sequences: Sequence[TokenSequence],
    batch_sizes: Sequence[int] = (8, 16, 32, 64),
) -> list[BenchRow]:
    """Wall-clock throughput/latency of the routed model vs its dense twin on a token corpus.

    Each (model, batch size) runs ``sequences`` in order, ``batch_size`` at a time, twice. The
    untimed pass runs under ``tracemalloc``: ``flops_per_seq`` is its ``T.matmul_flops()`` difference
    over ``len(sequences)``, floored, and ``peak_bytes`` its traced peak, fused-op internals included.
    The timed pass times each batch. A model without a class head runs ``hidden`` mode, so no vocab
    head runs. Rows come moe first, then dense, each in ``batch_sizes`` order.
    """
    check_parameter_match(moe_model, dense_model)
    mode = "classify" if moe_model.config.num_classes else "hidden"
    rows = []
    for model, kind in ((moe_model, "moe"), (dense_model, "dense")):
        active, total = model.ffn_parameter_counts()
        for batch_size in batch_sizes:
            batches = [batch_arrays(sequences[lo : lo + batch_size])[:2] for lo in range(0, len(sequences), batch_size)]
            before = T.matmul_flops()
            tracemalloc.start()
            try:
                for ids, valid in batches:
                    forward_in_shards(model, ids, valid, mode)
                flops, peak = T.matmul_flops() - before, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            times = []
            for ids, valid in batches:
                t0 = time.perf_counter()
                forward_in_shards(model, ids, valid, mode)
                times.append(time.perf_counter() - t0)
            rows.append(
                BenchRow(
                    model=kind,
                    batch_size=batch_size,
                    throughput_seq_per_s=len(sequences) / sum(times),
                    mean_latency_ms=float(np.mean(times)) * 1e3,
                    flops_per_seq=flops // len(sequences),
                    active_param_ratio=active / total,
                    peak_bytes=peak,
                )
            )
    return rows
