"""Training loops: autoregressive pretraining and classification fine-tuning.

Both modes minimize a task loss plus a weighted expert load-balance
term. Fine-tuning adds layer-wise learning-rate decay and early stopping
on validation macro-F1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .artifacts import format_kv, write_atomic
from .evaluation import RoutingAccumulator, evaluate_classifier
from .model import TrafficModel, load_balance_loss, packed_rows
from .tensor import AdamW, Tensor
from .tokenization import TokenSequence, batch_arrays


class DivergenceError(RuntimeError):
    """Raised when the training loss stops being finite."""

    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite loss {value} at step {step}")
        self.step = step


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    ``epochs`` and ``base_lr`` default per mode: 8 epochs at 3e-4 for
    pretraining, up to 40 epochs at 5e-5 for fine-tuning.
    """

    mode: str = "pretrain"  # "pretrain" or "finetune"
    batch_size: int = 32
    epochs: Optional[int] = None
    base_lr: Optional[float] = None
    aux_weight: float = 0.02
    llrd_decay: float = 0.9
    patience: int = 5
    seed: int = 0
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.mode not in ("pretrain", "finetune"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.epochs is None:
            self.epochs = 8 if self.mode == "pretrain" else 40
        if self.base_lr is None:
            self.base_lr = 3e-4 if self.mode == "pretrain" else 5e-5
        for name, low in (("batch_size", 1), ("epochs", 1), ("patience", 1), ("aux_weight", 0), ("weight_decay", 0)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name}={getattr(self, name)} must be >= {low}")
        if not self.base_lr > 0:
            raise ValueError(f"base_lr={self.base_lr} must be > 0")
        if not (0.0 < self.llrd_decay <= 1.0):
            raise ValueError("llrd_decay must lie in (0, 1]")


# -- losses -----------------------------------------------------------------


def ntp_loss(h: Tensor, head_vocab: Tensor, ids: np.ndarray, valid_mask: np.ndarray) -> Tensor:
    """Next-token negative log-likelihood of the vocab head ``h @ head_vocab``, averaged over valid targets.

    ``h`` has one row per ``packed_rows(ids.shape, valid_mask)`` slot, as
    ``forward(mode="hidden")`` returns them. Row (b, t) predicts ``ids[b, t+1]`` with
    weight ``valid_mask[b, t+1]``, so each sequence's last row and interior pads weigh 0.
    """
    ids = np.atleast_2d(ids)
    valid_mask = np.asarray(valid_mask, dtype=bool).reshape(ids.shape)
    if np.any(valid_mask.sum(axis=1) < 2):
        raise ValueError("every sequence needs at least 2 valid tokens for next-token loss")
    targets, weights = np.zeros(ids.shape, dtype=np.int64), np.zeros(ids.shape)
    targets[:, :-1], weights[:, :-1] = ids[:, 1:], valid_mask[:, 1:]
    rows, _ = packed_rows(ids.shape, valid_mask)
    return T.lm_head_loss(h, head_vocab, np.take(targets, rows), np.take(weights, rows))


def classification_loss(class_logits: Tensor, labels: np.ndarray) -> Tensor:
    """Batch-averaged cross-entropy over class logits."""
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = class_logits.shape[-1]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes})")
    return T.cross_entropy_logits(class_logits, labels)


def composite_loss(task_loss: Tensor, aux_loss, aux_weight: float) -> Tensor:
    """task + aux_weight * aux."""
    if aux_weight < 0:
        raise ValueError("aux_weight must be >= 0")
    if aux_loss is None or (np.isscalar(aux_loss) and aux_loss == 0):
        return task_loss
    return T.add(task_loss, T.mul(aux_loss, aux_weight))


# -- schedules and parameter grouping -------------------------------------------


def llrd_schedule(n_layers: int, base_lr: float, decay: float) -> np.ndarray:
    """Per-layer learning rates decay ** (L - l) * base_lr for l = 1..L."""
    return np.array([decay ** (n_layers - l) * base_lr for l in range(1, n_layers + 1)])


def _no_decay(name: str) -> bool:
    # norms, the shared-expert gate vector, and biases skip weight decay
    return "norm_gain" in name or "shared_gate" in name or name.endswith((".b1", ".b2"))


def _layer_rank(name: str, n_layers: int) -> int:
    """LLRD depth: embedding = layer 1, block i = layer i+1 capped, heads = layer L."""
    if name.startswith("embed."):
        return 1
    if name.startswith("layers."):
        idx = int(name.split(".")[1])
        return min(idx + 1, n_layers)
    return n_layers  # heads and the final norm adapt fastest


def build_param_groups(
    model: TrafficModel,
    base_lr: float,
    llrd_decay: float = 1.0,
    weight_decay: float = 0.0,
) -> list[dict]:
    """Optimizer groups keyed by (LLRD depth, decay eligibility)."""
    n_layers = model.config.n_layers
    rates = llrd_schedule(n_layers, base_lr, llrd_decay)
    buckets: dict[tuple[int, bool], list[Tensor]] = {}
    for name, param in model.params.items():
        key = (_layer_rank(name, n_layers), not _no_decay(name))
        buckets.setdefault(key, []).append(param)
    groups = []
    for (rank, decayed), params in sorted(buckets.items(), key=lambda kv: kv[0]):
        groups.append(
            {
                "params": params,
                "lr": float(rates[rank - 1]),
                "weight_decay": weight_decay if decayed else 0.0,
            }
        )
    return groups


# -- dataset handling ------------------------------------------------------------


SPLIT_RATIOS = (0.8, 0.1, 0.1)  # train / val / test


def split_dataset(sequences: Sequence, seed: int = 0) -> tuple[list, list, list]:
    """Shuffle and split into train/val/test at ``SPLIT_RATIOS`` (80/10/10) inside every class.

    Labels are read from ``.label``; unlabelled sequences form one class of
    their own, so an all-unlabelled set is one plain shuffled split.
    """
    r_train, r_val, _ = SPLIT_RATIOS
    rng = np.random.default_rng(seed)

    def cut(indices: np.ndarray) -> tuple[list[int], list[int], list[int]]:
        m = len(indices)
        n_train = int(round(m * r_train))
        n_val = int(round(m * (r_train + r_val))) - n_train
        return (
            list(indices[:n_train]),
            list(indices[n_train : n_train + n_val]),
            list(indices[n_train + n_val :]),
        )

    labels = np.array([-1 if s.label is None else s.label for s in sequences])
    train_idx, val_idx, test_idx = [], [], []
    for cls in np.unique(labels):
        members = np.nonzero(labels == cls)[0]
        tr, va, te = cut(members[rng.permutation(members.size)])
        train_idx += tr
        val_idx += va
        test_idx += te
    return (
        [sequences[i] for i in sorted(train_idx)],
        [sequences[i] for i in sorted(val_idx)],
        [sequences[i] for i in sorted(test_idx)],
    )


# -- the training loop --------------------------------------------------------------


@dataclass
class History:
    """Flat (epoch, split, metric, value) records for a run."""

    rows: list[tuple[int, str, str, float]] = field(default_factory=list)

    def add(self, epoch: int, split: str, metric: str, value: float) -> None:
        self.rows.append((epoch, split, metric, float(value)))

    def series(self, split: str, metric: str) -> list[float]:
        return [v for e, s, m, v in self.rows if s == split and m == metric]

    def to_tsv(self, path: str | Path) -> None:
        write_atomic(path, ["epoch\tsplit\tmetric\tvalue\n"]
                     + [f"{epoch}\t{split}\t{metric}\t{value:.10g}\n" for epoch, split, metric, value in self.rows])


def train(
    model: TrafficModel,
    train_seqs: Sequence[TokenSequence],
    config: TrainConfig,
    val_seqs: Optional[Sequence[TokenSequence]] = None,
    run_dir: Optional[str | Path] = None,
) -> tuple[History, Optional[dict[str, np.ndarray]]]:
    """Run one training job and return (history, best parameter state).

    Pretraining runs a fixed number of epochs on the next-token
    objective. Fine-tuning trains the classifier with layer-wise decayed
    learning rates, evaluates macro-F1 on ``val_seqs`` each epoch, and
    stops once ``patience`` epochs pass without improvement; the best
    epoch's parameters are restored into the model and returned. Without a
    validation epoch (all of pretraining, and fine-tuning without
    ``val_seqs``) the model keeps its last-epoch parameters and the state
    returned is None.
    """
    if len(train_seqs) == 0:
        raise ValueError("empty training set")
    if config.mode == "finetune":
        if not model.config.num_classes:
            raise ValueError("finetune requires a model with num_classes")
        if any(s.label is None for s in train_seqs):
            raise ValueError("finetune requires labeled sequences")

    rng = np.random.default_rng(config.seed)
    if config.mode == "pretrain":
        groups = build_param_groups(model, config.base_lr, 1.0, config.weight_decay)
    else:
        groups = build_param_groups(model, config.base_lr, config.llrd_decay, config.weight_decay)
    optimizer = AdamW(groups, lr=config.base_lr, weight_decay=config.weight_decay)

    out = Path(run_dir) if run_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "routing").mkdir(exist_ok=True)
        write_atomic(out / "config.txt", format_kv(vars(config)) + model.config.to_text())

    history = History()
    best_metric = -np.inf
    best_epoch = 0
    best_state = None  # copied only when validation finds a new best epoch
    step = 0
    model.zero_grad()

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_seqs))
        task_sum = aux_sum = 0.0
        n_batches = 0
        routing = RoutingAccumulator()
        for start in range(0, len(order), config.batch_size):
            batch = [train_seqs[i] for i in order[start : start + config.batch_size]]
            ids, valid, labels = batch_arrays(batch)
            step += 1
            if config.mode == "pretrain":
                h, trace = model.forward(ids, valid, mode="hidden")
                task = ntp_loss(h, model.params["head.vocab"], ids, valid)
            else:
                logits, trace = model.forward(ids, valid, mode="classify")
                task = classification_loss(logits, labels)
            aux = load_balance_loss(trace) if trace.layers else 0.0
            loss = composite_loss(task, aux, config.aux_weight)
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(step, value)
            loss.backward()
            optimizer.step()
            model.zero_grad()  # no gradient stays alive through the next forward or a state copy
            task_sum += task.item()
            aux_sum += aux.item() if isinstance(aux, Tensor) else float(aux)
            n_batches += 1
            routing.add(trace)

        task_name = "ntp_loss" if config.mode == "pretrain" else "cls_loss"
        history.add(epoch, "train", task_name, task_sum / n_batches)
        history.add(epoch, "train", "aux_loss", aux_sum / n_batches)
        if out is not None:
            routing.to_tsv(out / "routing" / f"epoch{epoch}.tsv")

        if config.mode == "finetune" and val_seqs:
            _, metrics = evaluate_classifier(model, val_seqs, config.batch_size)
            history.add(epoch, "val", "macro_f1", metrics["macro_f1"])
            history.add(epoch, "val", "accuracy", metrics["accuracy"])
            if metrics["macro_f1"] > best_metric:  # ties keep the earlier epoch
                best_metric = metrics["macro_f1"]
                best_epoch = epoch
                best_state = model.state_copy()
            elif epoch - best_epoch >= config.patience:
                break

    if out is not None:
        model.save(out / "last.ckpt")
    if best_state is not None:
        model.load_state(best_state)
    if out is not None:
        model.save(out / "best.ckpt")
        history.to_tsv(out / "history.tsv")
    return history, best_state
