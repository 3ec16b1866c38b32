"""Causal transformer backbone with a shared-plus-routed expert FFN.

Each block runs (RMSNorm -> rotary Q/K -> causal multi-head attention ->
residual) then (RMSNorm -> always-on shared expert + top-k routed
specialized experts -> residual). A dense-FFN variant of the same
backbone (single wide SwiGLU per block) exists for efficiency
comparisons. Layer i's ``attn.wqkv`` is one ``[d, 3d]`` matrix with columns
``[q | k | v]``, heads side by side within each part (the layout
``causal_attention`` reads), and its ``moe.shared_gate`` is a ``[d, 1]`` column.
``TrafficModel.forward`` returns its output and a list of one ``LayerRouting`` per MoE layer (empty
for the dense variant); ``LayerRouting.load_fractions`` is the one expert-load rule.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import tensor as T
from .artifacts import format_kv, parse_kv, write_atomic
from .tensor import Tensor, rmsnorm, swiglu
from .tokenization import FULL_BIGRAM_VOCAB_SIZE


@dataclass
class ModelConfig:
    n_layers: int = 4
    d_model: int = 256
    n_heads: int = 8
    n_experts: int = 8
    top_k: int = 2
    ffn_hidden: int = 1024
    vocab_size: int = FULL_BIGRAM_VOCAB_SIZE
    max_tokens: int = 512
    num_classes: Optional[int] = None
    ffn_kind: str = "moe"  # "moe" or "dense"
    dense_hidden: Optional[int] = None

    def __post_init__(self):
        for name in ("n_layers", "d_model", "n_heads", "n_experts", "ffn_hidden", "vocab_size", "max_tokens",
                     "num_classes"):
            value = getattr(self, name)
            if value is not None and value < 1:  # num_classes None: no class head
                raise ValueError(f"{name}={value} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.head_dim % 2:
            raise ValueError(f"d_model={self.d_model} / n_heads={self.n_heads} is odd: rotary embedding needs it even")
        if self.ffn_kind == "moe":
            if not (1 <= self.top_k <= self.n_experts):
                raise ValueError(f"top_k={self.top_k} outside [1, {self.n_experts}]")
            if self.ffn_hidden % self.top_k != 0:
                raise ValueError(
                    f"ffn_hidden={self.ffn_hidden} not divisible by top_k={self.top_k}"
                )
        elif self.ffn_kind == "dense":
            if (self.dense_hidden or 0) < 1:
                raise ValueError("dense variant needs dense_hidden >= 1")
        else:
            raise ValueError(f"unknown ffn_kind {self.ffn_kind!r}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def expert_hidden(self) -> int:
        return self.ffn_hidden // self.top_k

    def to_text(self) -> str:
        return format_kv(vars(self))

    @classmethod
    def from_text(cls, text: str, source: str | Path = "<model config>") -> "ModelConfig":
        """Parse ``to_text`` output; unknown keys are an error, and every error names ``source``."""
        types = field_types(cls)
        kwargs = {}
        for key, value in parse_kv(text, source).items():
            if key not in types:
                raise ValueError(f"{source}: unknown model config key {key!r}")
            try:
                kwargs[key] = None if value == "None" else types[key](value)
            except ValueError:
                raise ValueError(f"{source}: {key}={value!r} is not {types[key].__name__}") from None
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None


def field_types(cls) -> dict[str, type]:
    """Dataclass field name -> its value type, with ``Optional[X]`` read as X."""
    hints = typing.get_type_hints(cls)
    types = {}
    for f in dataclasses.fields(cls):
        args = [a for a in typing.get_args(hints[f.name]) if a is not type(None)]
        types[f.name] = args[0] if args else hints[f.name]
    return types


@dataclass
class LayerRouting:
    """Routing record for one layer: every token's expert probabilities plus its selections."""

    probs: Tensor  # [n_tokens, n_experts]
    selected: np.ndarray  # [n_tokens, k] expert indices

    @property
    def n_tokens(self) -> int:
        return self.probs.shape[0]

    def load_fractions(self) -> np.ndarray:
        """Fraction of the layer's expert slots assigned to each expert; sums to 1."""
        return np.bincount(self.selected.ravel(), minlength=self.probs.shape[1]) / self.selected.size


def route_tokens(z: Tensor, router_weight: Tensor, top_k: int) -> tuple[Tensor, np.ndarray]:
    """Softmax routing scores and the top-k experts of each row.

    Selected experts keep their softmax scores (no renormalization); ties
    are broken toward the lowest expert index. Returns (scores [n, E],
    selected indices [n, k]).
    """
    n_experts = router_weight.shape[-1]
    if not (1 <= top_k <= n_experts):
        raise ValueError(f"top_k={top_k} outside [1, {n_experts}]")
    scores = T.softmax_lastdim(T.matmul(z, router_weight))
    # stable argsort of -p keeps the lowest index first among ties
    return scores, np.argsort(-scores.data, axis=-1, kind="stable")[:, :top_k]


def parameter_specs(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init) of every parameter in checkpoint order; init is normal, ones or zeros.
    Each layer's ``attn.wqkv`` is one ``[d, 3d]`` tensor in the layout the module docstring states."""
    d = cfg.d_model

    def swiglu_specs(base: str, hidden: int) -> list:
        return [(f"{base}.w_gate", (d, hidden), "normal"), (f"{base}.w_up", (d, hidden), "normal"),
                (f"{base}.w_down", (hidden, d), "normal")]

    specs = [("embed.tok", (cfg.vocab_size, d), "normal")]
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        specs += [(f"{p}.attn.norm_gain", (d,), "ones"), (f"{p}.attn.wqkv", (d, 3 * d), "normal"),
                  (f"{p}.attn.wo", (d, d), "normal"), (f"{p}.ffn.norm_gain", (d,), "ones")]
        if cfg.ffn_kind == "moe":
            specs += [(f"{p}.moe.router", (d, cfg.n_experts), "normal"), (f"{p}.moe.shared_gate", (d, 1), "normal")]
            specs += swiglu_specs(f"{p}.moe.shared", cfg.ffn_hidden)
            for e in range(cfg.n_experts):
                specs += swiglu_specs(f"{p}.moe.expert{e}", cfg.expert_hidden)
        else:
            specs += swiglu_specs(f"{p}.ffn", cfg.dense_hidden)
    specs += [("final_norm_gain", (d,), "ones"), ("head.vocab", (d, cfg.vocab_size), "normal")]
    if cfg.num_classes:
        specs += [("head.cls.w1", (d, d), "normal"), ("head.cls.b1", (d,), "zeros"),
                  ("head.cls.w2", (d, cfg.num_classes), "normal"), ("head.cls.b2", (cfg.num_classes,), "zeros")]
    return specs


def packed_rows(shape: tuple[int, int], valid_mask=None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, lengths): flat indices of the [batch, seq] slots a forward computes, in batch order.
    Sequence b keeps its first ``lengths[b]`` slots, up to its last valid one (all without a mask)."""
    seq_len = shape[1]
    valid = np.ones(shape, dtype=bool) if valid_mask is None else np.asarray(valid_mask, dtype=bool).reshape(shape)
    lengths = np.where(valid.any(axis=1), seq_len - np.argmax(valid[:, ::-1], axis=1), 0)
    return np.flatnonzero(np.arange(seq_len) < lengths[:, None]), lengths


def shard_bounds(lengths: np.ndarray, n_shards: int) -> np.ndarray:
    """Sequence indices ``[0, ..., len(lengths)]`` that cut packed sequences of ``lengths`` rows into
    ``n_shards`` (<= len(lengths)) contiguous, non-empty runs of about equal rows, each cut the one
    nearest its share of the total. A function of ``lengths`` alone, so trailing [PAD] moves no cut."""
    rows = np.concatenate([[0], np.cumsum(lengths)])
    cuts = [0]
    for i in range(1, n_shards):
        target = rows[-1] * i / n_shards
        k = int(np.searchsorted(rows, target))
        k -= target - rows[k - 1] < rows[k] - target  # the nearer of the two cuts around the target
        cuts.append(min(max(k, cuts[-1] + 1), len(lengths) - (n_shards - i)))
    return np.array(cuts + [len(lengths)])


def inference_shards(n_sequences: int) -> int:
    """Runs ``forward_in_shards`` cuts a batch of ``n_sequences`` into: OpenBLAS's thread count (1 when it
    cannot be read), at most one per sequence."""
    return min(T.blas_thread_count() or 1, n_sequences)


def forward_in_shards(model: TrafficModel, ids: np.ndarray, valid_mask: Optional[np.ndarray] = None,
                      mode: str = "hidden") -> np.ndarray:
    """``model.forward(ids, valid_mask, mode)``'s output array under ``no_grad``, without routing. The
    batch is cut by ``shard_bounds`` of its packed lengths into ``inference_shards`` runs of sequences,
    and ``model.forward`` runs on all at once: the first on the caller's thread, each other on a worker,
    with OpenBLAS at 1 thread per call until all are done; outputs are joined in batch order. One run,
    or a batch with a sequence without a valid slot, is a plain forward at the process's BLAS count.
    Exactness: the cuts depend on the packed lengths alone, so pad invariance and run-to-run repeats
    stay bitwise. The result equals a serial forward's, as a sequence's output in a batch equals its
    output alone, to float32 GEMM rounding only (about 1e-8): the ``[d, 1]`` shared-gate GEMV rounds its
    last (rows mod 4) rows differently, so a row's value depends on its place in its run, and an
    expert's GEMM over another set of rows rounds a few rows differently."""
    ids = np.atleast_2d(np.asarray(ids))
    lengths = packed_rows(ids.shape, valid_mask)[1]
    n_shards = inference_shards(len(ids)) if lengths.all() else 1
    with T.no_grad():
        if n_shards < 2:
            return model.forward(ids, valid_mask, mode)[0].data
        cuts = shard_bounds(lengths, n_shards)[1:-1]
        masks = [None] * n_shards if valid_mask is None else np.split(np.reshape(valid_mask, ids.shape), cuts)
        runs = list(zip(np.split(ids, cuts), masks))
        with T.blas_threads(1), ThreadPoolExecutor(n_shards - 1) as pool:
            futures = [pool.submit(model.forward, *run, mode) for run in runs[1:]]
            parts = [model.forward(*runs[0], mode)] + [future.result() for future in futures]
    return np.concatenate([out.data for out, _ in parts])


INIT_BLOCK = 1 << 16  # values per block of a random ``normal`` init: 512 KiB of float64 draws at a time


class TrafficModel:
    """Backbone network over token-ID sequences.

    Parameters are held in ``params``, a flat name -> Tensor map in
    ``parameter_specs`` order; that layout is the checkpoint contract.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, weights: Optional[dict[str, np.ndarray]] = None):
        """The ``parameter_specs(config)`` parameters: each array ``weights`` names, the rest drawn from ``seed``."""
        self.config = config
        rng = np.random.default_rng(seed)

        def normal(shape):  # rng.normal(0, 0.02, shape), drawn INIT_BLOCK values at a time: no float64 copy of it
            flat = np.empty(int(np.prod(shape)), T.default_dtype())
            for block in np.split(flat, range(INIT_BLOCK, flat.size, INIT_BLOCK)):
                block[:] = rng.normal(0.0, 0.02, size=block.size)
            return flat.reshape(shape)

        init = {"normal": normal, "ones": np.ones, "zeros": np.zeros}
        self.params: dict[str, Tensor] = {
            name: Tensor(weights[name] if name in (weights or ()) else init[kind](shape), requires_grad=True, name=name)
            for name, shape, kind in parameter_specs(config)
        }

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def ffn_parameter_counts(self) -> tuple[int, int]:
        """(per-token active, total) sizes of the SwiGLU matrices (``.w_gate``, ``.w_up``, ``.w_down``).

        Router and gates are excluded. A token runs every shared or dense FFN but only top_k of the
        n_experts routed ``.moe.expert*`` ones.
        """
        sizes = {name: p.data.size for name, p in self.params.items() if name.endswith((".w_gate", ".w_up", ".w_down"))}
        total, routed = sum(sizes.values()), sum(size for name, size in sizes.items() if ".moe.expert" in name)
        return total - routed + routed * self.config.top_k // self.config.n_experts, total

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write weights (binary checkpoint) plus a `.config` text sidecar."""
        T.save_checkpoint(self.params, path)
        write_atomic(str(path) + ".config", self.config.to_text())

    @classmethod
    def load(cls, path: str | Path) -> "TrafficModel":
        """Rebuild a saved model; tensor names and shapes must match what its config builds."""
        sidecar = Path(str(path) + ".config")
        config = ModelConfig.from_text(sidecar.read_text(), sidecar)
        arrays = T.load_checkpoint(path)
        found = {name: v.shape for name, v in arrays.items()}
        expected = {name: shape for name, shape, _ in parameter_specs(config)}
        if found != expected:
            name = min(set(found.items()) ^ set(expected.items()))[0]
            raise ValueError(f"{path}: tensor {name!r} is {found.get(name, 'missing')} in the checkpoint "
                             f"but {expected.get(name, 'absent')} in its config")
        return cls(config, weights=arrays)

    def state_copy(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for name, arr in state.items():
            self.params[name].data = arr.copy()

    # -- forward ----------------------------------------------------------------

    def _attention_block(self, h: Tensor, layer: int, lengths: np.ndarray) -> Tensor:
        """Attention sublayer over packed rows (sequence b is the next ``lengths[b]`` rows):
        pre-norm, one QKV projection, rotary causal attention within each sequence, residual."""
        base = f"layers.{layer}.attn"
        qkv = T.matmul(rmsnorm(h, self.params[f"{base}.norm_gain"]), self.params[f"{base}.wqkv"])
        heads = T.causal_attention(qkv, lengths, self.config.n_heads)
        return T.add(h, T.matmul(heads, self.params[f"{base}.wo"]))

    def _moe_block(self, h: Tensor, layer: int, routing: list[LayerRouting]) -> Tensor:
        """Shared-plus-routed expert sublayer over flattened tokens; appends its record to ``routing``."""
        cfg = self.config
        p = self.params
        z = rmsnorm(h, p[f"layers.{layer}.ffn.norm_gain"])
        scores, selected = route_tokens(z, p[f"layers.{layer}.moe.router"], cfg.top_k)
        routing.append(LayerRouting(probs=scores, selected=selected))

        gate = T.sigmoid(T.matmul(z, p[f"layers.{layer}.moe.shared_gate"]))
        shared = f"layers.{layer}.moe.shared"
        out = T.add(h, T.mul(gate, swiglu(z, p[f"{shared}.w_gate"], p[f"{shared}.w_up"], p[f"{shared}.w_down"])))
        experts = [tuple(p[f"layers.{layer}.moe.expert{e}.{w}"] for w in ("w_gate", "w_up", "w_down"))
                   for e in range(cfg.n_experts)]
        return T.add(out, T.moe_experts(z, scores, selected, experts))

    def _dense_block(self, h: Tensor, layer: int) -> Tensor:
        p = self.params
        z = rmsnorm(h, p[f"layers.{layer}.ffn.norm_gain"])
        base = f"layers.{layer}.ffn"
        return T.add(h, swiglu(z, p[f"{base}.w_gate"], p[f"{base}.w_up"], p[f"{base}.w_down"]))

    def _backbone(self, ids: np.ndarray, lengths: np.ndarray) -> tuple[Tensor, list[LayerRouting]]:
        """All blocks plus the final norm over packed rows [len(ids), d]; sequence b is the
        next ``lengths[b]`` (>= 1) rows of ``ids`` and attends only within itself."""
        cfg = self.config
        h = T.gather_rows(self.params["embed.tok"], ids)
        routing: list[LayerRouting] = []
        for layer in range(cfg.n_layers):
            h = self._attention_block(h, layer, lengths)
            if cfg.ffn_kind == "moe":
                h = self._moe_block(h, layer, routing)
            else:
                h = self._dense_block(h, layer)
        return rmsnorm(h, self.params["final_norm_gain"]), routing

    def forward(
        self,
        ids: np.ndarray,
        valid_mask: Optional[np.ndarray] = None,
        mode: str = "hidden",
    ) -> tuple[Tensor, list[LayerRouting]]:
        """Run a [batch, seq] ID matrix through the backbone; return (output, routing).

        Only the slots ``packed_rows(ids.shape, valid_mask)`` lists are computed,
        back to back; trailing [PAD] is not, so each routing record holds real
        tokens (and interior pads) only. ``hidden`` returns the final-norm
        states [len(rows), d] in that packed order (training feeds them to
        ``tensor.lm_head_loss`` for next-token logits); ``classify`` mean-pools
        valid positions and returns class logits [batch, num_classes]. ``routing``
        holds one ``LayerRouting`` per layer, in layer order; it is empty for the dense variant.
        It runs on the caller's thread; ``forward_in_shards`` runs a no-grad batch on several.
        """
        cfg = self.config
        ids = np.atleast_2d(np.asarray(ids))
        if ids.min() < 0 or ids.max() >= cfg.vocab_size:
            raise ValueError(
                f"token id out of range [0, {cfg.vocab_size}): found {int(ids.min())}..{int(ids.max())}"
            )
        if mode not in ("hidden", "classify"):
            raise ValueError(f"unknown mode {mode!r}; expected 'hidden' or 'classify'")
        if mode == "classify":
            if not cfg.num_classes:
                raise ValueError("classify mode requires num_classes in the config")
            if valid_mask is None:
                raise ValueError("classify mode requires a valid_mask")
            valid_mask = np.asarray(valid_mask, dtype=bool).reshape(ids.shape)
        rows, lengths = packed_rows(ids.shape, valid_mask)
        if not lengths.all() and (mode == "classify" or not lengths.any()):
            raise ValueError(f"sequence {int(np.argmin(lengths))} has no valid tokens")
        packed, lengths = ids.reshape(-1)[rows], lengths[lengths > 0]
        h, routing = self._backbone(packed, lengths)

        if mode == "hidden":
            return h, routing

        weights = valid_mask.reshape(-1)[rows] / np.repeat(valid_mask.sum(axis=1), lengths)
        pooled = T.segment_sum(h, weights, lengths)  # mean over each sequence's valid rows
        p = self.params
        hidden = T.silu(T.add(T.matmul(pooled, p["head.cls.w1"]), p["head.cls.b1"]))
        logits = T.add(T.matmul(hidden, p["head.cls.w2"]), p["head.cls.b2"])
        return logits, routing


def load_balance_loss(routing: list[LayerRouting]) -> Tensor:
    """Mean over a forward's routing list of n_experts * sum_e load_e * mean_prob_e, load_e from
    ``LayerRouting.load_fractions``. Equals 1 at perfectly uniform routing; n_experts at full collapse
    with top_k = 1. Loads are treated as constants; gradients flow through the routing probabilities
    only. Both means are folded into each layer's constant weight on its ``[n_tokens, n_experts]``
    probabilities.
    """
    if not routing or routing[0].n_tokens == 0:
        raise ValueError("load balance loss needs at least one routed token")
    scale = routing[0].probs.shape[1] / len(routing)
    return functools.reduce(T.add, (T.tsum(T.mul(rec.probs, rec.load_fractions() * (scale / rec.n_tokens)))
                                    for rec in routing))

