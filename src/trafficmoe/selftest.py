"""The checks behind the `selftest` command: what an installed machine can break.

The pytest suite covers each rule of the package on its own. A machine the package is installed on
can still break it through its numpy (the file formats lean on ``np.strings``, structured dtypes and
byte views), its OpenBLAS (whose thread count picks the sharded forward) or its file system. So the
three checks run the pipeline's own code: ``artifact_formats`` takes synthetic flows through every
on-disk format and back (capture, flow store, vocabulary, labelled corpus, checkpoint);
``model_contracts`` runs a float64 finite-difference spot check and bitwise pad invariance and
prefix causality; ``sharded_forward`` cuts a no-grad batch over two BLAS threads against one.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from . import tensor as T
from .flows import FlowTable, parse_capture, read_flows, reassemble_sessions, write_flows, write_pcap
from .model import ModelConfig, TrafficModel, forward_in_shards, inference_shards, load_balance_loss
from .synth import synth_flows
from .tokenization import (FULL_BIGRAM_VOCAB_SIZE, PAD_ID, SerializerConfig, Vocabulary, build_vocabulary,
                           read_corpus, serialize_codes, token_matrix, write_corpus)
from .training import ntp_loss


def _grad(p: T.Tensor) -> np.ndarray:
    return p.grad.dense() if isinstance(p.grad, T.RowGrad) else p.grad


def _check_artifact_formats() -> str:
    flows = FlowTable.of(synth_flows(6, n_classes=3, seed=4))
    serializer = SerializerConfig(packets_per_flow=10, payload_bytes=40, max_tokens=64)
    model = TrafficModel(ModelConfig(n_layers=1, d_model=8, n_heads=2, n_experts=4, top_k=2, ffn_hidden=8,
                                     vocab_size=32, max_tokens=8, num_classes=3), seed=8)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_pcap(flows.packets, tmp / "flows.pcap")
        sessions = reassemble_sessions(parse_capture((tmp / "flows.pcap").read_bytes()))
        assert sorted(sessions.counts.tolist()) == sorted(flows.counts.tolist()), "capture: flow sizes"
        write_flows(flows, tmp / "flows")
        stored = read_flows(tmp / "flows")
        assert stored.labels == flows.labels and stored.key_fields() == flows.key_fields(), "flow store: flows"
        (codes, lengths), want = (serialize_codes(f, serializer) for f in (stored, flows))
        assert np.array_equal(codes, want[0]) and np.array_equal(lengths, want[1]), "flow store: packets"
        build_vocabulary(mode="full_bigram").save(tmp / "vocab.tsv")
        vocab = Vocabulary.load(tmp / "vocab.tsv")
        assert np.array_equal(vocab.table, np.arange(FULL_BIGRAM_VOCAB_SIZE)), "vocabulary: full bigram identity"
        ids = token_matrix(codes, lengths, vocab, serializer.max_tokens)
        assert write_corpus([(ids, stored.labels)], tmp / "corpus.txt") == len(flows)
        corpus = read_corpus(tmp / "corpus.txt")
        assert np.array_equal([s.ids for s in corpus], ids), "corpus: ids"
        assert [s.label for s in corpus] == flows.labels, "corpus: labels"
        model.save(tmp / "model.ckpt")
        loaded = TrafficModel.load(tmp / "model.ckpt")
    assert loaded.config == model.config, "checkpoint: config"
    assert all(loaded.params[k].data.tobytes() == p.data.tobytes() for k, p in model.params.items()), "checkpoint"
    return f"{len(flows)} flows: capture, flow store, vocabulary, labelled corpus and checkpoint round-trip exactly"


def _check_model_contracts() -> str:
    cfg = ModelConfig(n_layers=2, d_model=8, n_heads=2, n_experts=4, top_k=2, ffn_hidden=8, vocab_size=16,
                      max_tokens=8, num_classes=3)
    rng = np.random.default_rng(3)
    valid = np.arange(32) < np.array([8, 3, 5])[:, None]  # the S=8 batch plus 24 trailing [PAD]
    ids = np.where(valid, rng.integers(3, 16, size=valid.shape), PAD_ID)
    with T.use_dtype(np.float64):
        model = TrafficModel(cfg, seed=3)
        def lm_loss(s: int):
            h, routing = model.forward(ids[:, :s], valid[:, :s], mode="hidden")
            loss = T.add(ntp_loss(h, model.params["head.vocab"], ids[:, :s], valid[:, :s]),
                         T.mul(load_balance_loss(routing), 0.02))
            return loss, [rec.selected.tolist() for rec in routing]

        runs = []
        for s in (32, 8):  # the S=8 run goes last: the spot check below reads its gradients
            class_logits, _ = model.forward(ids[:, :s], valid[:, :s], mode="classify")
            loss, base_sel = lm_loss(s)
            model.zero_grad()
            loss.backward()
            runs.append([class_logits.data, loss.data] + [_grad(p) for p in model.params.values()])
        assert all(np.array_equal(a, b) for a, b in zip(*runs)), "pad invariance"

        routed = f"layers.0.moe.expert{base_sel[0][0][0]}.w_down"  # an expert the first token was routed to
        for name in ("embed.tok", "layers.0.moe.router", "layers.1.attn.wqkv", routed, "head.vocab"):
            flat, at = model.params[name].data.reshape(-1), rng.integers(0, model.params[name].data.size)
            orig, h = flat[at], 1e-5
            flat[at] = orig + h
            up, sel_up = lm_loss(8)
            flat[at] = orig - h
            down, sel_down = lm_loss(8)
            flat[at] = orig
            if sel_up != base_sel or sel_down != base_sel:
                continue  # the probe flipped a top-k choice; the gradient is undefined there
            fd, an = (up.item() - down.item()) / (2 * h), _grad(model.params[name]).reshape(-1)[at]
            assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8), f"{name}: fd={fd} analytic={an}"

        changed = np.concatenate([ids[:1, :5], rng.integers(3, 16, size=(1, 3))], axis=1)  # a new suffix
        with T.no_grad():
            base, after = (T.matmul(model.forward(x, mode="hidden")[0], model.params["head.vocab"]).data
                           for x in (ids[:1, :8], changed))
        assert np.array_equal(base[:5], after[:5]), "prefix causality"
    return "finite differences within 1e-4; pad invariance (logits, loss, gradients) and prefix causality bitwise"


def _check_sharded_forward() -> str:
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=2, n_experts=4, top_k=2, ffn_hidden=16, vocab_size=32,
                      max_tokens=8, num_classes=3)
    model = TrafficModel(cfg, seed=12)
    valid = np.arange(8) < np.array([8, 3, 6, 5])[:, None]
    ids = np.where(valid, np.random.default_rng(12).integers(3, 32, size=valid.shape), 2)
    runs = []
    for threads in (1, 2):  # one BLAS thread: one shard; two: two shards of one BLAS thread each
        with T.blas_threads(threads):
            shards = inference_shards(len(ids))
            before = T.matmul_flops()
            runs.append((forward_in_shards(model, ids, valid, "classify"), T.matmul_flops() - before))
    (serial, serial_flops), (sharded, sharded_flops) = runs
    diff = float(np.max(np.abs(sharded - serial)))
    assert diff <= 1e-5, f"logits differ by {diff:.2e}"
    assert np.array_equal(np.argmax(sharded, axis=1), np.argmax(serial, axis=1)), "classes"
    assert sharded_flops == serial_flops, f"FLOPs {sharded_flops} != {serial_flops}"
    return f"{shards} shards against 1: logits within {diff:.1e}; classes and FLOPs equal"


CHECKS = [
    ("artifact_formats", _check_artifact_formats),
    ("model_contracts", _check_model_contracts),
    ("sharded_forward", _check_sharded_forward),
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
