"""The benchmark's four workloads.

Each drives ``trafficmoe`` only through the entry points users call
(``cli.main``, ``training.train``, ``evaluation.predict_classes``). A
workload is built from its seed (``build``), then runs one operation at a
time: ``prepare`` (untimed reset), ``run`` (the timed operation) and
``check`` (untimed; returns the problems found, empty when correct).

Inputs come from ``synth.py``. Flow lengths are spread evenly over the
3..13 packets ``synth_flow`` draws from, instead of drawn at random, so a
shard of eight sequences holds the same length mix for every seed: the
valid-token count of a random 8-sequence shard varies by about 20%
between seeds, which would swamp the throughput it divides.

``synth_flow`` overflows ``uint8`` for any label >= 7, so every workload
uses 7 classes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shutil
from pathlib import Path

import numpy as np

from trafficmoe import cli, evaluation, synth, tokenization, training
from trafficmoe import tensor as T
from trafficmoe.model import ModelConfig, TrafficModel

N_CLASSES = 7

# Default ModelConfig (4 layers, d=256, 8 experts, top-2, vocab 65,541).
FULL_MODEL: dict = {}
# The tests' tiny model, with the full-bigram vocabulary the tokens need.
TINY_MODEL = dict(n_layers=2, d_model=16, n_heads=2, n_experts=4, top_k=2, ffn_hidden=32)

PARAMS = {
    "full": {
        # 2,500 flows make about 20k packets and a 2 MB capture; one pass
        # takes about 0.9 s on 2 CPUs, so a run holds over a dozen passes.
        "ingest": {"flows": 2500},
        # B=4 at S=512: B=8 peaks at 7.0 GB, and the CLI's B=32 cannot fit in 8 GB.
        # Two steps per train() call, so peak_rss_mb shows train() keeping the
        # previous step's graph alive during the next forward.
        "finetune": {"shard": 8, "batch_size": 4, "max_tokens": 512, "model": FULL_MODEL},
        "classify": {"pool": 64, "batch_size": 16, "max_tokens": 512, "model": FULL_MODEL},
        "pretrain": {"shard": 8, "batch_size": 8, "max_tokens": 128, "model": FULL_MODEL},
    },
    "tiny": {
        "ingest": {"flows": 300},
        "finetune": {"shard": 8, "batch_size": 4, "max_tokens": 64, "model": TINY_MODEL},
        "classify": {"pool": 32, "batch_size": 16, "max_tokens": 64, "model": TINY_MODEL},
        "pretrain": {"shard": 8, "batch_size": 8, "max_tokens": 64, "model": TINY_MODEL},
    },
}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def spread_flows(n_flows: int, seed: int):
    """Labelled synthetic flows with lengths spread evenly over 3..13 packets."""
    rng = np.random.default_rng(seed)
    return [
        synth.synth_flow(rng, label=i % N_CLASSES, n_packets=3 + (2 * i + 1) * 11 // (2 * n_flows))
        for i in range(n_flows)
    ]


def token_dataset(n_flows: int, max_tokens: int, vocab, seed: int):
    serializer = tokenization.SerializerConfig(max_tokens=max_tokens)
    return [
        tokenization.tokenize(tokenization.serialize_flow(f, serializer), vocab, max_tokens, label=f.label)
        for f in spread_flows(n_flows, seed)
    ]


class Workload:
    name = ""

    def __init__(self, params: dict, seed: int, work: Path):
        self.params = params
        self.seed = seed
        self.work = work
        self.record: dict = {}  # input hashes and sizes for the run record

    def build(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        pass

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def items(self, out) -> float:
        raise NotImplementedError

    def named_metrics(self, per_s: float, p50_ms: float, outs: list) -> dict:
        """The metrics under their per-workload names: name -> (value, unit)."""
        raise NotImplementedError


class Ingest(Workload):
    """Capture -> ``trafficmoe ingest`` -> ``trafficmoe tokenize``, through ``cli.main``."""

    name = "ingest"

    def build(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        flows = synth.synth_flows(self.params["flows"], N_CLASSES, seed=self.seed)
        self.capture = self.work / "capture.pcap"
        synth.flows_to_pcap(flows, self.capture)
        self.n_packets = sum(len(f.packets) for f in flows)
        self.record["capture_packets"] = self.n_packets
        self.vocab = self.work / "vocab.txt"
        tokenization.build_vocabulary(mode="full_bigram").save(self.vocab)
        self.flows_dir = self.work / "flows"
        self.corpus = self.work / "corpus" / "corpus.txt"
        self.record["capture_sha256"] = sha256_file(self.capture)

    def prepare(self, i: int) -> None:
        for path in (self.flows_dir, self.corpus.parent):
            shutil.rmtree(path, ignore_errors=True)

    def run(self, i: int):
        ingest_out, tokenize_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(ingest_out):
            rc_ingest = cli.main(["ingest", "--pcap", str(self.capture), "--out", str(self.flows_dir)])
        with contextlib.redirect_stdout(tokenize_out):
            rc_tokenize = cli.main(
                ["tokenize", "--flows", str(self.flows_dir), "--vocab", str(self.vocab), "--out", str(self.corpus)]
            )
        return rc_ingest, rc_tokenize, ingest_out.getvalue(), tokenize_out.getvalue()

    def check(self, i: int, out) -> list[str]:
        rc_ingest, rc_tokenize, ingest_text, tokenize_text = out
        problems = []
        if rc_ingest != 0 or rc_tokenize != 0:
            return [f"exit codes ingest={rc_ingest} tokenize={rc_tokenize}"]
        packets = re.search(r"^packets=(\d+) ", ingest_text, re.M)
        if packets is None or int(packets.group(1)) != self.n_packets:
            problems.append(f"ingest printed {packets and packets.group(0)!r}, capture holds {self.n_packets}")
        digest = sha256_file(self.corpus)
        if digest != self.record.get("corpus_sha256"):  # else byte-identical to a checked corpus
            sequences = tokenization.read_corpus(self.corpus)
            self.n_sequences = len(sequences)
            bad = [
                n for n, s in enumerate(sequences)
                if s.ids[0] != tokenization.PD_ID or not np.any(s.ids == tokenization.END_ID)
            ]
            if bad:
                problems.append(f"{len(bad)} sequences lack a leading [PD] or an [END], first #{bad[0]}")
        printed = re.search(r"^sequences=(\d+)$", tokenize_text, re.M)
        if printed is None or int(printed.group(1)) != self.n_sequences:
            problems.append(f"tokenize printed {printed and printed.group(0)!r}, corpus holds {self.n_sequences}")
        if not problems:
            self.record["corpus_sha256"] = digest
        return problems

    def items(self, out) -> float:
        return self.n_packets

    def named_metrics(self, per_s, p50_ms, outs):
        return {"ingest_pkt_per_s": (per_s, "pkt/s"), "ingest_pass_p50_ms": (p50_ms, "ms")}


class _ModelWorkload(Workload):
    def _build_model(self) -> None:
        self.vocab = tokenization.build_vocabulary(mode="full_bigram")
        config = ModelConfig(num_classes=N_CLASSES, **self.params["model"])
        self.model = TrafficModel(config, seed=self.seed)
        self.record["model_config"] = vars(config)
        self.record["model_parameters"] = self.model.n_parameters()

    def _hash_corpus(self, sequences) -> None:
        path = self.work / "corpus.txt"
        self.work.mkdir(parents=True, exist_ok=True)
        tokenization.write_corpus(sequences, path)
        self.record["corpus_sha256"] = sha256_file(path)


class _Train(_ModelWorkload):
    """One ``train()`` call per operation: one epoch over a fixed shard, from the same initial weights."""

    mode = ""

    def build(self) -> None:
        self._build_model()
        self.shard = token_dataset(self.params["shard"], self.params["max_tokens"], self.vocab, self.seed)
        self._hash_corpus(self.shard)
        self.initial = self.model.state_copy()
        self.config = training.TrainConfig(
            mode=self.mode, batch_size=self.params["batch_size"], epochs=1, seed=self.seed
        )

    def prepare(self, i: int) -> None:
        self.model.load_state(self.initial)

    def run(self, i: int):
        history, _ = training.train(self.model, self.shard, self.config)
        return history

    def check(self, i: int, history) -> list[str]:
        problems = []
        bad_rows = [row for row in history.rows if not np.isfinite(row[3])]
        if not history.rows or bad_rows:
            problems.append(f"history has non-finite or no losses: {bad_rows or history.rows}")
        bad_params = [n for n, p in self.model.params.items() if not np.all(np.isfinite(p.data))]
        if bad_params:
            problems.append(f"{len(bad_params)} parameters are not finite, first {bad_params[0]}")
        return problems

    def items(self, out) -> float:
        return float(sum(s.n_valid for s in self.shard))

    def named_metrics(self, per_s, p50_ms, outs):
        task = "ntp_loss" if self.mode == "pretrain" else "cls_loss"
        last = outs[-1].series("train", task)[-1]
        return {
            "train_tokens_per_s": (per_s, "tok/s"),
            "train_call_p50_ms": (p50_ms, "ms"),
            "train_loss_last": (last, "nats"),
        }


class Finetune(_Train):
    name = "finetune"
    mode = "finetune"


class Pretrain(_Train):
    name = "pretrain"
    mode = "pretrain"


class Classify(_ModelWorkload):
    """Closed loop, one caller: one ``predict_classes`` call per batch."""

    name = "classify"

    def build(self) -> None:
        self._build_model()
        # a seed stream the training workloads do not use: held-out sequences
        pool = token_dataset(self.params["pool"], self.params["max_tokens"], self.vocab, self.seed + 1)
        # spread_flows orders flows by length; shuffled, each batch mixes lengths as held-out traffic does
        order = np.random.default_rng(self.seed + 1).permutation(len(pool))
        self.pool = [pool[k] for k in order]
        self._hash_corpus(self.pool)

    def _batch(self, i: int):
        size = self.params["batch_size"]
        start = (i * size) % len(self.pool)
        return self.pool[start : start + size]

    def run(self, i: int):
        return evaluation.predict_classes(self.model, self._batch(i), batch_size=self.params["batch_size"])

    def check(self, i: int, preds) -> list[str]:
        """The batch-equals-individual contract, on one rotating sequence per batch."""
        batch = self._batch(i)
        if len(preds) != len(batch):
            return [f"{len(preds)} predictions for {len(batch)} sequences"]
        j = i % len(batch)
        with T.no_grad():
            logits, _ = self.model.forward(batch[j].ids[None], batch[j].valid_mask[None], mode="classify")
        alone = int(np.argmax(logits.data[0]))
        if alone != int(preds[j]):
            return [f"batch {i} sequence {j}: batched class {int(preds[j])}, alone {alone}"]
        return []

    def items(self, preds) -> float:
        return float(len(preds))

    def named_metrics(self, per_s, p50_ms, outs):
        return {"classify_flows_per_s": (per_s, "flows/s"), "classify_batch_p50_ms": (p50_ms, "ms")}


WORKLOADS = {w.name: w for w in (Ingest, Finetune, Classify, Pretrain)}
