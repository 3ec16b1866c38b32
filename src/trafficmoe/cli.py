"""Command-line pipeline: ingest, build-vocab, tokenize, pretrain, finetune, eval, bench, ood, route-trace, selftest.

Exit codes: 0 success, 1 usage error, 2 data error. Config precedence is flags > config file > built-in
defaults, and the effective configuration is echoed on every run. Only pretrain, finetune, bench (the dense
twin) and ood --mode compose read a seed: --seed where given, else TRAFFICMOE_SEED, else 0; they echo and
record it as config.seed. Every flag and input, a corpus row by row, is checked before any output is written;
only tokenize (flows streamed into the corpus) can leave an empty directory. A flag or config-file key the run
does not read is an error: a usage error for a flag, a data error for a key.
A training run's model has the size flags' shape, or --init's and every tensor of it but the class head.
Pretrain reads no labels and builds no class head. Finetune draws a fresh one from its seed, one class per
label from 0 to its corpus's largest, and refuses a corpus in which a class below that has no row.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import tensor as T
from .artifacts import format_kv, parse_kv
from .evaluation import (RoutingAccumulator, bench_to_tsv, build_dense_variant, compose_shift_split, efficiency_bench,
                         evaluate_classifier, metrics_to_tsv, proportion_shift_split, time_shift_split, trace_dump_tsv)
from .flows import (CaptureError, FlowTable, check_labels, filter_micro_flows, parse_capture, read_flows,
                    reassemble_sessions, temporal_slice, write_flows)
from .model import ModelConfig, TrafficModel, field_types
from .selftest import run_selftest
from .tokenization import (SerializerConfig, TokenSequence, Vocabulary, batch_arrays, build_vocabulary, chunk_rows,
                           read_corpus, serialize_codes, token_matrix, write_corpus)
from .training import TASK_LOSS, DivergenceError, TrainConfig, split_dataset, train


class UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageExit(message)


def _seed(args) -> int:
    """--seed if the command has it and it is given, else TRAFFICMOE_SEED, else 0; it must be >= 0."""
    if getattr(args, "seed", None) is not None:
        seed, source = args.seed, f"--seed {args.seed}"
    else:
        text = os.environ.get("TRAFFICMOE_SEED", "0")
        source = f"TRAFFICMOE_SEED={text!r}"
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"{source} is not an integer") from None
    if seed < 0:
        raise ValueError(f"{source} is not an integer >= 0")
    return seed


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: list, t0: float) -> None:
    """Append one run record; each input path (None skipped) is keyed as given on the command line."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [
        f"command={command}",
        f"version={__version__}",
        f"wall_seconds={time.time() - t0:.3f}",
        f"blas_threads={T.blas_thread_count() or 'unknown'}",
    ]
    lines += [f"config.{k}={v}" for k, v in sorted(config.items())]
    lines += [f"input.{p}={_sha256(Path(p))}" for p in inputs if p and Path(p).exists()]
    with open(out_dir / "manifest.log", "a") as fh:  # append-only run log
        fh.write("\n".join(lines) + "\n---\n")


def _checkpoint_files(path: Optional[str]) -> list[str]:
    return [path, f"{path}.config"] if path else []  # loading a checkpoint reads its sidecar too


# Config-dataclass fields the CLI exposes: flag and config-file key -> field name.
# Each field's type and default come from its dataclass.
_MODEL_KEYS = {k: k for k in ("n_layers", "d_model", "n_heads", "n_experts", "top_k", "ffn_hidden")}
_TRAIN_KEYS = {
    k: k for k in ("batch_size", "epochs", "base_lr", "aux_weight", "llrd_decay", "patience", "weight_decay")
}
_FINETUNE_ONLY_KEYS = ("llrd_decay", "patience")  # pretraining reads neither
_SERIALIZER_KEYS = {"k": "packets_per_flow", "j": "payload_bytes", "stride": "bigram_stride", "max_tokens": "max_tokens"}


def _options(defaults, keys: dict) -> dict:
    """key -> (field name, type, default) for the exposed fields of a config instance."""
    types = field_types(type(defaults))
    return {key: (name, types[name], getattr(defaults, name)) for key, name in keys.items()}


def _training_options(mode: str) -> dict:
    train_keys = {k: name for k, name in _TRAIN_KEYS.items() if mode == "finetune" or k not in _FINETUNE_ONLY_KEYS}
    return {**_options(ModelConfig(), _MODEL_KEYS), **_options(TrainConfig(mode=mode), train_keys)}


def _add_option_flags(p, options: dict) -> None:
    for key, (name, kind, default) in options.items():
        p.add_argument(f"--{key.replace('_', '-')}", type=kind, default=None, dest=key,
                       help=f"{name} (default {default})")


def _refuse(args, unread: dict) -> None:
    """``unread`` maps the keys this run does not read to why; the flag of any of them is a usage error."""
    for key, why in unread.items():
        if getattr(args, key) is not None:
            raise UsageExit(f"flag --{key.replace('_', '-')} is not read by this run ({why})")


def _resolve(options: dict, args, unread: dict) -> dict:
    """flags > config file > dataclass defaults, file values typed by field; unread or unknown keys are errors."""
    _refuse(args, unread)
    options = {key: option for key, option in options.items() if key not in unread}
    file_values = parse_kv(Path(args.config).read_text(), args.config) if args.config else {}
    for key in file_values:
        if key not in options:
            why = f"key {key!r} is not read by this run ({unread[key]})" if key in unread else f"unknown key {key!r}"
            raise ValueError(f"{args.config}: {why}")
    merged = {}
    for key, (_, kind, default) in options.items():
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
        elif key in file_values:
            try:
                merged[key] = kind(file_values[key])
            except ValueError:
                raise ValueError(f"{args.config}: {key}={file_values[key]!r} is not {kind.__name__}") from None
        else:
            merged[key] = default
    return merged


# -- subcommand implementations: each returns its run record to main -----------


def _cmd_ingest(args) -> tuple:
    _at_least_one("--min-packets", args.min_packets)
    pcap = Path(args.pcap)
    records = parse_capture(pcap.read_bytes())
    flows = filter_micro_flows(reassemble_sessions(records), args.min_packets)
    if args.label is not None:
        flows = replace(flows, labels=[args.label] * len(flows))
    write_flows(flows, Path(args.out))
    config = {"pcap": str(pcap), "min_packets": args.min_packets, "label": args.label}
    return Path(args.out), config, f"packets={len(records)} flows={len(flows)}", [pcap]


def _serializer_from_args(args, unread: dict) -> tuple[SerializerConfig, dict]:
    """The serializer the flags and config file set; an unread max_tokens holds the widest flow and its [END]."""
    merged = _resolve(_options(SerializerConfig(), _SERIALIZER_KEYS), args, unread)
    serializer = SerializerConfig(**{name: merged.get(key, sys.maxsize) for key, name in _SERIALIZER_KEYS.items()})
    width = serializer.packets_per_flow * serializer.tokens_per_packet + 1
    return replace(serializer, max_tokens=merged.get("max_tokens", width)), merged


def _flow_chunks(flow_dirs, rows: int, slice_window: float = 0.0):
    """Yield the flows of each directory, or their temporal slices when ``slice_window`` > 0, as
    tables of ``rows`` flows."""
    for flow_dir in flow_dirs:
        flows = read_flows(flow_dir)
        if slice_window > 0:
            flows = temporal_slice(flows, slice_window)
        for lo in range(0, len(flows), rows):
            yield flows[lo : lo + rows]


def _cmd_build_vocab(args) -> tuple:
    if not args.flows:  # the full bigram set: no flows to serialize or count
        _refuse(args, dict.fromkeys(("min_freq", *_SERIALIZER_KEYS, "config"), "no --flows: full bigram"))
        vocab, config = build_vocabulary(mode="full_bigram"), {"vocab_mode": "full_bigram"}
    else:
        min_freq = 1 if args.min_freq is None else args.min_freq
        _at_least_one("--min-freq", min_freq)
        serializer, config = _serializer_from_args(args, {"max_tokens": "a vocabulary counts every code of a flow"})
        config.update({"vocab_mode": "wordpiece", "min_freq": min_freq})
        chunks = _flow_chunks(args.flows, chunk_rows(serializer.max_tokens))
        corpus = (serialize_codes(chunk, serializer)[0] for chunk in chunks)
        vocab = build_vocabulary(corpus, mode="wordpiece", min_freq=min_freq)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    vocab.save(out)
    return out.parent, config, f"vocab_size={len(vocab)}", [args.config] + [Path(d) / "packets.bin" for d in args.flows]


def _cmd_tokenize(args) -> tuple:
    if not args.slice_window >= 0:  # also false for nan
        raise ValueError(f"--slice-window {args.slice_window:g} is not a number >= 0")
    serializer, config = _serializer_from_args(args, {})
    config["slice_window"] = args.slice_window
    vocab = Vocabulary.load(args.vocab)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    chunks = ((token_matrix(*serialize_codes(chunk, serializer), vocab, serializer.max_tokens), chunk.labels)
              for chunk in _flow_chunks(args.flows, chunk_rows(serializer.max_tokens), args.slice_window))
    n_sequences = write_corpus(chunks, out)
    inputs = [args.config, args.vocab] + [Path(d) / "packets.bin" for d in args.flows]
    return out.parent, config, f"sequences={n_sequences}", inputs


def _checked_corpus(path: str, n_ids: int, owner: str, ckpt: Optional[str] = None, max_tokens: int = 0,
                    min_valid: int = 1, n_classes: Optional[int] = None) -> list[TokenSequence]:
    """Read corpus ``path`` and check it before any batch runs: not empty, token ids below ``n_ids``
    (the id count of ``owner``, a vocab or checkpoint), rows no wider than the ``max_tokens`` of
    checkpoint ``ckpt`` if one is given. Each row needs ``min_valid`` non-[PAD] ids and, if
    ``n_classes`` is given, a label below it; an error for a row names its file and line."""
    sequences = read_corpus(path)
    if not sequences:
        raise ValueError(f"corpus {path} is empty")
    top_id = max(int(s.ids.max()) for s in sequences)
    if top_id >= n_ids:
        raise ValueError(f"corpus {path} holds token id {top_id}, but {owner} has {n_ids} ids")
    if ckpt and len(sequences[0]) > max_tokens:
        raise ValueError(f"corpus {path} rows are {len(sequences[0])} tokens wide, but checkpoint {ckpt} has "
                         f"max_tokens={max_tokens}")
    for line, seq in enumerate(sequences, 1):  # read_corpus keeps sequence i on line i + 1
        if seq.n_valid < min_valid:
            raise ValueError(f"{path}:{line}: {seq.n_valid} non-[PAD] token ID, but next-token loss needs {min_valid}")
        if n_classes is not None and seq.label is None:
            raise ValueError(f"{path}:{line}: no label")
        if n_classes is not None and seq.label >= n_classes:
            raise ValueError(f"{path}:{line}: label {seq.label} is not below num_classes={n_classes}")
    return sequences


def _checked_inputs(ckpt: str, corpus: str, labeled: bool = False) -> tuple[TrafficModel, list[TokenSequence]]:
    """Load a checkpoint and the corpus checked against it; ``labeled`` rows need one of its classes."""
    model = TrafficModel.load(ckpt)
    cfg = model.config
    if labeled and not cfg.num_classes:
        raise ValueError(f"checkpoint {ckpt} has no class head; fine-tune it first")
    return model, _checked_corpus(corpus, cfg.vocab_size, f"checkpoint {ckpt}", ckpt, cfg.max_tokens,
                                  n_classes=cfg.num_classes if labeled else None)


def _run_training(args, mode: str) -> tuple:
    unread = dict.fromkeys(_MODEL_KEYS, "the model comes from --init") if args.init else {}
    merged, seed = _resolve(_training_options(mode), args, unread), _seed(args)
    train_config = TrainConfig(mode=mode, seed=seed,
                               **{name: merged[key] for key, name in _TRAIN_KEYS.items() if key in merged})
    vocab = Vocabulary.load(args.vocab)
    init = TrafficModel.load(args.init) if args.init else None
    if init is None:  # size flags are checked before the corpus, which sets max_tokens
        model_config = ModelConfig(vocab_size=len(vocab), **{name: merged[key] for key, name in _MODEL_KEYS.items()})
    elif init.config.vocab_size != len(vocab):
        raise ValueError(f"vocab {args.vocab} has {len(vocab)} ids, but checkpoint {args.init} has "
                         f"vocab_size={init.config.vocab_size}")
    finetune = mode == "finetune"  # a fine-tune's rows need a label (< 2**31), a pretrain's 2 ids for next-token loss
    sequences = _checked_corpus(args.corpus, len(vocab), f"vocab {args.vocab}", args.init,
                                init.config.max_tokens if init else 0, min_valid=1 if finetune else 2,
                                n_classes=2**31 if finetune else None)
    labels = sorted({s.label for s in sequences}) if finetune else []  # one class per label; a pretrain has none
    missing = next((i for i, label in enumerate(labels) if i != label), None)
    if missing is not None:
        raise ValueError(f"{args.corpus}: labels run to {labels[-1]}, but no row has label {missing}")
    model_config = init.config if init else replace(model_config, max_tokens=len(sequences[0]))
    backbone = {name: p.data for name, p in init.params.items() if not name.startswith("head.cls.")} if init else None
    model = TrafficModel(replace(model_config, num_classes=len(labels) or None), seed, backbone)

    out = Path(args.out)
    if mode == "pretrain":
        history, _ = train(model, sequences, train_config, run_dir=out)
    else:
        train_seqs, val_seqs, test_seqs = split_dataset(sequences, seed=seed)
        if not val_seqs:
            val_seqs = train_seqs
        history, _ = train(model, train_seqs, train_config, val_seqs=val_seqs, run_dir=out)
        if test_seqs:
            metrics = evaluate_classifier(model, test_seqs, train_config.batch_size)
            metrics_to_tsv(metrics, out / "test_metrics.tsv")

    effective = {**merged, **{key: getattr(model.config, name) for key, name in _MODEL_KEYS.items()},
                 **({"num_classes": len(labels)} if finetune else {}),
                 "seed": seed, "mode": mode, "corpus": args.corpus, "vocab": args.vocab}
    losses = history.series("train", TASK_LOSS[mode])  # one row per epoch run
    summary = f"epochs_run={len(losses)} last_{TASK_LOSS[mode]}={losses[-1]:.6g}"
    return out, effective, summary, [args.config, args.corpus, args.vocab, *_checkpoint_files(args.init)]


def _cmd_eval(args) -> tuple:
    _at_least_one("--batch-size", args.batch_size)
    model, sequences = _checked_inputs(args.ckpt, args.data, labeled=True)
    metrics = evaluate_classifier(model, sequences, args.batch_size)
    out = Path(args.metrics_out)
    out.parent.mkdir(parents=True, exist_ok=True)
    metrics_to_tsv(metrics, out)
    config = {"ckpt": args.ckpt, "data": args.data, "batch_size": args.batch_size}
    summary = f"accuracy={metrics['accuracy']:.6g} macro_f1={metrics['macro_f1']:.6g}"
    return out.parent, config, summary, _checkpoint_files(args.ckpt) + [args.data]


def _batch_sizes(text: str) -> list[int]:
    """Parse ``--batch-sizes``: comma-separated integers >= 1."""
    for item in text.split(","):
        if not item.strip().isdigit() or int(item) < 1:
            raise ValueError(f"--batch-sizes {text!r}: {item!r} is not an integer >= 1")
    return [int(item) for item in text.split(",")]


def _at_least_one(flag: str, value: int) -> None:
    """Reject a count flag below 1."""
    if value < 1:
        raise ValueError(f"{flag} {value} is not an integer >= 1")


def _cmd_bench(args) -> tuple:
    batch_sizes, seed = _batch_sizes(args.batch_sizes), _seed(args)
    model, sequences = _checked_inputs(args.ckpt, args.data)
    rows = efficiency_bench(model, build_dense_variant(model, seed=seed), sequences, batch_sizes)
    out = Path(args.report)
    out.parent.mkdir(parents=True, exist_ok=True)
    bench_to_tsv(rows, out)
    config = {"ckpt": args.ckpt, "data": args.data, "batch_sizes": args.batch_sizes, "seed": seed}
    summary = "\n".join(f"{row.model} batch={row.batch_size} throughput={row.throughput_seq_per_s:.1f}/s"
                        f" latency={row.mean_latency_ms:.1f}ms" for row in rows)
    return out.parent, config, summary, _checkpoint_files(args.ckpt) + [args.data]


def _cmd_ood(args) -> tuple:
    unread = {"time": ("coarse_map", "seed"), "proportion": ("seed",), "compose": ()}[args.mode]
    _refuse(args, dict.fromkeys(unread, f"--mode {args.mode}"))
    if args.mode != "time" and args.coarse_map is None:
        raise UsageExit(f"--mode {args.mode} needs --coarse-map")
    seed = _seed(args) if args.mode == "compose" else None  # a bad seed fails before any input is read
    flows = FlowTable.join([read_flows(d) for d in args.flows])
    if None in flows.labels:
        raise ValueError("ood splits need labeled flows")
    labels = np.array(flows.labels)
    config = {"mode": args.mode}
    if args.mode == "time":
        train_idx, test_idx = time_shift_split(flows.packets.rows["ts"][flows.firsts], labels)
    else:
        config["coarse_map"] = args.coarse_map
        coarse_map, line_of = {}, {}  # fine label -> its coarse label, and the line that maps it
        for lineno, line in enumerate(Path(args.coarse_map).read_text().splitlines(), 1):
            if line.strip():
                try:
                    fine, coarse_label = map(int, line.split())
                except ValueError:
                    raise ValueError(f"{args.coarse_map}:{lineno}: expected `fine coarse` integer labels, "
                                     f"got {line!r}") from None
                if fine in line_of:
                    raise ValueError(f"{args.coarse_map}:{lineno}: fine label {fine} repeats line {line_of[fine]}")
                coarse_map[fine], line_of[fine] = coarse_label, lineno
        missing = sorted(set(flows.labels) - coarse_map.keys())
        if missing:
            raise ValueError(f"{args.coarse_map}: no coarse class for flow label {missing[0]}")
        flows = replace(flows, labels=[coarse_map[label] for label in flows.labels])  # a coarse-level task
        if args.mode == "proportion":
            train_idx, test_idx = proportion_shift_split(np.array(flows.labels), labels)
        else:
            config["seed"] = seed
            train_idx, test_idx = compose_shift_split(np.array(flows.labels), labels, seed=config["seed"])
    train_split, test_split = flows[train_idx], flows[test_idx]
    check_labels(test_split)  # before train_split is written; write_flows checks the split it writes
    out = Path(args.out)
    write_flows(train_split, out / "train")
    write_flows(test_split, out / "test")
    summary = f"train_flows={len(train_split)} test_flows={len(test_split)}"
    return out, config, summary, [Path(d) / "packets.bin" for d in args.flows] + [args.coarse_map]


def _cmd_route_trace(args) -> tuple:
    _at_least_one("--limit", args.limit)
    model, sequences = _checked_inputs(args.ckpt, args.data)
    sequences = sequences[: args.limit]
    acc = RoutingAccumulator()
    with T.no_grad():  # routing comes from the backbone, so no head runs
        ids, valid, _ = batch_arrays(sequences)
        _, routing = model.forward(ids, valid)
    acc.add(routing)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    trace_dump_tsv(routing, out)
    stats_out = Path(args.stats_out) if args.stats_out else Path(str(out) + ".stats.tsv")
    stats_out.parent.mkdir(parents=True, exist_ok=True)
    acc.to_tsv(stats_out)
    config = {"ckpt": args.ckpt, "data": args.data, "limit": args.limit}
    summary = f"traced_sequences={len(sequences)} layers={len(routing)}"
    return out.parent, config, summary, _checkpoint_files(args.ckpt) + [args.data]


# -- parser wiring --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trafficmoe", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("ingest", help="parse a capture into session flows")
    p.add_argument("--pcap", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--label", type=int, default=None, help="class label stamped on every flow")
    p.add_argument("--min-packets", type=int, default=3, dest="min_packets",
                   help="drop flows with fewer packets (default 3; 1 keeps every flow)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("build-vocab", help="build a bigram vocabulary file")
    p.add_argument("--flows", nargs="+", default=[], help="flow dirs for a wordpiece vocab (default: all bigrams)")
    p.add_argument("--out", required=True)
    p.add_argument("--min-freq", type=int, default=None, dest="min_freq", help="wordpiece count floor (default 1)")
    _add_serializer_flags(p)
    p.set_defaults(func=_cmd_build_vocab)

    p = sub.add_parser("tokenize", help="serialize flows into a token-ID corpus")
    p.add_argument("--flows", nargs="+", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--slice-window", type=float, default=0.0, dest="slice_window",
                   help="temporal slicing window in seconds (0 disables)")
    _add_serializer_flags(p)
    p.set_defaults(func=_cmd_tokenize)

    for mode in ("pretrain", "finetune"):
        p = sub.add_parser(mode, help=f"{mode} a model on a token corpus")
        p.add_argument("--corpus", required=True)
        p.add_argument("--vocab", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--init", default=None, help="checkpoint to start from")
        _add_option_flags(p, _training_options(mode))
        p.set_defaults(func=lambda a, m=mode: _run_training(a, m))

    p = sub.add_parser("eval", help="evaluate a checkpoint on labeled sequences")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--metrics-out", required=True, dest="metrics_out")
    p.add_argument("--batch-size", type=int, default=32, dest="batch_size")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="sparse-vs-dense inference benchmark on a token corpus")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="token corpus, run in file order at each batch size")
    p.add_argument("--batch-sizes", default="8,16,32,64", dest="batch_sizes")
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("ood", help="build a distribution-shift train/test split")
    p.add_argument("--mode", choices=("time", "proportion", "compose"), required=True)
    p.add_argument("--flows", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--coarse-map", default=None, dest="coarse_map",
                   help="file of `fine coarse` label pairs (proportion/compose)")
    p.add_argument("--seed", type=int, default=None, help="split seed (compose)")
    p.set_defaults(func=_cmd_ood)

    p = sub.add_parser("route-trace", help="export expert routing for a data sample")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats-out", default=None, dest="stats_out")
    p.add_argument("--limit", type=int, default=8)
    p.set_defaults(func=_cmd_route_trace)

    sub.add_parser("selftest", help="check what this machine's numpy, OpenBLAS and file system can break "
                   "(the test suite checks each rule on its own)")

    return parser


def _add_serializer_flags(p) -> None:
    _add_option_flags(p, _options(SerializerConfig(), _SERIALIZER_KEYS))
    p.add_argument("--config", default=None, help="key=value config file")


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        if args.command == "selftest":
            return 0 if run_selftest(verbose=True) else 2
        t0 = time.time()
        out_dir, config, summary, inputs = args.func(args)  # summary: the lines printed after the config
        print(format_kv(config) + summary)
        _write_manifest(out_dir, args.command, config, inputs, t0)
        return 0
    except UsageExit as exc:  # from the parser, or a flag combination a command rejects
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except (CaptureError, DivergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
