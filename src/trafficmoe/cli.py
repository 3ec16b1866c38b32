"""Command-line pipeline: ingest, build-vocab, tokenize, pretrain,
finetune, eval, bench, ood, route-trace, selftest.

Exit codes: 0 success, 1 usage error, 2 data error. Config precedence is
flags > config file > built-in defaults, and the effective configuration
is echoed on every run. TRAFFICMOE_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import tensor as T
from .artifacts import format_kv, parse_kv
from .evaluation import (RoutingAccumulator, bench_to_tsv, build_dense_variant, compose_shift_split, efficiency_bench,
                         evaluate_classifier, metrics_to_tsv, proportion_shift_split, time_shift_split, trace_dump_tsv)
from .flows import CaptureError, filter_micro_flows, parse_capture, read_flows, relabel, reassemble_sessions, write_flows
from .model import ModelConfig, TrafficModel, field_types
from .selftest import run_selftest
from .tokenization import (SerializerConfig, Vocabulary, batch_arrays, build_vocabulary, read_corpus, serialize_flows,
                           temporal_slice, tokenize, write_corpus)
from .training import DivergenceError, TrainConfig, split_dataset, train


SERIALIZE_CHUNK = 256  # flows per serialize_flows call: numpy overhead amortised, batch arrays a few MB


class UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageExit(message)


def _default_seed() -> int:
    return int(os.environ.get("TRAFFICMOE_SEED", "0"))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int, inputs: list, t0: float) -> None:
    """Append one run record; each input path (None skipped) is keyed as given on the command line."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [
        f"command={command}",
        f"version={__version__}",
        f"seed={seed}",
        f"wall_seconds={time.time() - t0:.3f}",
    ]
    lines += [f"config.{k}={v}" for k, v in sorted(config.items())]
    lines += [f"input.{p}={_sha256(Path(p))}" for p in inputs if p and Path(p).exists()]
    with open(out_dir / "manifest.log", "a") as fh:  # append-only run log
        fh.write("\n".join(lines) + "\n---\n")


def _checkpoint_files(path: Optional[str]) -> list[str]:
    return [path, f"{path}.config"] if path else []  # loading a checkpoint reads its sidecar too


def _echo_config(config: dict) -> None:
    print(format_kv(config), end="")


# Config-dataclass fields the CLI exposes: flag and config-file key -> field name.
# Each field's type and default come from its dataclass.
_MODEL_KEYS = {k: k for k in ("n_layers", "d_model", "n_heads", "n_experts", "top_k", "ffn_hidden", "num_classes")}
_TRAIN_KEYS = {
    k: k for k in ("batch_size", "epochs", "base_lr", "aux_weight", "llrd_decay", "patience", "weight_decay")
}
_SERIALIZER_KEYS = {"k": "packets_per_flow", "j": "payload_bytes", "stride": "bigram_stride", "max_tokens": "max_tokens"}


def _options(defaults, keys: dict) -> dict:
    """key -> (field name, type, default) for the exposed fields of a config instance."""
    types = field_types(type(defaults))
    return {key: (name, types[name], getattr(defaults, name)) for key, name in keys.items()}


def _training_options(mode: str) -> dict:
    return {**_options(ModelConfig(), _MODEL_KEYS), **_options(TrainConfig(mode=mode), _TRAIN_KEYS)}


def _add_option_flags(p, options: dict) -> None:
    for key, (name, kind, default) in options.items():
        p.add_argument(f"--{key.replace('_', '-')}", type=kind, default=None, dest=key,
                       help=f"{name} (default {default})")


def _resolve(options: dict, args) -> dict:
    """flags > config file > dataclass defaults; file values take the field's type."""
    file_values = parse_kv(Path(args.config).read_text(), args.config) if args.config else {}
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


# -- subcommand implementations ---------------------------------------------


def _cmd_ingest(args) -> int:
    t0 = time.time()
    _at_least("--min-packets", args.min_packets)
    pcap = Path(args.pcap)
    records = parse_capture(pcap.read_bytes())
    flows = filter_micro_flows(reassemble_sessions(records), args.min_packets)
    if args.label is not None:
        flows = [relabel(f, args.label) for f in flows]
    out = Path(args.out)
    write_flows(flows, out)
    config = {
        "pcap": str(pcap),
        "min_packets": args.min_packets,
        "label": args.label,
    }
    _echo_config(config)
    print(f"packets={len(records)} flows={len(flows)}")
    _write_manifest(out, "ingest", config, _default_seed(), [pcap], t0)
    return 0


def _serializer_from_args(args) -> tuple[SerializerConfig, dict]:
    merged = _resolve(_options(SerializerConfig(), _SERIALIZER_KEYS), args)
    return SerializerConfig(**{name: merged[key] for key, name in _SERIALIZER_KEYS.items()}), merged


def _serialized(flow_dirs, serializer: SerializerConfig, slice_window: float = 0.0):
    """Yield ``(flow, codes)`` for each flow of each directory, or for each of its temporal slices
    when ``slice_window`` > 0, serialized ``SERIALIZE_CHUNK`` flows at a time."""
    for flow_dir in flow_dirs:
        flows = read_flows(flow_dir)
        if slice_window > 0:
            flows = [part for flow in flows for part in temporal_slice(flow, slice_window)]
        for lo in range(0, len(flows), SERIALIZE_CHUNK):
            chunk = flows[lo : lo + SERIALIZE_CHUNK]
            yield from zip(chunk, serialize_flows(chunk, serializer))


def _cmd_build_vocab(args) -> int:
    t0 = time.time()
    _at_least("--min-freq", args.min_freq)
    serializer, config = _serializer_from_args(args)
    config.update({"vocab_mode": args.vocab_mode, "min_freq": args.min_freq})
    if args.vocab_mode == "full_bigram":
        vocab = build_vocabulary(mode="full_bigram")
    else:
        corpus = (codes for _, codes in _serialized(args.flows, serializer))
        vocab = build_vocabulary(corpus, mode="wordpiece", min_freq=args.min_freq)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    vocab.save(out)
    _echo_config(config)
    print(f"vocab_size={len(vocab)}")
    inputs = [args.config] + [Path(d) / "packets.bin" for d in (args.flows or [])]
    _write_manifest(out.parent, "build-vocab", config, _default_seed(), inputs, t0)
    return 0


def _cmd_tokenize(args) -> int:
    t0 = time.time()
    if not args.slice_window >= 0:  # also false for nan
        raise ValueError(f"--slice-window {args.slice_window:g} is not a number >= 0")
    serializer, config = _serializer_from_args(args)
    config["slice_window"] = args.slice_window
    vocab = Vocabulary.load(args.vocab)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    sequences = (tokenize(codes, vocab, serializer.max_tokens, label=part.label)
                 for part, codes in _serialized(args.flows, serializer, args.slice_window))
    n_sequences = write_corpus(sequences, out)
    _echo_config(config)
    print(f"sequences={n_sequences}")
    inputs = [args.config, args.vocab] + [Path(d) / "packets.bin" for d in args.flows]
    _write_manifest(out.parent, "tokenize", config, _default_seed(), inputs, t0)
    return 0


def _check_corpus_ids(sequences, corpus: str, n_ids: int, owner: str) -> None:
    """Reject a corpus holding a token id >= ``n_ids``, the id count of ``owner`` (a vocab or checkpoint)."""
    top_id = max((int(s.ids.max()) for s in sequences), default=-1)
    if top_id >= n_ids:
        raise ValueError(f"corpus {corpus} holds token id {top_id}, but {owner} has {n_ids} ids")


def _check_corpus_width(sequences, corpus: str, max_tokens: int, ckpt: str) -> None:
    """Reject a corpus whose rows are wider than the ``max_tokens`` of checkpoint ``ckpt``."""
    width = max((len(s.ids) for s in sequences), default=0)
    if width > max_tokens:
        raise ValueError(f"corpus {corpus} rows are {width} tokens wide, but checkpoint {ckpt} has "
                         f"max_tokens={max_tokens}")


def _run_training(args, mode: str) -> int:
    t0 = time.time()
    seed = args.seed if args.seed is not None else _default_seed()
    merged = _resolve(_training_options(mode), args)
    sequences = read_corpus(args.corpus)
    if not sequences:
        raise ValueError(f"corpus {args.corpus} is empty")
    vocab = Vocabulary.load(args.vocab)
    max_tokens = len(sequences[0].ids)

    labels = {s.label for s in sequences if s.label is not None}
    if not merged["num_classes"]:
        merged["num_classes"] = max(labels) + 1 if labels else None
    train_config = TrainConfig(mode=mode, seed=seed, **{name: merged[key] for key, name in _TRAIN_KEYS.items()})

    if args.init:
        model = TrafficModel.load(args.init)
        if mode == "finetune" and not model.config.num_classes:
            raise ValueError("checkpoint lacks a classification head; set num_classes at pretrain")
        if model.config.vocab_size != len(vocab):
            raise ValueError(f"vocab {args.vocab} has {len(vocab)} ids, but checkpoint {args.init} has "
                             f"vocab_size={model.config.vocab_size}")
        _check_corpus_width(sequences, args.corpus, model.config.max_tokens, args.init)
    else:
        model_fields = {name: merged[key] for key, name in _MODEL_KEYS.items()}
        model = TrafficModel(ModelConfig(vocab_size=len(vocab), max_tokens=max_tokens, **model_fields), seed=seed)
    _check_corpus_ids(sequences, args.corpus, len(vocab), f"vocab {args.vocab}")

    out = Path(args.out)
    if mode == "pretrain":
        history, _ = train(model, sequences, train_config, run_dir=out)
    else:
        train_seqs, val_seqs, test_seqs = split_dataset(sequences, seed=seed)
        if not val_seqs:
            val_seqs = train_seqs
        history, _ = train(model, train_seqs, train_config, val_seqs=val_seqs, run_dir=out)
        if test_seqs:
            _, metrics = evaluate_classifier(model, test_seqs, train_config.batch_size)
            metrics_to_tsv(metrics, out / "test_metrics.tsv")

    effective = dict(merged)
    effective.update({"seed": seed, "mode": mode, "corpus": args.corpus, "vocab": args.vocab})
    _echo_config(effective)
    final = history.rows[-1] if history.rows else (0, "-", "-", float("nan"))
    print(f"epochs_run={final[0]} last_{final[2]}={final[3]:.6g}")
    _write_manifest(out, mode, effective, seed, [args.config, args.corpus, args.vocab, *_checkpoint_files(args.init)], t0)
    return 0


def _cmd_eval(args) -> int:
    t0 = time.time()
    _at_least("--batch-size", args.batch_size)
    model = TrafficModel.load(args.ckpt)
    sequences = read_corpus(args.data)
    if not sequences:
        raise ValueError(f"corpus {args.data} is empty")
    _check_corpus_ids(sequences, args.data, model.config.vocab_size, f"checkpoint {args.ckpt}")
    _check_corpus_width(sequences, args.data, model.config.max_tokens, args.ckpt)
    if any(s.label is None for s in sequences):
        raise ValueError("eval needs labeled sequences")
    n_classes = model.config.num_classes or 0
    bad = [s.label for s in sequences if not 0 <= s.label < n_classes]
    if bad:
        raise ValueError(f"{args.data}: label {bad[0]} outside the checkpoint's {n_classes} classes")
    _, metrics = evaluate_classifier(model, sequences, args.batch_size)
    out = Path(args.metrics_out)
    out.parent.mkdir(parents=True, exist_ok=True)
    metrics_to_tsv(metrics, out)
    config = {"ckpt": args.ckpt, "data": args.data, "batch_size": args.batch_size}
    _echo_config(config)
    print(f"accuracy={metrics['accuracy']:.6g} macro_f1={metrics['macro_f1']:.6g}")
    _write_manifest(out.parent, "eval", config, _default_seed(), _checkpoint_files(args.ckpt) + [args.data], t0)
    return 0


def _batch_sizes(text: str) -> list[int]:
    """Parse ``--batch-sizes``: comma-separated integers >= 1."""
    for item in text.split(","):
        if not item.strip().isdigit() or int(item) < 1:
            raise ValueError(f"--batch-sizes {text!r}: {item!r} is not an integer >= 1")
    return [int(item) for item in text.split(",")]


def _at_least(flag: str, value: Optional[int], low: int = 1) -> None:
    """Reject a count flag below ``low``; None means the flag was not given."""
    if value is not None and value < low:
        raise ValueError(f"{flag} {value} is not an integer >= {low}")


def _cmd_bench(args) -> int:
    t0 = time.time()
    batch_sizes = _batch_sizes(args.batch_sizes)
    _at_least("--batches", args.batches)
    _at_least("--seq-len", args.seq_len)
    _at_least("--warmup", args.warmup, low=0)
    model = TrafficModel.load(args.ckpt)
    rows = efficiency_bench(
        model,
        build_dense_variant(model, seed=_default_seed()),
        batch_sizes=batch_sizes,
        seq_len=args.seq_len,
        n_batches=args.batches,
        warmup=args.warmup,
        seed=_default_seed(),
    )
    out = Path(args.report)
    out.parent.mkdir(parents=True, exist_ok=True)
    bench_to_tsv(rows, out)
    config = {
        "ckpt": args.ckpt,
        "batch_sizes": args.batch_sizes,
        "seq_len": args.seq_len,
        "batches": args.batches,
        "warmup": args.warmup,
    }
    _echo_config(config)
    for row in rows:
        print(
            f"{row.model} batch={row.batch_size}"
            f" throughput={row.throughput_seq_per_s:.1f}/s"
            f" latency={row.mean_latency_ms:.1f}ms"
        )
    _write_manifest(out.parent, "bench", config, _default_seed(), _checkpoint_files(args.ckpt), t0)
    return 0


def _cmd_ood(args) -> int:
    t0 = time.time()
    if args.mode != "time" and args.coarse_map is None:
        raise UsageExit(f"--mode {args.mode} needs --coarse-map")
    seed = args.seed if args.seed is not None else _default_seed()
    flows = [f for d in args.flows for f in read_flows(d)]
    if any(f.label is None for f in flows):
        raise ValueError("ood splits need labeled flows")
    labels = np.array([f.label for f in flows])
    if args.mode == "time":
        times = np.array([f.start_time for f in flows])
        train_split, test_split = time_shift_split(flows, times, labels)
    else:
        coarse_map = {}
        for lineno, line in enumerate(Path(args.coarse_map).read_text().splitlines(), 1):
            if line.strip():
                try:
                    fine, coarse_label = map(int, line.split())
                except ValueError:
                    raise ValueError(f"{args.coarse_map}:{lineno}: expected `fine coarse` integer labels, "
                                     f"got {line!r}") from None
                coarse_map[fine] = coarse_label
        missing = sorted({f.label for f in flows} - coarse_map.keys())
        if missing:
            raise ValueError(f"{args.coarse_map}: no coarse class for flow label {missing[0]}")
        coarse = np.array([coarse_map[f.label] for f in flows])
        if args.mode == "proportion":
            train_split, test_split = proportion_shift_split(flows, coarse, labels)
        else:
            train_split, test_split = compose_shift_split(flows, coarse, labels, seed=seed)
        # coarse-level task: relabel both sides with the coarse class
        train_split = [relabel(f, coarse_map[f.label]) for f in train_split]
        test_split = [relabel(f, coarse_map[f.label]) for f in test_split]
    out = Path(args.out)
    write_flows(train_split, out / "train")
    write_flows(test_split, out / "test")
    config = {"mode": args.mode, "seed": seed, "coarse_map": args.coarse_map}
    _echo_config(config)
    print(f"train_flows={len(train_split)} test_flows={len(test_split)}")
    _write_manifest(out, "ood", config, seed, [Path(d) / "packets.bin" for d in args.flows] + [args.coarse_map], t0)
    return 0


def _cmd_route_trace(args) -> int:
    t0 = time.time()
    _at_least("--limit", args.limit)
    model = TrafficModel.load(args.ckpt)
    sequences = read_corpus(args.data)[: args.limit]
    if not sequences:
        raise ValueError("no sequences to trace")
    _check_corpus_ids(sequences, args.data, model.config.vocab_size, f"checkpoint {args.ckpt}")
    _check_corpus_width(sequences, args.data, model.config.max_tokens, args.ckpt)
    acc = RoutingAccumulator()
    mode = "classify" if model.config.num_classes and sequences[0].label is not None else "hidden"
    with T.no_grad():
        ids, valid, _ = batch_arrays(sequences)
        _, trace = model.forward(ids, valid, mode=mode)
    acc.add(trace)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    trace_dump_tsv(trace, out)
    stats_out = Path(args.stats_out) if args.stats_out else Path(str(out) + ".stats.tsv")
    acc.to_tsv(stats_out)
    config = {"ckpt": args.ckpt, "data": args.data, "limit": args.limit, "mode": mode}
    _echo_config(config)
    print(f"traced_sequences={len(sequences)} layers={len(trace.layers)}")
    _write_manifest(out.parent, "route-trace", config, _default_seed(), _checkpoint_files(args.ckpt) + [args.data], t0)
    return 0


def _cmd_selftest(args) -> int:
    return 0 if run_selftest(verbose=True) else 2


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
    p.add_argument("--flows", nargs="*", default=[], help="flow directories (wordpiece mode)")
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-mode", choices=("full_bigram", "wordpiece"), default="full_bigram",
                   dest="vocab_mode")
    p.add_argument("--min-freq", type=int, default=1, dest="min_freq")
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

    p = sub.add_parser("bench", help="sparse-vs-dense inference benchmark")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--batch-sizes", default="8,16,32,64", dest="batch_sizes")
    p.add_argument("--report", required=True)
    p.add_argument("--seq-len", type=int, default=None, dest="seq_len")
    p.add_argument("--batches", type=int, default=50)
    p.add_argument("--warmup", type=int, default=5)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("ood", help="build a distribution-shift train/test split")
    p.add_argument("--mode", choices=("time", "proportion", "compose"), required=True)
    p.add_argument("--flows", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--coarse-map", default=None, dest="coarse_map",
                   help="file of `fine coarse` label pairs (proportion/compose)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_ood)

    p = sub.add_parser("route-trace", help="export expert routing for a data sample")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats-out", default=None, dest="stats_out")
    p.add_argument("--limit", type=int, default=8)
    p.set_defaults(func=_cmd_route_trace)

    p = sub.add_parser("selftest", help="run the built-in invariant battery")
    p.set_defaults(func=_cmd_selftest)

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
        return args.func(args)
    except UsageExit as exc:  # from the parser, or a flag combination a command rejects
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except (CaptureError, DivergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
