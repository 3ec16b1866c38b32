import dataclasses
import hashlib
import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

import pcap_craft as craft
from conftest import tiny_config
from trafficmoe import cli
from trafficmoe import tensor as T
from trafficmoe.cli import main
from trafficmoe.flows import FiveTuple, SessionFlow, write_flows
from trafficmoe.model import ModelConfig, TrafficModel
from trafficmoe.synth import flows_to_pcap, synth_flows
from trafficmoe.tokenization import SerializerConfig, TokenSequence, build_vocabulary, write_corpus
from trafficmoe.training import TrainConfig


def fixture_pcap(path: Path, n_flows: int = 6, packets_per_flow: int = 4, seed: int = 0) -> None:
    """Craft a capture of small TCP conversations with distinct ports."""
    rng = np.random.default_rng(seed)
    frames = []
    t = 0.0
    for flow_idx in range(n_flows):
        sport, dport = 10_000 + flow_idx, 80
        a, b = bytes([10, 0, 0, 1 + flow_idx]), bytes([10, 0, 9, 9])
        for pkt_idx in range(packets_per_flow):
            outbound = pkt_idx % 2 == 0
            payload = bytes(rng.integers(0, 256, size=16).astype(np.uint8)) if pkt_idx else b""
            seg = craft.tcp(
                sport if outbound else dport,
                dport if outbound else sport,
                0x02 if pkt_idx == 0 else 0x18,
                payload,
            )
            ip = craft.ipv4(a if outbound else b, b if outbound else a, 6, seg)
            frames.append((t, craft.ethernet(ip)))
            t += 0.01
    path.write_bytes(craft.pcap(frames))


def run(*argv) -> int:
    return main(list(argv))


def save_six_entry_vocab(path: Path) -> None:
    """A wordpiece vocabulary of the five markers and the one bigram 0a0b."""
    build_vocabulary([np.array([5 + 0x0A0B], dtype=np.int32)], mode="wordpiece").save(path)


# -- exit codes -------------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert run("frobnicate") == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_required_flag_is_usage_error(capsys):
    assert run("ingest", "--out", "x") == 1


def test_missing_input_file_is_data_error(tmp_path, capsys):
    assert run("ingest", "--pcap", str(tmp_path / "nope.pcap"), "--out", str(tmp_path / "o")) == 2


def test_bad_capture_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.pcap"
    bad.write_bytes(b"\x00" * 64)
    assert run("ingest", "--pcap", str(bad), "--out", str(tmp_path / "o")) == 2


# -- ingest --------------------------------------------------------------------------


def test_ingest_writes_expected_flow_manifest(tmp_path, capsys):
    pcap = tmp_path / "fix.pcap"
    fixture_pcap(pcap, n_flows=5, packets_per_flow=4)
    out = tmp_path / "flows"
    assert run("ingest", "--pcap", str(pcap), "--out", str(out), "--label", "1") == 0
    printed = capsys.readouterr().out
    assert "packets=20 flows=5" in printed
    manifest = (out / "flows.tsv").read_text().strip().splitlines()
    assert len(manifest) == 5
    for line in manifest:
        fields = line.split("\t")
        assert fields[5] == "4" and fields[6] == "1"
    assert (out / "manifest.log").exists()


def test_ingest_micro_flow_filter_and_bypass(tmp_path, capsys):
    pcap = tmp_path / "fix.pcap"
    fixture_pcap(pcap, n_flows=3, packets_per_flow=2)
    out = tmp_path / "flows"
    run("ingest", "--pcap", str(pcap), "--out", str(out))
    assert "flows=0" in capsys.readouterr().out
    run("ingest", "--pcap", str(pcap), "--out", str(out), "--min-packets", "1")
    assert "flows=3" in capsys.readouterr().out


def test_min_packets_below_one_is_data_error(tmp_path, capsys):
    pcap = tmp_path / "fix.pcap"
    fixture_pcap(pcap, n_flows=3, packets_per_flow=2)
    assert run("ingest", "--pcap", str(pcap), "--out", str(tmp_path / "flows"), "--min-packets", "0") == 2
    assert "--min-packets 0 is not an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "flows").exists()


@pytest.mark.parametrize("label", ["-1", "3000000000"])
def test_ingest_label_outside_int32_is_data_error(tmp_path, capsys, label):
    fixture_pcap(tmp_path / "f.pcap", n_flows=3, packets_per_flow=4)
    assert run("ingest", "--pcap", str(tmp_path / "f.pcap"), "--out", str(tmp_path / "flows"), "--label", label) == 2
    assert f"flow 0 (0a000001:10000 <-> 0a000909:80): label {label} is outside [0, 2**31)" in capsys.readouterr().err
    assert not (tmp_path / "flows").exists()


# -- the full pipeline ------------------------------------------------------------------


@pytest.fixture
def pipeline(tmp_path):
    """ingest two labeled captures, build a vocab, tokenize."""
    for label in (0, 1):
        pcap = tmp_path / f"class{label}.pcap"
        fixture_pcap(pcap, n_flows=10, packets_per_flow=4, seed=label)
        assert run("ingest", "--pcap", str(pcap), "--out", str(tmp_path / f"flows{label}"),
                   "--label", str(label)) == 0
    flow_dirs = [str(tmp_path / "flows0"), str(tmp_path / "flows1")]
    vocab = tmp_path / "vocab.tsv"
    assert run("build-vocab", "--flows", *flow_dirs, "--out", str(vocab),
               "--vocab-mode", "wordpiece", "--min-freq", "1") == 0
    corpus = tmp_path / "corpus.txt"
    assert run("tokenize", "--flows", *flow_dirs, "--vocab", str(vocab),
               "--out", str(corpus), "--k", "4", "--j", "12", "--max-tokens", "64") == 0
    return tmp_path, vocab, corpus


@pytest.mark.parametrize("stride,vocab_sha,corpus_sha", [
    ("1", "7195aa72ee761c249c3a04e2b63e22cf40d49d95b7e0299a78a6362ba437e510",
     "ceeda18be5706e8eeb9cefb80c44638d4e02c07941126a43b3bf6669819221b6"),
    ("2", "94618d7d927806e9012b56811c7175adb2a11e566613b025d17bf484c096c75c",
     "7bdc22897800fb1f20974145a37822a5ab462d17cf2f8ee561fc4d34d5b27bdb"),
])
def test_wordpiece_vocab_and_corpus_bytes_are_pinned(tmp_path, capsys, stride, vocab_sha, corpus_sha):
    flows_to_pcap(synth_flows(24, n_classes=3, seed=5), tmp_path / "c.pcap")
    flows, vocab, corpus = tmp_path / "flows", tmp_path / "vocab.tsv", tmp_path / "corpus.txt"
    assert run("ingest", "--pcap", str(tmp_path / "c.pcap"), "--out", str(flows), "--label", "2") == 0
    serializer = ["--stride", stride, "--k", "5", "--j", "24", "--max-tokens", "96"]
    assert run("build-vocab", "--flows", str(flows), "--out", str(vocab), "--vocab-mode", "wordpiece",
               "--min-freq", "3", *serializer) == 0
    assert run("tokenize", "--flows", str(flows), "--vocab", str(vocab), "--out", str(corpus), *serializer) == 0
    assert sha256_of(vocab, corpus) == {str(vocab): vocab_sha, str(corpus): corpus_sha}


@pytest.mark.parametrize("extra,sequences,corpus_sha", [
    ((), 24, "fa0d1316f8876f3830f51aea6161e7171ac8c75ec98395fe1960d29d33c30ced"),
    (("--slice-window", "0.01"), 35, "ec7975aa3c51005195d57e7eb8c4b2bfb1af55940a8aaf7695797a0fe9414287"),
], ids=["default-serializer", "slice-window"])
def test_full_bigram_corpus_bytes_are_pinned(tmp_path, capsys, extra, sequences, corpus_sha):
    flows_to_pcap(synth_flows(24, n_classes=3, seed=5), tmp_path / "c.pcap")
    flows, vocab, corpus = tmp_path / "flows", tmp_path / "vocab.tsv", tmp_path / "corpus.txt"
    assert run("ingest", "--pcap", str(tmp_path / "c.pcap"), "--out", str(flows), "--label", "2") == 0
    assert run("build-vocab", "--out", str(vocab)) == 0
    assert run("tokenize", "--flows", str(flows), "--vocab", str(vocab), "--out", str(corpus), *extra) == 0
    assert f"sequences={sequences}\n" in capsys.readouterr().out
    assert sha256_of(vocab, corpus) == {
        str(vocab): "fc6064d9f7e93d42541195b30da3e0acd28e1999c4053493d1e233b8e682fc72", str(corpus): corpus_sha}


TINY_FLAGS = [
    "--d-model", "16", "--n-layers", "1", "--n-heads", "2", "--n-experts", "4",
    "--top-k", "2", "--ffn-hidden", "32", "--batch-size", "8",
]


def test_pipeline_finetune_eval_roundtrip(pipeline, capsys):
    tmp_path, vocab, corpus = pipeline
    run_dir = tmp_path / "run"
    assert run("finetune", "--corpus", str(corpus), "--vocab", str(vocab),
               "--out", str(run_dir), "--seed", "3", "--epochs", "2",
               "--base-lr", "1e-3", *TINY_FLAGS) == 0
    assert (run_dir / "best.ckpt").exists()
    metrics = tmp_path / "metrics.tsv"
    assert run("eval", "--ckpt", str(run_dir / "best.ckpt"), "--data", str(corpus),
               "--metrics-out", str(metrics)) == 0
    text = metrics.read_text()
    assert text.startswith("metric\tclass\tvalue\n")
    assert "macro_f1" in text


def test_pipeline_pretrain_then_finetune_init(pipeline):
    tmp_path, vocab, corpus = pipeline
    pre_dir = tmp_path / "pre"
    assert run("pretrain", "--corpus", str(corpus), "--vocab", str(vocab),
               "--out", str(pre_dir), "--seed", "1", "--epochs", "1",
               "--num-classes", "2", *TINY_FLAGS) == 0
    fine_dir = tmp_path / "fine"
    assert run("finetune", "--corpus", str(corpus), "--vocab", str(vocab),
               "--out", str(fine_dir), "--seed", "1", "--epochs", "1",
               "--init", str(pre_dir / "last.ckpt"), *TINY_FLAGS) == 0
    assert (fine_dir / "history.tsv").exists()


def test_route_trace_exports(pipeline):
    tmp_path, vocab, corpus = pipeline
    run_dir = tmp_path / "run"
    run("finetune", "--corpus", str(corpus), "--vocab", str(vocab), "--out", str(run_dir),
        "--seed", "3", "--epochs", "1", "--base-lr", "1e-3", *TINY_FLAGS)
    trace = tmp_path / "trace.tsv"
    assert run("route-trace", "--ckpt", str(run_dir / "best.ckpt"), "--data", str(corpus),
               "--out", str(trace), "--limit", "3") == 0
    assert trace.read_text().startswith("layer\ttoken\texpert\tprob\n")
    assert Path(str(trace) + ".stats.tsv").exists()


def test_bench_cli_writes_report(pipeline):
    tmp_path, vocab, corpus = pipeline
    run_dir = tmp_path / "run"
    run("finetune", "--corpus", str(corpus), "--vocab", str(vocab), "--out", str(run_dir),
        "--seed", "3", "--epochs", "1", "--base-lr", "1e-3", *TINY_FLAGS)
    report = tmp_path / "bench.tsv"
    assert run("bench", "--ckpt", str(run_dir / "best.ckpt"), "--batch-sizes", "2,4",
               "--report", str(report), "--batches", "2", "--warmup", "1",
               "--seq-len", "32") == 0
    lines = report.read_text().splitlines()
    assert lines[0] == ("model\tbatch_size\tthroughput_seq_per_s\tmean_latency_ms"
                        "\tflops_per_seq\tactive_param_ratio\tpeak_bytes")
    assert len(lines) == 5  # header + 2 models x 2 batch sizes
    for line in lines[1:]:
        fields = line.split("\t")
        assert int(fields[4]) > 0 and int(fields[6]) > 0, line


@pytest.mark.parametrize("sizes,bad", [("0", "0"), ("-4", "-4"), ("2,x", "x"), ("2.5", "2.5")])
def test_bad_bench_batch_sizes_are_data_errors(tiny_eval, capsys, sizes, bad):
    ckpt, _ = tiny_eval
    assert run("bench", "--ckpt", str(ckpt), "--batch-sizes", sizes, "--report", str(ckpt.parent / "b.tsv")) == 2
    err = capsys.readouterr().err
    assert "--batch-sizes" in err and repr(bad) in err
    assert not (ckpt.parent / "b.tsv").exists()


@pytest.mark.parametrize("command,flag,value", [("bench", "--batches", "0"), ("bench", "--seq-len", "0"),
                                                ("bench", "--seq-len", "-3"), ("route-trace", "--limit", "-2"),
                                                ("route-trace", "--limit", "0"), ("bench", "--warmup", "-5"),
                                                ("eval", "--batch-size", "0")])
def test_counts_below_one_are_data_errors(tiny_eval, capsys, command, flag, value):
    ckpt, corpus = tiny_eval
    out = ckpt.parent / "out.tsv"
    io = {"bench": ("--report", str(out)), "eval": ("--data", str(corpus), "--metrics-out", str(out))}.get(
        command, ("--data", str(corpus), "--out", str(out)))
    assert run(command, "--ckpt", str(ckpt), *io, flag, value) == 2
    assert f"{flag} {value} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value", [("build-vocab", "--min-freq", "-3"),
                                                ("tokenize", "--slice-window", "-5"),
                                                ("tokenize", "--slice-window", "nan")])
def test_out_of_range_flow_flags_are_data_errors_before_any_input_is_read(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out" / "v.tsv"
    extra = ("--vocab-mode", "wordpiece") if command == "build-vocab" else ("--vocab", str(tmp_path / "none.tsv"))
    assert run(command, "--flows", str(tmp_path / "missing"), "--out", str(out), *extra, flag, value) == 2
    assert f"{flag} {value} is not " in capsys.readouterr().err
    assert not out.parent.exists()


def test_ood_cli_time_mode(tmp_path):
    pcap = tmp_path / "f.pcap"
    fixture_pcap(pcap, n_flows=10, packets_per_flow=4)
    run("ingest", "--pcap", str(pcap), "--out", str(tmp_path / "flows"), "--label", "0")
    out = tmp_path / "ood"
    assert run("ood", "--mode", "time", "--flows", str(tmp_path / "flows"),
               "--out", str(out)) == 0
    assert (out / "train" / "flows.tsv").exists()
    assert (out / "test" / "flows.tsv").exists()


def test_ood_cli_compose_mode_with_coarse_map(tmp_path):
    for label in (0, 1, 2, 3):
        pcap = tmp_path / f"c{label}.pcap"
        fixture_pcap(pcap, n_flows=6, packets_per_flow=4, seed=label)
        run("ingest", "--pcap", str(pcap), "--out", str(tmp_path / f"flows{label}"),
            "--label", str(label))
    coarse_map = tmp_path / "coarse.txt"
    coarse_map.write_text("0 0\n1 0\n2 1\n3 1\n")
    out = tmp_path / "ood"
    flow_dirs = [str(tmp_path / f"flows{l}") for l in range(4)]
    assert run("ood", "--mode", "compose", "--flows", *flow_dirs, "--out", str(out),
               "--coarse-map", str(coarse_map), "--seed", "2") == 0
    from trafficmoe.flows import read_flows

    train_flows = read_flows(out / "train")
    test_flows = read_flows(out / "test")
    assert {f.label for f in train_flows} <= {0, 1}   # relabeled to coarse ids
    assert {f.label for f in test_flows} == {0, 1}


@pytest.mark.parametrize("mode", ["proportion", "compose"])
def test_ood_coarse_mode_without_coarse_map_is_usage_error(tmp_path, capsys, mode):
    out = tmp_path / "ood"
    assert run("ood", "--mode", mode, "--flows", str(tmp_path / "missing"), "--out", str(out)) == 1
    assert f"error: --mode {mode} needs --coarse-map" in capsys.readouterr().err
    assert not out.exists()


def test_ood_coarse_label_outside_int32_is_data_error(tmp_path, capsys):
    for label in (0, 1, 2, 3):
        fixture_pcap(tmp_path / f"c{label}.pcap", n_flows=6, packets_per_flow=4, seed=label)
        assert run("ingest", "--pcap", str(tmp_path / f"c{label}.pcap"), "--out", str(tmp_path / f"flows{label}"),
                   "--label", str(label)) == 0
    coarse_map = tmp_path / "coarse.txt"
    coarse_map.write_text("0 3000000000\n1 3000000000\n2 1\n3 1\n")
    assert run("ood", "--mode", "compose", "--flows", *(str(tmp_path / f"flows{l}") for l in range(4)),
               "--out", str(tmp_path / "ood"), "--coarse-map", str(coarse_map), "--seed", "2") == 2
    assert re.search(r"flow \d+ \(.*\): label 3000000000 is outside \[0, 2\*\*31\)", capsys.readouterr().err)
    assert not (tmp_path / "ood").exists()


def manifest_inputs(out_dir: Path) -> dict[str, str]:
    """The ``input.<path>=<sha256>`` lines of the last record in ``out_dir/manifest.log``."""
    record = (out_dir / "manifest.log").read_text().split("---\n")[-2]
    return dict(line[len("input."):].rpartition("=")[::2] for line in record.splitlines() if line.startswith("input."))


def sha256_of(*paths) -> dict[str, str]:
    return {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def test_manifest_keys_each_flow_input_by_its_path(tmp_path):
    flow_dirs = [tmp_path / "a" / "flows", tmp_path / "b" / "flows"]
    for label, flow_dir in enumerate(flow_dirs):
        fixture_pcap(tmp_path / f"c{label}.pcap", n_flows=6, packets_per_flow=4, seed=label)
        assert run("ingest", "--pcap", str(tmp_path / f"c{label}.pcap"), "--out", str(flow_dir),
                   "--label", str(label)) == 0
    assert run("ood", "--mode", "time", "--flows", *map(str, flow_dirs), "--out", str(tmp_path / "ood")) == 0
    inputs = manifest_inputs(tmp_path / "ood")
    assert inputs == sha256_of(*(d / "packets.bin" for d in flow_dirs))
    assert len(set(inputs.values())) == 2


def test_manifest_lists_every_file_read(tiny_eval):
    ckpt, corpus = tiny_eval
    out = ckpt.parent / "out"
    assert run("route-trace", "--ckpt", str(ckpt), "--data", str(corpus), "--out", str(out / "trace.tsv")) == 0
    assert manifest_inputs(out) == sha256_of(ckpt, f"{ckpt}.config", corpus)
    assert run("bench", "--ckpt", str(ckpt), "--batch-sizes", "1",
               "--report", str(out / "bench.tsv"), "--batches", "1", "--warmup", "1", "--seq-len", "8") == 0
    assert manifest_inputs(out) == sha256_of(ckpt, f"{ckpt}.config")
    assert "config.warmup=1\n" in (out / "manifest.log").read_text().split("---\n")[-2]


def test_config_file_and_flag_precedence(tmp_path, capsys):
    pcap = tmp_path / "f.pcap"
    fixture_pcap(pcap, n_flows=4, packets_per_flow=4)
    run("ingest", "--pcap", str(pcap), "--out", str(tmp_path / "flows"), "--label", "0")
    run("build-vocab", "--out", str(tmp_path / "vocab.tsv"))
    capsys.readouterr()
    config = tmp_path / "serializer.cfg"
    config.write_text("k=3\nj=8\nmax_tokens=48\n")
    # file value for k, flag override for j
    assert run("tokenize", "--flows", str(tmp_path / "flows"), "--vocab",
               str(tmp_path / "vocab.tsv"), "--out", str(tmp_path / "c.txt"),
               "--config", str(config), "--j", "4") == 0
    echoed = capsys.readouterr().out
    assert "k=3" in echoed          # from the config file
    assert "j=4" in echoed          # flag wins over file
    assert "max_tokens=48" in echoed


def test_seed_env_override(tmp_path, monkeypatch, capsys):
    pcap = tmp_path / "f.pcap"
    fixture_pcap(pcap, n_flows=4, packets_per_flow=4)
    monkeypatch.setenv("TRAFFICMOE_SEED", "777")
    run("ingest", "--pcap", str(pcap), "--out", str(tmp_path / "flows"))
    manifest = (tmp_path / "flows" / "manifest.log").read_text()
    assert "seed=777" in manifest


def test_selftest_command(capsys):
    assert run("selftest") == 0
    out = capsys.readouterr().out
    for name in ("routing_invariants", "balance_loss_anchors", "rotary_embedding", "gradient_spot_check",
                 "gradient_ownership", "causality", "pad_invariance", "tokenizer", "flow_assembly", "metrics",
                 "llrd_schedule", "checkpoint_roundtrip", "optimizer_isolation"):
        assert f"[  ok] {name}: " in out


# -- malformed artifacts fail closed with exit 2 ------------------------------------------


def test_truncated_flow_sidecar_is_data_error(tmp_path, capsys):
    pcap = tmp_path / "f.pcap"
    fixture_pcap(pcap, n_flows=3, packets_per_flow=4)
    assert run("ingest", "--pcap", str(pcap), "--out", str(tmp_path / "flows")) == 0
    sidecar = tmp_path / "flows" / "packets.bin"
    sidecar.write_bytes(sidecar.read_bytes()[:-30])
    build_vocabulary().save(tmp_path / "vocab.tsv")
    assert run("tokenize", "--flows", str(tmp_path / "flows"), "--vocab", str(tmp_path / "vocab.tsv"),
               "--out", str(tmp_path / "c.txt")) == 2
    err = capsys.readouterr().err
    assert "packets.bin" in err and "offset" in err


def test_zero_packet_flow_record_is_data_error(tmp_path, capsys):
    key = FiveTuple(bytes(4), 1, bytes(4), 2, 6)
    write_flows([SessionFlow(key=key, packets=[], label=0)], tmp_path / "flows")
    build_vocabulary().save(tmp_path / "vocab.tsv")
    assert run("tokenize", "--flows", str(tmp_path / "flows"), "--vocab", str(tmp_path / "vocab.tsv"),
               "--out", str(tmp_path / "c.txt")) == 2
    err = capsys.readouterr().err
    assert "offset 12" in err and "no packets" in err


@pytest.fixture
def tiny_eval(tmp_path):
    """A saved tiny 2-class checkpoint plus a labeled corpus it can score."""
    ckpt = tmp_path / "m.ckpt"
    TrafficModel(tiny_config(), seed=0).save(ckpt)
    ids = np.arange(1, 13) % 64
    corpus = tmp_path / "c.txt"
    write_corpus([TokenSequence(ids, ids != 2, label=i % 2) for i in range(4)], corpus)
    return ckpt, corpus


def run_eval(ckpt, corpus) -> int:
    return run("eval", "--ckpt", str(ckpt), "--data", str(corpus),
               "--metrics-out", str(Path(corpus).parent / "metrics.tsv"))


@pytest.mark.parametrize("keep", [10, 200])  # cut inside a header, inside a tensor
def test_truncated_checkpoint_is_data_error(tiny_eval, capsys, keep):
    ckpt, corpus = tiny_eval
    assert run_eval(ckpt, corpus) == 0
    ckpt.write_bytes(ckpt.read_bytes()[:keep])
    assert run_eval(ckpt, corpus) == 2
    err = capsys.readouterr().err
    assert "m.ckpt" in err and "offset" in err


def test_unknown_sidecar_key_is_data_error(tiny_eval, capsys):
    ckpt, corpus = tiny_eval
    sidecar = Path(str(ckpt) + ".config")
    sidecar.write_text(sidecar.read_text() + "bogus=1\n")
    assert run_eval(ckpt, corpus) == 2
    assert "'bogus'" in capsys.readouterr().err


def test_eval_label_beyond_num_classes_is_data_error(tiny_eval, capsys):
    ckpt, corpus = tiny_eval
    ids = np.arange(1, 13)
    write_corpus([TokenSequence(ids, ids > 0, label=5)], corpus)
    assert run_eval(ckpt, corpus) == 2
    err = capsys.readouterr().err
    assert "c.txt" in err and "label 5" in err


def test_checkpoint_shape_mismatch_is_data_error(tiny_eval, capsys):
    ckpt, corpus = tiny_eval
    arrays = T.load_checkpoint(ckpt)
    arrays["head.cls.b2"] = np.zeros(5, dtype=np.float32)  # a 5-class head for a 2-class config
    T.save_checkpoint(arrays, ckpt)
    assert run_eval(ckpt, corpus) == 2
    err = capsys.readouterr().err
    assert "m.ckpt" in err and "'head.cls.b2'" in err and "(5,)" in err and "(2,)" in err


def test_checkpoint_load_checks_shapes_before_allocating(tiny_eval, capsys):
    ckpt, corpus = tiny_eval
    sidecar = Path(str(ckpt) + ".config")
    sidecar.write_text(sidecar.read_text().replace("vocab_size=64", f"vocab_size={10**9}"))
    assert run_eval(ckpt, corpus) == 2  # its embedding alone would be 64 GB of float32
    err = capsys.readouterr().err
    assert "m.ckpt" in err and "'embed.tok'" in err and "(64, 16)" in err and f"({10**9}, 16)" in err


def _per_head_layout(ckpt: Path) -> None:
    """Rewrite a checkpoint in the layout older releases wrote: each layer's q, k and v as per-head
    ``[d, head_dim]`` tensors ``attn.head{j}.wq/wk/wv`` and ``moe.shared_gate`` as a ``[d]`` vector."""
    cfg, arrays = tiny_config(), T.load_checkpoint(ckpt)
    d, hd = cfg.d_model, cfg.head_dim
    for layer in range(cfg.n_layers):
        wqkv = arrays.pop(f"layers.{layer}.attn.wqkv")
        for part, w in enumerate(("wq", "wk", "wv")):
            for j in range(cfg.n_heads):
                arrays[f"layers.{layer}.attn.head{j}.{w}"] = wqkv[:, part * d + j * hd : part * d + (j + 1) * hd]
        gate = f"layers.{layer}.moe.shared_gate"
        arrays[gate] = arrays[gate].reshape(-1)
    T.save_checkpoint(arrays, ckpt)


def _retired_sidecar_key(ckpt: Path) -> None:
    """Add the ``aux_loss_weight`` key that sidecars of older releases carried."""
    sidecar = Path(str(ckpt) + ".config")
    sidecar.write_text("aux_loss_weight=0.02\n" + sidecar.read_text())


@pytest.mark.parametrize("rewrite,message", [
    (_per_head_layout, "tensor 'layers.0.attn.head0.wk' is (16, 8) in the checkpoint but absent in its config"),
    (_retired_sidecar_key, "unknown model config key 'aux_loss_weight'"),
], ids=["per_head_attention", "retired_sidecar_key"])
def test_legacy_checkpoint_formats_are_data_errors(tiny_eval, capsys, rewrite, message):
    ckpt, corpus = tiny_eval
    rewrite(ckpt)
    assert run_eval(ckpt, corpus) == 2
    err = capsys.readouterr().err
    assert message in err and "m.ckpt" in err and "Traceback" not in err


def test_ood_flow_label_missing_from_coarse_map_is_data_error(tmp_path, capsys):
    for label in (0, 1, 2):
        pcap = tmp_path / f"c{label}.pcap"
        fixture_pcap(pcap, n_flows=4, packets_per_flow=4, seed=label)
        run("ingest", "--pcap", str(pcap), "--out", str(tmp_path / f"flows{label}"), "--label", str(label))
    coarse_map = tmp_path / "coarse.txt"
    coarse_map.write_text("0 0\n1 1\n")
    for mode in ("proportion", "compose"):
        assert run("ood", "--mode", mode, "--flows", *(str(tmp_path / f"flows{l}") for l in range(3)),
                   "--out", str(tmp_path / "ood"), "--coarse-map", str(coarse_map)) == 2
        err = capsys.readouterr().err
        assert "coarse.txt" in err and "flow label 2" in err
    assert not (tmp_path / "ood").exists()


@pytest.mark.parametrize("bad_line", ["1 0 7", "1 x", "1"])
def test_ood_malformed_coarse_map_line_is_data_error(tmp_path, capsys, bad_line):
    fixture_pcap(tmp_path / "c.pcap", n_flows=4, packets_per_flow=4)
    run("ingest", "--pcap", str(tmp_path / "c.pcap"), "--out", str(tmp_path / "flows"), "--label", "0")
    (tmp_path / "coarse.txt").write_text("0 0\n" + bad_line + "\n")
    assert run("ood", "--mode", "proportion", "--flows", str(tmp_path / "flows"), "--out", str(tmp_path / "ood"),
               "--coarse-map", str(tmp_path / "coarse.txt")) == 2
    assert f"coarse.txt:2: expected `fine coarse` integer labels, got {bad_line!r}" in capsys.readouterr().err


@pytest.mark.parametrize("bad_line", [
    "label:0\t1 2 3 x", "label:0\t1 99999999999 3", "label:0\t1 -4 3", "label:0 1 2 3",
    "label:0\t0 1_0 +3 \u0663 2", "label:0\t1 1_0 3", "label:0\t1 +3 3", "label:0\t1 \u0663 3",
    "label:+1\t1 2 3", "label:\u0663\t1 2 3", "label:\t1 2 3",
])
def test_malformed_corpus_line_is_data_error(tiny_eval, capsys, bad_line):
    ckpt, corpus = tiny_eval
    corpus.write_text("label:1\t1 2 3\n" + bad_line + "\n")
    assert run_eval(ckpt, corpus) == 2
    assert "c.txt:2:" in capsys.readouterr().err


@pytest.mark.parametrize("command,text,message", [
    ("finetune", "label:0\t1 2 3\nlabel:1\t1 2 3 4\n", "c.txt:2: 4 token IDs, but line 1 has 3"),
    ("pretrain", "label:0\t\nlabel:1\t1 2 3\n", "c.txt:1: no token IDs"),
], ids=["uneven", "empty"])
def test_ragged_corpus_is_data_error(tiny_eval, tmp_path, capsys, command, text, message):
    _, corpus = tiny_eval
    corpus.write_text(text)
    save_six_entry_vocab(tmp_path / "vocab.tsv")
    assert run(command, "--corpus", str(corpus), "--vocab", str(tmp_path / "vocab.tsv"), "--out",
               str(tmp_path / "run"), *TINY_FLAGS) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_vocab_line_without_tab_is_data_error(tmp_path, capsys):
    write_flows([], tmp_path / "flows")
    (tmp_path / "vocab.tsv").write_text("[PD]\t0\n[PY] 1\n")
    assert run("tokenize", "--flows", str(tmp_path / "flows"), "--vocab", str(tmp_path / "vocab.tsv"),
               "--out", str(tmp_path / "c.txt")) == 2
    assert "vocab.tsv:2:" in capsys.readouterr().err


@pytest.mark.parametrize("lines,message", [
    ("AABB\t5\n", "vocab.tsv:6: token 'AABB' is neither a marker nor four lowercase hex digits"),
    ("0x1f\t5\n", "vocab.tsv:6: token '0x1f' is neither a marker nor four lowercase hex digits"),
    ("abc\t5\n", "vocab.tsv:6: token 'abc' is neither a marker nor four lowercase hex digits"),
    ("[CLS]\t5\n", "vocab.tsv:6: token '[CLS]' is neither a marker nor four lowercase hex digits"),
    ("aabb\t5\naabb\t6\n", "vocab.tsv:7: token 'aabb' repeats line 6"),
    ("[END]\t5\n", "vocab.tsv:6: token '[END]' repeats line 4"),
    ("aabb\t\u0665\n", "vocab.tsv:6: expected token<TAB>id, got 'aabb\\t\u0665'"),
], ids=["uppercase", "0x-prefix", "three-digits", "unknown-marker", "repeated-bigram", "repeated-marker",
        "non-ascii-id"])
def test_vocab_bad_token_is_data_error(tmp_path, capsys, lines, message):
    write_flows([], tmp_path / "flows")
    markers = "".join(f"{m}\t{i}\n" for i, m in enumerate(("[PD]", "[PY]", "[PAD]", "[END]", "[UNK]")))
    (tmp_path / "vocab.tsv").write_text(markers + lines)
    assert run("tokenize", "--flows", str(tmp_path / "flows"), "--vocab", str(tmp_path / "vocab.tsv"),
               "--out", str(tmp_path / "c.txt")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "c.txt").exists()


@pytest.mark.parametrize("command,message", [
    ("pretrain", "corpus {corpus} holds token id 12, but vocab {vocab} has 6 ids"),
    ("finetune", "vocab {vocab} has 6 ids, but checkpoint {ckpt} has vocab_size=64"),
], ids=["corpus-ids-beyond-vocab", "init-vocab-size-mismatch"])
def test_training_vocab_mismatch_is_data_error_before_any_write(tiny_eval, tmp_path, capsys, command, message):
    ckpt, corpus = tiny_eval  # token ids 1..12; checkpoint vocab_size=64
    vocab = tmp_path / "vocab.tsv"
    save_six_entry_vocab(vocab)
    init = ("--init", str(ckpt)) if command == "finetune" else ()
    assert run(command, "--corpus", str(corpus), "--vocab", str(vocab), "--out", str(tmp_path / "run"),
               *init, *TINY_FLAGS) == 2
    assert message.format(corpus=corpus, vocab=vocab, ckpt=ckpt) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["eval", "route-trace"])
def test_corpus_ids_beyond_checkpoint_vocab_are_data_error_before_any_write(tiny_eval, tmp_path, capsys, command):
    ckpt, corpus = tiny_eval  # checkpoint vocab_size=64
    ids = np.arange(59, 71)
    write_corpus([TokenSequence(ids, ids > 0, label=i % 2) for i in range(2)], corpus)
    out = tmp_path / "out" / "o.tsv"
    io = ("--metrics-out", str(out)) if command == "eval" else ("--out", str(out))
    assert run(command, "--ckpt", str(ckpt), "--data", str(corpus), *io) == 2
    assert f"corpus {corpus} holds token id 70, but checkpoint {ckpt} has 64 ids" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["finetune", "pretrain", "eval", "route-trace"])
def test_corpus_wider_than_checkpoint_max_tokens_is_data_error(tiny_eval, tmp_path, capsys, command):
    ckpt, corpus = tiny_eval
    TrafficModel(tiny_config(vocab_size=6), seed=0).save(ckpt)  # max_tokens=12
    ids = np.arange(40) % 6
    write_corpus([TokenSequence(ids, ids != 2, label=i % 2) for i in range(4)], corpus)
    out = tmp_path / "out" / "o.tsv"
    if command in ("finetune", "pretrain"):
        save_six_entry_vocab(tmp_path / "vocab.tsv")
        args = ("--corpus", str(corpus), "--vocab", str(tmp_path / "vocab.tsv"), "--init", str(ckpt),
                "--out", str(out.parent))
    else:
        args = ("--ckpt", str(ckpt), "--data", str(corpus), "--metrics-out" if command == "eval" else "--out", str(out))
    assert run(command, *args) == 2
    err = capsys.readouterr().err
    assert f"corpus {corpus} rows are 40 tokens wide, but checkpoint {ckpt} has max_tokens=12" in err
    assert not out.parent.exists()


def test_eval_on_an_empty_corpus_is_data_error(tiny_eval, tmp_path, capsys):
    ckpt, corpus = tiny_eval
    corpus.write_text("")
    out = tmp_path / "out" / "metrics.tsv"
    assert run("eval", "--ckpt", str(ckpt), "--data", str(corpus), "--metrics-out", str(out)) == 2
    assert f"corpus {corpus} is empty" in capsys.readouterr().err
    assert not out.parent.exists()


def test_config_file_line_without_equals_is_data_error(tmp_path, capsys):
    write_flows([], tmp_path / "flows")
    build_vocabulary().save(tmp_path / "vocab.tsv")
    (tmp_path / "s.cfg").write_text("# serializer\nk=3\nmax_tokens 48\n")
    assert run("tokenize", "--flows", str(tmp_path / "flows"), "--vocab", str(tmp_path / "vocab.tsv"),
               "--out", str(tmp_path / "c.txt"), "--config", str(tmp_path / "s.cfg")) == 2
    assert "s.cfg:3:" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--n-heads", "0"), ("--n-heads", "-8"), ("--n-layers", "-2")])
def test_non_positive_model_size_is_data_error(tiny_eval, tmp_path, capsys, flag, value):
    _, corpus = tiny_eval
    save_six_entry_vocab(tmp_path / "vocab.tsv")
    assert run("pretrain", "--corpus", str(corpus), "--vocab", str(tmp_path / "vocab.tsv"), "--out",
               str(tmp_path / "run"), "--d-model", "16", "--n-layers", "1", flag, value) == 2
    assert f"{flag[2:].replace('-', '_')}={value} must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value", [
    ("finetune", "--batch-size", "0"), ("finetune", "--epochs", "0"),
    ("pretrain", "--epochs", "-2"), ("finetune", "--base-lr", "-1"), ("pretrain", "--base-lr", "0"),
    ("finetune", "--aux-weight", "-1"), ("pretrain", "--weight-decay", "-0.5"),
])
def test_nonsensical_training_value_is_data_error(tiny_eval, tmp_path, capsys, command, flag, value):
    ckpt, corpus = tiny_eval
    save_six_entry_vocab(tmp_path / "vocab.tsv")
    before = sorted(tmp_path.rglob("*.ckpt"))
    assert run(command, "--corpus", str(corpus), "--vocab", str(tmp_path / "vocab.tsv"), "--out",
               str(tmp_path / "run"), "--init", str(ckpt), flag, value) == 2
    err = capsys.readouterr().err
    assert f"{flag[2:].replace('-', '_')}=" in err and "must be" in err
    assert sorted(tmp_path.rglob("*.ckpt")) == before


# -- training flags come from the config dataclasses --------------------------------------

PARENT_TRAINING_FLAGS = [
    "n-layers", "d-model", "n-heads", "n-experts", "top-k", "ffn-hidden", "num-classes",
    "batch-size", "epochs", "base-lr", "aux-weight", "llrd-decay", "patience", "weight-decay",
]


@pytest.mark.parametrize("mode", ["pretrain", "finetune"])
def test_training_help_offers_flags_with_dataclass_defaults(mode, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")
    assert run(mode, "--help") == 0
    text = capsys.readouterr().out
    model, train = ModelConfig(), TrainConfig(mode=mode)
    for flag in PARENT_TRAINING_FLAGS:
        field = flag.replace("-", "_")
        found = re.search(rf"--{flag} [A-Z_]+\s+{field} \(default (\S+)\)", text)
        assert found, flag
        expected = getattr(model, field) if hasattr(model, field) else getattr(train, field)
        assert found.group(1) == str(expected), flag


def test_every_config_field_is_a_cli_key_or_set_by_code():
    """A field no flag or config-file key reaches and no code sets only ever holds its default."""
    exposed = {*cli._MODEL_KEYS.values(), *cli._TRAIN_KEYS.values(), *cli._SERIALIZER_KEYS.values()}
    set_by_code = {"mode", "seed", "vocab_size", "max_tokens", "ffn_kind", "dense_hidden"}
    for config in (ModelConfig, TrainConfig, SerializerConfig):
        dead = {f.name for f in dataclasses.fields(config)} - exposed - set_by_code
        assert not dead, f"{config.__name__} fields nothing sets: {sorted(dead)}"


# -- the benchmark tracer's wrapped boundaries still exist ------------------------------------


def test_tracer_boundaries_resolve_and_restore():
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def lookup(owner, attr):
        mod_name, _, cls_name = owner.partition(":")
        module = importlib.import_module(f"trafficmoe.{mod_name}")
        return (vars(getattr(module, cls_name)) if cls_name else vars(module))[attr]

    originals = {name: lookup(owner, attr) for name, owner, attr in tracer.BOUNDARIES}
    t = tracer.Tracer()
    try:
        t.install()
        for name, owner, attr in tracer.BOUNDARIES:
            assert lookup(owner, attr) is not originals[name], name
    finally:
        t.uninstall()
    for name, owner, attr in tracer.BOUNDARIES:
        assert lookup(owner, attr) is originals[name], name
