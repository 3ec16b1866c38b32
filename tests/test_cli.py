import dataclasses
import hashlib
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcap_craft as craft
from conftest import load_perfbench, tiny_config
from reference_ops import FiveTuple, RecordFlow, write_flows_ref
from trafficmoe import cli, selftest, tokenization
from trafficmoe import tensor as T
from trafficmoe.cli import main
from trafficmoe.evaluation import build_dense_variant
from trafficmoe.flows import PACKET_COLUMNS, FlowTable, PacketTable, SessionFlow, read_flows, write_flows
from trafficmoe.model import ModelConfig, TrafficModel
from trafficmoe.synth import flows_to_pcap, synth_flows
from trafficmoe.tokenization import SerializerConfig, TokenSequence, build_vocabulary, write_corpus
from trafficmoe.training import TrainConfig, train


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


OUT_FLAG = {"eval": "--metrics-out", "route-trace": "--out", "bench": "--report"}  # each command's output flag


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


def test_process_exit_code_of_a_data_error_is_2_without_a_traceback(tmp_path):
    TrafficModel(tiny_config(), seed=0).save(tmp_path / "m.ckpt")
    src = Path(__file__).parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "trafficmoe", "bench", "--ckpt", str(tmp_path / "m.ckpt"), "--data",
                           str(tmp_path / "missing.txt"), "--report", str(tmp_path / "out" / "b.tsv")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "missing.txt" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


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


def mixed_link_capture(path: Path) -> None:
    """Craft a capture of a VLAN-tagged IPv4 TCP conversation, an IPv6 TCP and an IPv6 UDP one, IPv4 UDP
    and an ARP frame, with tied timestamps across flows."""
    a, b, a6, b6 = bytes([10, 1, 0, 1]), bytes([10, 1, 0, 2]), bytes(range(16)), bytes(range(16, 32))
    frames = []
    for i in range(5):
        out, t = i % 2 == 0, 1.0 + i * 0.25
        src, dst, src6, dst6 = (a, b, a6, b6) if out else (b, a, b6, a6)
        ports = (40000, 443) if out else (443, 40000)
        frames.append((t, craft.ethernet(craft.ipv4(src, dst, 6, craft.tcp(*ports, 0x18, bytes([i]) * 9)), vlan=7)))
        frames.append((t, craft.ethernet(craft.ipv6(src6, dst6, 6, craft.tcp(*ports, 0x10, b"v6" * i)), craft.ETH_IPV6)))
        frames.append((t, craft.ethernet(craft.ipv6(dst6, src6, 17, craft.udp(53, 5353, b"q" * i)), craft.ETH_IPV6)))
        frames.append((t + 0.1, craft.ethernet(craft.ipv4(a, b, 17, craft.udp(5000 + i % 2, 53, b"dns")))))
    frames.append((3.0, craft.arp_frame()))
    path.write_bytes(craft.pcap(frames))


# SHA-256 of flows.tsv and packets.bin as ingest wrote them before the columnar decoder, so a change
# to decoding, grouping or the store that moves one byte fails here.
INGEST_PINS = {
    "synth": ("63cb71600ee5ae59b6c854ca559a5fed578df69ddcb85608429a0b77f4c6a7f1",
              "04820a019fac0cc33c7fbae5e562b0f20bc445e0e9f977fbdcdc93f0d3dae0b7"),
    "mixed": ("a5c68d5d72e455c3449363da62c9a8609ac0353fe6b8a944281f5344dd727248",
              "26cf19107900dc74198f3d7c215e3749975cd01c1a4584acbf21165acd8c5f1a"),
}


@pytest.mark.parametrize("capture", sorted(INGEST_PINS))
def test_ingest_writes_the_pinned_store(tmp_path, capsys, capture):
    pcap = tmp_path / "f.pcap"
    if capture == "synth":
        flows_to_pcap(synth_flows(24, n_classes=3, seed=5), pcap)
        flags = ["--label", "2"]
    else:
        mixed_link_capture(pcap)
        flags = ["--min-packets", "1"]
    assert run("ingest", "--pcap", str(pcap), "--out", str(tmp_path / "flows"), *flags) == 0
    digests = tuple(hashlib.sha256((tmp_path / "flows" / name).read_bytes()).hexdigest()
                    for name in ("flows.tsv", "packets.bin"))
    assert digests == INGEST_PINS[capture]


def test_ingest_and_tokenize_build_no_packet_record(tmp_path, monkeypatch, capsys):
    """No command on the flow path builds a SessionFlow, the one per-flow object: they pass tables only.
    (The package has no per-packet class to count.)"""
    for label in range(4):
        flows_to_pcap(synth_flows(12, n_classes=3, seed=5 + label), tmp_path / f"{label}.pcap")
    build_vocabulary().save(tmp_path / "vocab.tsv")
    (tmp_path / "coarse.txt").write_text("0 0\n1 0\n2 1\n3 1\n")
    built = []
    monkeypatch.setattr(SessionFlow, "__init__", lambda self, *a, init=SessionFlow.__init__, **kw: built.append(
        type(self).__name__) or init(self, *a, **kw))
    flow_dirs = [str(tmp_path / f"flows{label}") for label in range(4)]
    for label, flows in enumerate(flow_dirs):
        assert run("ingest", "--pcap", str(tmp_path / f"{label}.pcap"), "--out", flows, "--label", str(label)) == 0
    for extra in ((), ("--slice-window", "0.01")):
        assert run("tokenize", "--flows", *flow_dirs, "--vocab", str(tmp_path / "vocab.tsv"),
                   "--out", str(tmp_path / "c.txt"), *extra) == 0
    assert "sequences=48" in capsys.readouterr().out
    assert run("build-vocab", "--flows", *flow_dirs, "--out", str(tmp_path / "wp.tsv")) == 0
    for mode in ("time", "proportion", "compose"):
        coarse = [] if mode == "time" else ["--coarse-map", str(tmp_path / "coarse.txt")]
        assert run("ood", "--mode", mode, "--flows", *flow_dirs, "--out", str(tmp_path / mode), *coarse) == 0
    assert not built
    SessionFlow(PacketTable(b"", np.zeros(0, PACKET_COLUMNS)))  # the counter counts
    assert built == ["SessionFlow"]


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
    assert run("build-vocab", "--flows", *flow_dirs, "--out", str(vocab), "--min-freq", "1") == 0
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
    serializer = ["--stride", stride, "--k", "5", "--j", "24"]
    assert run("build-vocab", "--flows", str(flows), "--out", str(vocab), "--min-freq", "3", *serializer) == 0
    assert run("tokenize", "--flows", str(flows), "--vocab", str(vocab), "--out", str(corpus), *serializer,
               "--max-tokens", "96") == 0
    assert sha256_of(vocab, corpus) == {str(vocab): vocab_sha, str(corpus): corpus_sha}


@pytest.mark.parametrize("extra,sequences,corpus_sha", [
    ((), 24, "fa0d1316f8876f3830f51aea6161e7171ac8c75ec98395fe1960d29d33c30ced"),
    (("--slice-window", "0.01"), 48, "1a1d23b651ad7f8e6c627f3850ee138dfbb2d6b680772b7fba6c0d3ffa35b5d3"),
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


def ingest_synth(tmp_path: Path, name: str, n_flows: int, seed: int, *flags: str) -> Path:
    """``ingest`` a capture of ``synth_flows(n_flows, 3, seed)`` into ``tmp_path / name``."""
    pcap, out = tmp_path / f"{name}.pcap", tmp_path / name
    flows_to_pcap(synth_flows(n_flows, n_classes=3, seed=seed), pcap)
    assert run("ingest", "--pcap", str(pcap), "--out", str(out), *flags) == 0
    return out


def test_wordpiece_vocab_sizes_its_serializer_from_the_widest_flow(tmp_path, capsys):
    """--j 1200 makes a 608-token packet, wider than tokenize's default max_tokens=512."""
    flows, vocab = ingest_synth(tmp_path, "flows", 12, 5), tmp_path / "v.tsv"
    capsys.readouterr()
    assert run("build-vocab", "--flows", str(flows), "--out", str(vocab), "--j", "1200") == 0
    echoed = capsys.readouterr().out
    assert "j=1200\n" in echoed and "max_tokens=" not in echoed
    assert vocab.exists()


# SHA-256 of corpora as tokenize wrote them one flow and one line at a time, so a change to the id
# matrix or the chunk text that moves one byte fails here.
CUT_CORPUS_SHA = "eaddd81f195e50e6ca089035a4921dde3183b571eedf920f48a780342fa027e3"
TWO_DIR_CORPUS_SHA = "5b2e4e6d1f1ce3dcc1f5c2ef8be91c64baa0327b86c09b8b4a0fe7e7d01ffdce"


def test_tokenize_with_every_flow_cut_is_pinned(tmp_path, capsys):
    flows, vocab, corpus = ingest_synth(tmp_path, "flows", 24, 5, "--label", "2"), tmp_path / "v", tmp_path / "c.txt"
    assert run("build-vocab", "--out", str(vocab)) == 0
    assert run("tokenize", "--flows", str(flows), "--vocab", str(vocab), "--out", str(corpus),
               "--max-tokens", "40") == 0
    lines = corpus.read_text().splitlines()
    assert len(lines) == 24 and all(line.split()[-1] == "3" and " 2 " not in line + " " for line in lines)
    assert sha256_of(corpus) == {str(corpus): CUT_CORPUS_SHA}


def test_tokenize_of_two_directories_wider_than_a_chunk_is_pinned(tmp_path, capsys):
    labelled = ingest_synth(tmp_path, "labelled", 300, 6, "--label", "4")
    unlabelled = ingest_synth(tmp_path, "unlabelled", 280, 7)
    vocab, corpus = tmp_path / "v.tsv", tmp_path / "c.txt"
    assert run("build-vocab", "--out", str(vocab)) == 0
    assert run("tokenize", "--flows", str(labelled), str(unlabelled), "--vocab", str(vocab),
               "--out", str(corpus)) == 0
    assert "sequences=580\n" in capsys.readouterr().out
    lines = corpus.read_text().splitlines()
    assert all(line.startswith("label:4\t") for line in lines[:300])
    assert not any(line.startswith("label:") for line in lines[300:])
    assert sha256_of(corpus) == {str(corpus): TWO_DIR_CORPUS_SHA}


def test_tokenize_builds_no_token_sequence(tmp_path, monkeypatch, capsys):
    flows, vocab = ingest_synth(tmp_path, "flows", 12, 5, "--label", "1"), tmp_path / "v.tsv"
    build_vocabulary().save(vocab)
    built = []
    init = TokenSequence.__init__
    monkeypatch.setattr(TokenSequence, "__init__", lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    for extra in ((), ("--slice-window", "0.01")):
        assert run("tokenize", "--flows", str(flows), "--vocab", str(vocab), "--out", str(tmp_path / "c.txt"),
                   *extra) == 0
    assert "sequences=12" in capsys.readouterr().out
    assert not built
    TokenSequence(np.zeros(1))  # the counter counts
    assert built == [1]


@pytest.mark.parametrize("max_tokens", ["512", "5000"])
def test_tokenize_one_row_per_chunk_writes_the_same_corpus(tmp_path, monkeypatch, capsys, max_tokens):
    labelled = ingest_synth(tmp_path, "labelled", 9, 8, "--label", "3")
    unlabelled = ingest_synth(tmp_path, "unlabelled", 7, 9)
    vocab = tmp_path / "v.tsv"
    build_vocabulary().save(vocab)
    corpora = []
    for chunk_ids in (tokenization.CHUNK_IDS, 1):
        monkeypatch.setattr(tokenization, "CHUNK_IDS", chunk_ids)
        corpora.append(tmp_path / f"c{chunk_ids}.txt")
        assert run("tokenize", "--flows", str(labelled), str(unlabelled), "--vocab", str(vocab),
                   "--out", str(corpora[-1]), "--max-tokens", max_tokens) == 0
    assert tokenization.chunk_rows(int(max_tokens)) == 1
    assert corpora[0].read_bytes() == corpora[1].read_bytes()
    assert len(corpora[0].read_text().splitlines()) == 16


def test_slicing_with_a_window_wider_than_any_flow_keeps_every_flow(tmp_path, capsys):
    fixture_pcap(tmp_path / "c.pcap", n_flows=4, packets_per_flow=2)
    flows, vocab = tmp_path / "flows", tmp_path / "vocab.tsv"
    assert run("ingest", "--pcap", str(tmp_path / "c.pcap"), "--out", str(flows), "--min-packets", "1") == 0
    assert run("build-vocab", "--out", str(vocab)) == 0
    counts = []
    for extra in ((), ("--slice-window", "1e6")):
        assert run("tokenize", "--flows", str(flows), "--vocab", str(vocab), "--out", str(tmp_path / "c.txt"),
                   *extra) == 0
        counts.append(re.search(r"sequences=(\d+)", capsys.readouterr().out).group(1))
    assert counts == ["4", "4"]


def test_a_slice_window_too_small_to_number_is_data_error(tmp_path, capsys):
    flows, vocab = ingest_synth(tmp_path, "flows", 3, 5, "--label", "1"), tmp_path / "v.tsv"
    build_vocabulary().save(vocab)
    assert run("tokenize", "--flows", str(flows), "--vocab", str(vocab), "--out", str(tmp_path / "c.txt"),
               "--slice-window", "5e-324") == 2
    assert re.search(r"^error: flow 0 \(\w+:\d+ <-> \w+:\d+\): window 5e-324 s is too small$", capsys.readouterr().err,
                     re.M)


# model flags, then a batch size; a run with --init takes the batch size only, as its checkpoint fixes the model
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
               "--out", str(pre_dir), "--seed", "1", "--epochs", "1", *TINY_FLAGS) == 0
    fine_dir = tmp_path / "fine"
    assert run("finetune", "--corpus", str(corpus), "--vocab", str(vocab),
               "--out", str(fine_dir), "--seed", "1", "--epochs", "1",
               "--init", str(pre_dir / "last.ckpt"), "--batch-size", "8") == 0
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


def test_route_trace_creates_the_stats_files_directory(tiny_eval, capsys):
    ckpt, corpus = tiny_eval
    trace, stats = ckpt.parent / "trace" / "t.tsv", ckpt.parent / "nodir" / "s.tsv"
    assert run("route-trace", "--ckpt", str(ckpt), "--data", str(corpus), "--out", str(trace),
               "--stats-out", str(stats)) == 0
    assert trace.read_text().startswith("layer\ttoken\texpert\tprob\n")
    assert stats.read_text().startswith("layer\texpert\tload\tprob\n")


def test_bench_cli_writes_report(pipeline):
    tmp_path, vocab, corpus = pipeline
    run_dir = tmp_path / "run"
    run("finetune", "--corpus", str(corpus), "--vocab", str(vocab), "--out", str(run_dir),
        "--seed", "3", "--epochs", "1", "--base-lr", "1e-3", *TINY_FLAGS)
    report = tmp_path / "bench.tsv"
    assert run("bench", "--ckpt", str(run_dir / "best.ckpt"), "--data", str(corpus), "--batch-sizes", "2,4",
               "--report", str(report)) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == ("model\tbatch_size\tthroughput_seq_per_s\tmean_latency_ms"
                        "\tflops_per_seq\tactive_param_ratio\tpeak_bytes")
    assert len(lines) == 5  # header + 2 models x 2 batch sizes
    for line in lines[1:]:
        fields = line.split("\t")
        assert int(fields[4]) > 0 and int(fields[6]) > 0, line


@pytest.mark.parametrize("sizes,bad", [("0", "0"), ("-4", "-4"), ("2,x", "x"), ("2.5", "2.5")])
def test_bad_bench_batch_sizes_are_data_errors(tiny_eval, capsys, sizes, bad):
    ckpt, corpus = tiny_eval
    assert run("bench", "--ckpt", str(ckpt), "--data", str(corpus), "--batch-sizes", sizes,
               "--report", str(ckpt.parent / "b.tsv")) == 2
    err = capsys.readouterr().err
    assert "--batch-sizes" in err and repr(bad) in err
    assert not (ckpt.parent / "b.tsv").exists()


@pytest.mark.parametrize("command,flag,value", [("route-trace", "--limit", "-2"), ("route-trace", "--limit", "0"),
                                                ("eval", "--batch-size", "0")])
def test_counts_below_one_are_data_errors(tiny_eval, capsys, command, flag, value):
    ckpt, corpus = tiny_eval
    out = ckpt.parent / "out.tsv"
    assert run(command, "--ckpt", str(ckpt), "--data", str(corpus), OUT_FLAG[command], str(out), flag, value) == 2
    assert f"{flag} {value} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value", [("build-vocab", "--min-freq", "-3"),
                                                ("tokenize", "--slice-window", "-5"),
                                                ("tokenize", "--slice-window", "nan")])
def test_out_of_range_flow_flags_are_data_errors_before_any_input_is_read(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out" / "v.tsv"
    extra = () if command == "build-vocab" else ("--vocab", str(tmp_path / "none.tsv"))
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
    assert set(read_flows(out / "train").labels) <= {0, 1}  # relabeled to coarse ids
    assert set(read_flows(out / "test").labels) == {0, 1}


# SHA-256 of each split's flows.tsv and packets.bin as ood wrote them from SessionFlow objects, so a change
# to joining, splitting or relabelling the flow tables that moves one byte fails here.
OOD_PINS = {
    "time": {"train": ("8d720db4e0769d0a5b8a1adb5565eaa2894324c75556d330ae46b2d95ad93a33",
                       "07f71ef5e7e9908668fcb81d9bacd9e3002377be2d013b6990057a79d7e43c42"),
             "test": ("5850de7921524804f4f02468c3fab3c9918667a03c5d885d2dae1adea7195ea1",
                      "0a3363e81950f525cec447adac4845da853e3310f07f7f6606c49c78963f1c4a")},
    "proportion": {"train": ("dbdc6407e724bd879131a4a6664d5f0e896a8e69977fb9062445d629ab18f462",
                             "63bc986c18ae5565a499542829278184557d8374313c8ca09c6e03b3401dae4a"),
                   "test": ("13f00f54f2aaf7c4d5ec9f6a387833d4d4a66abba115080cedab2100f7d31796",
                            "a6a5d8d8c0a9113e43b36bb99a3fc87337e45edb4dbccd63eb5f95e6fd0ca08a")},
    "compose": {"train": ("70d04cf9bbddfb936e88760baf9850fb66d254d28cf1a357c1e12ec2650d84d6",
                          "e4be8b4dea082e475ee97a879d15323a1618cf1a4857c5629ea69ad382eb1493"),
                "test": ("077f1c8ad36db09ce3b6fab5eac0627543adb47de098659aa0532cbfa1bd280f",
                         "cc98ab4d05051e18058b91f8ce05e30079b9cae0b658ad6b0a1b09af113bd09d")},
}


def test_ood_splits_of_two_flow_directories_are_pinned(tmp_path, capsys):
    flows_to_pcap(synth_flows(24, n_classes=3, seed=5), tmp_path / "synth.pcap")
    mixed_link_capture(tmp_path / "mixed.pcap")
    flow_dirs = [str(tmp_path / "flows0"), str(tmp_path / "flows1")]
    assert run("ingest", "--pcap", str(tmp_path / "synth.pcap"), "--out", flow_dirs[0], "--label", "0") == 0
    assert run("ingest", "--pcap", str(tmp_path / "mixed.pcap"), "--out", flow_dirs[1], "--label", "1",
               "--min-packets", "1") == 0
    (tmp_path / "coarse.txt").write_text("0 0\n1 0\n")
    for mode, pins in OOD_PINS.items():
        coarse = [] if mode == "time" else ["--coarse-map", str(tmp_path / "coarse.txt")]
        seed = ["--seed", "3"] if mode == "compose" else []  # the only split that reads a seed
        assert run("ood", "--mode", mode, "--flows", *flow_dirs, "--out", str(tmp_path / mode), *coarse, *seed) == 0
        for split, digests in pins.items():
            assert tuple(hashlib.sha256((tmp_path / mode / split / name).read_bytes()).hexdigest()
                         for name in ("flows.tsv", "packets.bin")) == digests, (mode, split)


_FROM_INIT = ["--corpus", "{corpus}", "--vocab", "{vocab}", "--out", "{out}", "--init", "{ckpt}"]
# (id, argv, exit code, message): each flag or config-file key a run does not read, given its checkpoint's value
# where it has one
UNREAD = [
    ("ood-time-coarse-map", ["ood", "--mode", "time", "--flows", "{flows}", "--out", "{out}", "--coarse-map",
                             "{coarse}"], 1, "error: flag --coarse-map is not read by this run (--mode time)"),
    ("ood-time-seed", ["ood", "--mode", "time", "--flows", "{flows}", "--out", "{out}", "--seed", "3"], 1,
     "error: flag --seed is not read by this run (--mode time)"),
    ("ood-proportion-seed", ["ood", "--mode", "proportion", "--flows", "{flows}", "--out", "{out}", "--coarse-map",
                             "{coarse}", "--seed", "3"], 1,
     "error: flag --seed is not read by this run (--mode proportion)"),
    *((f"full-bigram-{flag[2:]}", ["build-vocab", "--out", "{out}/vocab.tsv", flag, value], 1,
       f"error: flag {flag} is not read by this run (no --flows: full bigram)")
      for flag, value in (("--min-freq", "5"), ("--k", "2"), ("--j", "8"), ("--stride", "1"), ("--max-tokens", "64"),
                          ("--config", "{cfg}"))),
    ("wordpiece-max-tokens", ["build-vocab", "--flows", "{flows}", "--out", "{out}/vocab.tsv", "--max-tokens", "64"],
     1, "error: flag --max-tokens is not read by this run (a vocabulary counts every code of a flow)"),
    ("wordpiece-max-tokens-key", ["build-vocab", "--flows", "{flows}", "--out", "{out}/vocab.tsv", "--config",
                                  "{serializer_cfg}"], 2,
     "error: {serializer_cfg}: key 'max_tokens' is not read by this run (a vocabulary counts every code of a flow)"),
    *((f"{mode}-init-{flag[2:]}", [mode, *_FROM_INIT, flag, value], 1,
       f"error: flag {flag} is not read by this run (the model comes from --init)")
      for mode in ("finetune", "pretrain")
      for flag, value in (("--n-layers", "2"), ("--d-model", "16"), ("--n-heads", "2"), ("--n-experts", "4"),
                          ("--top-k", "2"), ("--ffn-hidden", "32"))),
    *((f"{mode}-init-config-key", [mode, *_FROM_INIT, "--config", "{cfg}"], 2,
       "error: {cfg}: key 'd_model' is not read by this run (the model comes from --init)")
      for mode in ("finetune", "pretrain")),
]


@pytest.mark.parametrize("argv,code,message", [case[1:] for case in UNREAD], ids=[case[0] for case in UNREAD])
def test_a_flag_the_chosen_mode_never_reads_is_usage_error(tmp_path, capsys, argv, code, message):
    """Such a flag or key would be echoed, and its file hashed into the manifest as an input, though unread.
    A flag is a usage error and a config-file key a data error; either way nothing is written."""
    flows = ingest_synth(tmp_path, "flows", 12, 5, "--label", "0")
    (tmp_path / "coarse.txt").write_text("garbage line\n")
    (tmp_path / "model.cfg").write_text("epochs=1\nd_model=16\n")
    (tmp_path / "serializer.cfg").write_text("k=3\nmax_tokens=64\n")
    TrafficModel(tiny_config(vocab_size=6), seed=0).save(tmp_path / "m.ckpt")
    save_six_entry_vocab(tmp_path / "vocab.tsv")
    (tmp_path / "c.txt").write_text(f"label:0\t{SIX_ID_ROW}\nlabel:1\t{SIX_ID_ROW}\n")
    paths = {"flows": flows, "out": tmp_path / "out", "coarse": tmp_path / "coarse.txt", "cfg": tmp_path / "model.cfg",
             "ckpt": tmp_path / "m.ckpt", "vocab": tmp_path / "vocab.tsv", "corpus": tmp_path / "c.txt",
             "serializer_cfg": tmp_path / "serializer.cfg"}
    capsys.readouterr()
    assert run(*(arg.format(**paths) for arg in argv)) == code
    captured = capsys.readouterr()
    assert message.format(**paths) in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_finetune_init_records_the_checkpoint_model(tmp_path, capsys):
    """The model keys a run echoes and records are those of the model that trained: with --init, its checkpoint's."""
    ckpt, vocab, corpus = tmp_path / "m.ckpt", tmp_path / "vocab.tsv", tmp_path / "c.txt"
    TrafficModel(tiny_config(vocab_size=6, n_layers=1, n_experts=2), seed=0).save(ckpt)
    save_six_entry_vocab(vocab)
    corpus.write_text("".join(f"label:{i % 2}\t{SIX_ID_ROW}\n" for i in range(4)))
    assert run("finetune", "--corpus", str(corpus), "--vocab", str(vocab), "--out", str(tmp_path / "run"),
               "--init", str(ckpt), "--epochs", "1") == 0
    echoed = capsys.readouterr().out.splitlines()
    record = (tmp_path / "run" / "manifest.log").read_text().splitlines()
    model = {"n_layers": 1, "d_model": 16, "n_heads": 2, "n_experts": 2, "top_k": 2, "ffn_hidden": 32, "num_classes": 2}
    for key, value in model.items():
        assert f"{key}={value}" in echoed and f"config.{key}={value}" in record, key


def test_build_vocab_offers_no_vocab_mode_and_full_bigram_echoes_what_it_read(tmp_path, capsys):
    """--flows picks the vocabulary: with them, wordpiece; without, the full bigram set, which reads no flag."""
    assert run("build-vocab", "--help") == 0
    text = capsys.readouterr().out
    assert "--flows" in text and "--vocab-mode" not in text
    assert run("build-vocab", "--out", str(tmp_path / "v.tsv"), "--vocab-mode", "wordpiece") == 1
    assert not (tmp_path / "v.tsv").exists()
    capsys.readouterr()
    assert run("build-vocab", "--out", str(tmp_path / "v.tsv")) == 0
    assert capsys.readouterr().out == "vocab_mode=full_bigram\nvocab_size=65541\n"
    record = (tmp_path / "manifest.log").read_text().splitlines()
    assert [line for line in record if line.startswith(("config.", "input."))] == ["config.vocab_mode=full_bigram"]


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


@pytest.mark.parametrize("seed", [0, 3, 4, 5])  # seeds at which every bad label lands in the test split
def test_ood_bad_label_only_in_the_test_split_writes_neither_split(tmp_path, capsys, seed):
    for label, n_flows in enumerate((4, 4, 4, 1)):
        fixture_pcap(tmp_path / f"c{label}.pcap", n_flows=n_flows, packets_per_flow=4, seed=label)
        assert run("ingest", "--pcap", str(tmp_path / f"c{label}.pcap"), "--out", str(tmp_path / f"flows{label}"),
                   "--label", str(label)) == 0
    coarse_map = tmp_path / "coarse.txt"
    coarse_map.write_text("0 0\n1 0\n2 3000000000\n3 3000000000\n")
    assert run("ood", "--mode", "compose", "--flows", *(str(tmp_path / f"flows{l}") for l in range(4)),
               "--out", str(tmp_path / "ood"), "--coarse-map", str(coarse_map), "--seed", str(seed)) == 2
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
    assert run("bench", "--ckpt", str(ckpt), "--data", str(corpus), "--batch-sizes", "1",
               "--report", str(out / "bench.tsv")) == 0
    assert manifest_inputs(out) == sha256_of(ckpt, f"{ckpt}.config", corpus)
    assert f"config.data={corpus}\n" in (out / "manifest.log").read_text().split("---\n")[-2]


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


# Every command that reads a seed, as argv templates over the paths of seed_run_paths
SEED_RUNS = {
    "pretrain": ["pretrain", "--corpus", "{corpus}", "--vocab", "{vocab}", "--out", "{out}", "--epochs", "1",
                 *TINY_FLAGS],
    "finetune": ["finetune", *_FROM_INIT, "--epochs", "1"],
    "bench": ["bench", "--ckpt", "{ckpt}", "--data", "{corpus}", "--batch-sizes", "2", "--report", "{out}/b.tsv"],
    "ood": ["ood", "--mode", "compose", "--flows", "{flows0}", "{flows1}", "--coarse-map", "{coarse}", "--out",
            "{out}"],
}


def seed_run_paths(tmp_path: Path) -> dict:
    """Inputs every SEED_RUNS command accepts: a six-id vocabulary, a checkpoint over it, a labelled corpus, two
    labelled flow directories and a coarse map of their labels; ``out`` does not exist yet."""
    TrafficModel(tiny_config(vocab_size=6), seed=0).save(tmp_path / "m.ckpt")
    save_six_entry_vocab(tmp_path / "vocab.tsv")
    (tmp_path / "c.txt").write_text("".join(f"label:{i % 2}\t{SIX_ID_ROW}\n" for i in range(4)))
    (tmp_path / "coarse.txt").write_text("0 0\n1 0\n")
    return {"ckpt": tmp_path / "m.ckpt", "vocab": tmp_path / "vocab.tsv", "corpus": tmp_path / "c.txt",
            "coarse": tmp_path / "coarse.txt", "out": tmp_path / "out",
            "flows0": ingest_synth(tmp_path, "flows0", 12, 5, "--label", "0"),
            "flows1": ingest_synth(tmp_path, "flows1", 12, 6, "--label", "1")}


def seed_lines(lines: list[str]) -> list[str]:
    return [line for line in lines if re.match(r"(config\.)?seed=", line)]


def test_seed_env_override(tmp_path, monkeypatch, capsys):
    """A command that reads a seed takes TRAFFICMOE_SEED when no --seed is given, echoes it and records it once,
    as config.seed; --seed, where the command has it, wins."""
    paths = seed_run_paths(tmp_path)
    monkeypatch.setenv("TRAFFICMOE_SEED", "777")
    for command, argv in SEED_RUNS.items():
        for flag, seed in [([], "777")] + ([(["--seed", "3"], "3")] if command != "bench" else []):
            paths["out"] = tmp_path / f"{command}{seed}"
            capsys.readouterr()
            assert run(*(arg.format(**paths) for arg in argv), *flag) == 0, command
            assert seed_lines(capsys.readouterr().out.splitlines()) == [f"seed={seed}"], command
            record = (paths["out"] / "manifest.log").read_text().splitlines()
            assert seed_lines(record) == [f"config.seed={seed}"], command


def test_a_command_that_reads_no_seed_ignores_trafficmoe_seed(tmp_path, monkeypatch, capsys):
    """ingest reads no seed: a TRAFFICMOE_SEED that is not an integer does not stop it, and no seed is echoed or
    recorded."""
    monkeypatch.setenv("TRAFFICMOE_SEED", "abc")
    fixture_pcap(tmp_path / "f.pcap", n_flows=4, packets_per_flow=4)
    assert run("ingest", "--pcap", str(tmp_path / "f.pcap"), "--out", str(tmp_path / "flows")) == 0
    assert seed_lines(capsys.readouterr().out.splitlines()) == []
    assert seed_lines((tmp_path / "flows" / "manifest.log").read_text().splitlines()) == []


# -- the run record of every command ------------------------------------------------------------

# (run directory, argv): every command that writes a run record, on one fixture, in pipeline order
RECORDED_RUNS = [
    ("flows0", ["ingest", "--pcap", "c0.pcap", "--out", "flows0", "--label", "0"]),
    ("flows1", ["ingest", "--pcap", "c1.pcap", "--out", "flows1", "--label", "1"]),
    ("vocab", ["build-vocab", "--flows", "flows0", "flows1", "--out", "vocab/v.tsv"]),
    ("corpus", ["tokenize", "--flows", "flows0", "flows1", "--vocab", "vocab/v.tsv", "--out", "corpus/c.txt",
                "--k", "4", "--j", "12", "--max-tokens", "64"]),
    ("pre", ["pretrain", "--corpus", "corpus/c.txt", "--vocab", "vocab/v.tsv", "--out", "pre", "--seed", "1",
             "--epochs", "1", *TINY_FLAGS]),
    ("fine", ["finetune", "--corpus", "corpus/c.txt", "--vocab", "vocab/v.tsv", "--out", "fine", "--epochs", "2",
              "--init", "pre/last.ckpt", "--batch-size", "8"]),
    ("eval", ["eval", "--ckpt", "fine/best.ckpt", "--data", "corpus/c.txt", "--metrics-out", "eval/m.tsv"]),
    ("bench", ["bench", "--ckpt", "fine/best.ckpt", "--data", "corpus/c.txt", "--batch-sizes", "4",
               "--report", "bench/b.tsv"]),
    ("trace", ["route-trace", "--ckpt", "fine/best.ckpt", "--data", "corpus/c.txt", "--out", "trace/t.tsv",
               "--limit", "3"]),
    ("ood", ["ood", "--mode", "time", "--flows", "flows0", "flows1", "--out", "ood"]),
]

RECORDED_TRANSCRIPT = """\
$ ingest --pcap c0.pcap --out flows0 --label 0
label=0
min_packets=3
pcap=c0.pcap
packets=40 flows=10
command=ingest
version=0.1.0
input.c0.pcap=f5998180528df56f817083e32a3e333fd4b96ec1e59d6c0b71b4584693da492a
$ ingest --pcap c1.pcap --out flows1 --label 1
label=1
min_packets=3
pcap=c1.pcap
packets=40 flows=10
command=ingest
version=0.1.0
input.c1.pcap=31aac7efa5b5d3b7484124e2f872d0e6b10cd1ed4aafcbc1c48fd3f3d043d8fb
$ build-vocab --flows flows0 flows1 --out vocab/v.tsv
j=40
k=10
min_freq=1
stride=2
vocab_mode=wordpiece
vocab_size=490
command=build-vocab
version=0.1.0
input.flows0/packets.bin=82300b7f1262e25171ed30a9e7a42aa0384d2d1f75f688f7bd253fa766864079
input.flows1/packets.bin=40a3b8a7c0a726bed694ce10ea96121e21dd0b8da806f845ce2057ceabc41799
$ tokenize --flows flows0 flows1 --vocab vocab/v.tsv --out corpus/c.txt --k 4 --j 12 --max-tokens 64
j=12
k=4
max_tokens=64
slice_window=0.0
stride=2
sequences=20
command=tokenize
version=0.1.0
input.vocab/v.tsv=a1dbdf9b47084eb4740fc8cf106a62dcb02e03bb529568e198729e5d00750626
input.flows0/packets.bin=82300b7f1262e25171ed30a9e7a42aa0384d2d1f75f688f7bd253fa766864079
input.flows1/packets.bin=40a3b8a7c0a726bed694ce10ea96121e21dd0b8da806f845ce2057ceabc41799
$ pretrain --corpus corpus/c.txt --vocab vocab/v.tsv --out pre --seed 1 --epochs 1 --d-model 16 --n-layers 1 --n-heads 2 --n-experts 4 --top-k 2 --ffn-hidden 32 --batch-size 8
aux_weight=0.02
base_lr=0.0003
batch_size=8
corpus=corpus/c.txt
d_model=16
epochs=1
ffn_hidden=32
mode=pretrain
n_experts=4
n_heads=2
n_layers=1
seed=1
top_k=2
vocab=vocab/v.tsv
weight_decay=0.01
epochs_run=1 last_ntp_loss=6.20229
command=pretrain
version=0.1.0
input.corpus/c.txt=d73b12a39fa7122689811c45130315e8a57ae720ddbd1ab537e7c35ef0dc7190
input.vocab/v.tsv=a1dbdf9b47084eb4740fc8cf106a62dcb02e03bb529568e198729e5d00750626
$ finetune --corpus corpus/c.txt --vocab vocab/v.tsv --out fine --epochs 2 --init pre/last.ckpt --batch-size 8
aux_weight=0.02
base_lr=5e-05
batch_size=8
corpus=corpus/c.txt
d_model=16
epochs=2
ffn_hidden=32
llrd_decay=0.9
mode=finetune
n_experts=4
n_heads=2
n_layers=1
num_classes=2
patience=5
seed=4
top_k=2
vocab=vocab/v.tsv
weight_decay=0.01
epochs_run=2 last_cls_loss=0.693199
command=finetune
version=0.1.0
input.corpus/c.txt=d73b12a39fa7122689811c45130315e8a57ae720ddbd1ab537e7c35ef0dc7190
input.vocab/v.tsv=a1dbdf9b47084eb4740fc8cf106a62dcb02e03bb529568e198729e5d00750626
input.pre/last.ckpt=*
input.pre/last.ckpt.config=e0dc76749ccf573a5382d805b8bd20bf1067a0c0c9d9158ee1d2bd923ce93379
$ eval --ckpt fine/best.ckpt --data corpus/c.txt --metrics-out eval/m.tsv
batch_size=32
ckpt=fine/best.ckpt
data=corpus/c.txt
accuracy=0.5 macro_f1=0.333333
command=eval
version=0.1.0
input.fine/best.ckpt=*
input.fine/best.ckpt.config=c87240ad85c7a26c12494de75c5969991fba08383b0b4d2cd8200ae40b1db780
input.corpus/c.txt=d73b12a39fa7122689811c45130315e8a57ae720ddbd1ab537e7c35ef0dc7190
$ bench --ckpt fine/best.ckpt --data corpus/c.txt --batch-sizes 4 --report bench/b.tsv
batch_sizes=4
ckpt=fine/best.ckpt
data=corpus/c.txt
seed=4
moe batch=4 throughput=*/s latency=*ms
dense batch=4 throughput=*/s latency=*ms
command=bench
version=0.1.0
input.fine/best.ckpt=*
input.fine/best.ckpt.config=c87240ad85c7a26c12494de75c5969991fba08383b0b4d2cd8200ae40b1db780
input.corpus/c.txt=d73b12a39fa7122689811c45130315e8a57ae720ddbd1ab537e7c35ef0dc7190
$ route-trace --ckpt fine/best.ckpt --data corpus/c.txt --out trace/t.tsv --limit 3
ckpt=fine/best.ckpt
data=corpus/c.txt
limit=3
traced_sequences=3 layers=1
command=route-trace
version=0.1.0
input.fine/best.ckpt=*
input.fine/best.ckpt.config=c87240ad85c7a26c12494de75c5969991fba08383b0b4d2cd8200ae40b1db780
input.corpus/c.txt=d73b12a39fa7122689811c45130315e8a57ae720ddbd1ab537e7c35ef0dc7190
$ ood --mode time --flows flows0 flows1 --out ood
mode=time
train_flows=8 test_flows=8
command=ood
version=0.1.0
input.flows0/packets.bin=82300b7f1262e25171ed30a9e7a42aa0384d2d1f75f688f7bd253fa766864079
input.flows1/packets.bin=40a3b8a7c0a726bed694ce10ea96121e21dd0b8da806f845ce2057ceabc41799
"""


def test_every_command_echoes_and_records_a_pinned_run(tmp_path, monkeypatch, capsys):
    """Each command's stdout and manifest.log record on a fixed fixture. The record's config lines must be the
    echoed config, and its blas_threads line the process's BLAS thread count; they, wall_seconds, bench's timings
    and the hashes of trained checkpoints (their last bits move with the BLAS thread count) are left out of the
    pinned text."""
    monkeypatch.chdir(tmp_path)  # relative paths keep the temporary directory's name out of the text
    monkeypatch.setenv("TRAFFICMOE_SEED", "4")
    for label in (0, 1):
        fixture_pcap(tmp_path / f"c{label}.pcap", n_flows=10, packets_per_flow=4, seed=label)
    transcript = []
    for run_dir, argv in RECORDED_RUNS:
        assert run(*argv) == 0, argv
        stdout = re.sub(r"(throughput|latency)=[0-9.]+", r"\1=*", capsys.readouterr().out)
        record = (tmp_path / run_dir / "manifest.log").read_text().split("---\n")[-2].splitlines()
        config = [line[len("config."):] for line in record if line.startswith("config.")]
        assert stdout.startswith("".join(line + "\n" for line in config)), argv
        assert f"blas_threads={T.blas_thread_count() or 'unknown'}" in record, argv
        transcript += ["$ " + " ".join(argv), stdout.rstrip("\n")]
        transcript += [re.sub(r"\.ckpt=\w+$", ".ckpt=*", line) for line in record
                       if not line.startswith(("config.", "wall_seconds=", "blas_threads="))]
    assert "\n".join(transcript) + "\n" == RECORDED_TRANSCRIPT


def test_seed_env_that_is_not_an_integer_is_data_error_before_any_work(tmp_path, monkeypatch, capsys):
    """A seed that is not an integer >= 0, from TRAFFICMOE_SEED or --seed, is a data error naming its source."""
    paths = seed_run_paths(tmp_path)
    cases = [("abc", [], "TRAFFICMOE_SEED='abc' is not an integer"),
             ("-3", [], "TRAFFICMOE_SEED='-3' is not an integer >= 0"),
             ("0", ["--seed", "-1"], "--seed -1 is not an integer >= 0")]
    for env, flag, message in cases:
        monkeypatch.setenv("TRAFFICMOE_SEED", env)
        for command, argv in SEED_RUNS.items():
            if flag and command == "bench":  # bench has no --seed
                continue
            capsys.readouterr()
            assert run(*(arg.format(**paths) for arg in argv), *flag) == 2, (command, message)
            captured = capsys.readouterr()
            assert message in captured.err and captured.out == "", (command, captured.err)
            assert not paths["out"].exists(), (command, message)


def test_selftest_command(capsys):
    assert run("selftest") == 0
    out = capsys.readouterr().out
    for name in ("artifact_formats", "model_contracts", "sharded_forward"):
        assert f"[  ok] {name}: " in out


def test_a_failing_selftest_check_exits_2_and_the_later_checks_still_run(monkeypatch, capsys):
    def lost_labels(path):
        return [dataclasses.replace(seq, label=None) for seq in tokenization.read_corpus(path)]

    monkeypatch.setattr(selftest, "read_corpus", lost_labels)
    assert run("selftest") == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[FAIL] artifact_formats: AssertionError: corpus: labels"
    assert [line.split(":")[0] for line in lines[1:]] == ["[  ok] model_contracts", "[  ok] sharded_forward"]


def test_selftest_as_an_installed_machine_runs_it(tmp_path):
    """From an empty directory, with only the package on the path and OpenBLAS at one thread: its temporary
    files (TMPDIR points there too) are gone when it exits."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"), "OPENBLAS_NUM_THREADS": "1",
           "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, "-m", "trafficmoe", "selftest"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("[  ok] ") == 3 and proc.stderr == ""
    assert list(tmp_path.iterdir()) == []


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
    write_flows_ref([RecordFlow(FiveTuple(bytes(4), 1, bytes(4), 2, 6), [], 0)], tmp_path / "flows")
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
    write_corpus([TokenSequence(ids, label=i % 2) for i in range(4)], corpus)
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
    write_corpus([TokenSequence(ids, label=5)], corpus)
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


def test_ood_coarse_map_that_repeats_a_fine_label_is_data_error(tmp_path, capsys):
    """The repeat is refused, not silently overridden by its later line."""
    flow_dirs = [str(ingest_synth(tmp_path, f"flows{label}", 6, label, "--label", str(label))) for label in range(4)]
    (tmp_path / "map.txt").write_text("0 0\n1 0\n2 1\n3 1\n0 1\n")
    for mode in ("proportion", "compose"):
        capsys.readouterr()
        assert run("ood", "--mode", mode, "--flows", *flow_dirs, "--out", str(tmp_path / "ood"),
                   "--coarse-map", str(tmp_path / "map.txt")) == 2, mode
        assert "map.txt:5: fine label 0 repeats line 1" in capsys.readouterr().err, mode
    assert not (tmp_path / "ood").exists()


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
    write_flows(FlowTable.of([]), tmp_path / "flows")
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
    write_flows(FlowTable.of([]), tmp_path / "flows")
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
    flags = ("--init", str(ckpt)) if command == "finetune" else TINY_FLAGS
    assert run(command, "--corpus", str(corpus), "--vocab", str(vocab), "--out", str(tmp_path / "run"), *flags) == 2
    assert message.format(corpus=corpus, vocab=vocab, ckpt=ckpt) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["eval", "route-trace", "bench"])
def test_corpus_ids_beyond_checkpoint_vocab_are_data_error_before_any_write(tiny_eval, tmp_path, capsys, command):
    ckpt, corpus = tiny_eval  # checkpoint vocab_size=64
    ids = np.arange(59, 71)
    write_corpus([TokenSequence(ids, label=i % 2) for i in range(2)], corpus)
    out = tmp_path / "out" / "o.tsv"
    assert run(command, "--ckpt", str(ckpt), "--data", str(corpus), OUT_FLAG[command], str(out)) == 2
    assert f"corpus {corpus} holds token id 70, but checkpoint {ckpt} has 64 ids" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["finetune", "pretrain", "eval", "route-trace", "bench"])
def test_corpus_wider_than_checkpoint_max_tokens_is_data_error(tiny_eval, tmp_path, capsys, command):
    ckpt, corpus = tiny_eval
    TrafficModel(tiny_config(vocab_size=6), seed=0).save(ckpt)  # max_tokens=12
    ids = np.arange(40) % 6
    write_corpus([TokenSequence(ids, label=i % 2) for i in range(4)], corpus)
    out = tmp_path / "out" / "o.tsv"
    if command in ("finetune", "pretrain"):
        save_six_entry_vocab(tmp_path / "vocab.tsv")
        args = ("--corpus", str(corpus), "--vocab", str(tmp_path / "vocab.tsv"), "--init", str(ckpt),
                "--out", str(out.parent))
    else:
        args = ("--ckpt", str(ckpt), "--data", str(corpus), OUT_FLAG[command], str(out))
    assert run(command, *args) == 2
    err = capsys.readouterr().err
    assert f"corpus {corpus} rows are 40 tokens wide, but checkpoint {ckpt} has max_tokens=12" in err
    assert not out.parent.exists()


def test_eval_on_an_empty_corpus_is_data_error(tiny_eval, tmp_path, capsys):
    """eval, and the two other commands that read a corpus through the same loader."""
    ckpt, corpus = tiny_eval
    corpus.write_text("")
    out = tmp_path / "out" / "o.tsv"
    for command in ("eval", "route-trace", "bench"):
        assert run(command, "--ckpt", str(ckpt), "--data", str(corpus), OUT_FLAG[command], str(out)) == 2, command
        assert f"corpus {corpus} is empty" in capsys.readouterr().err, command
        assert not out.parent.exists(), command


SIX_ID_ROW = " ".join(["1", "3", "4", "5", "0", "5"] * 2)  # 12 ids a six-entry vocab holds, none of them [PAD]


def run_on_corpus(command: str, ckpt: Path, corpus: Path, out_dir: Path, *extra) -> int:
    """Run a command that reads ``corpus`` and writes under ``out_dir``; pretrain and finetune get a six-entry vocab."""
    if command in ("pretrain", "finetune"):
        save_six_entry_vocab(out_dir.parent / "vocab.tsv")
        args = ("--corpus", str(corpus), "--vocab", str(out_dir.parent / "vocab.tsv"), "--out", str(out_dir))
    else:
        args = ("--ckpt", str(ckpt), "--data", str(corpus), OUT_FLAG[command], str(out_dir / "o.tsv"))
    return run(command, *args, *extra)


@pytest.mark.parametrize("command,extra", [
    ("eval", ()), ("bench", ("--batch-sizes", "4")), ("route-trace", ()), ("finetune", TINY_FLAGS),
    ("pretrain", TINY_FLAGS),
])
def test_all_pad_corpus_row_is_data_error_naming_its_line(tiny_eval, tmp_path, capsys, command, extra):
    ckpt, corpus = tiny_eval
    corpus.write_text("".join(f"label:{i % 2}\t{SIX_ID_ROW}\n" for i in range(5)) + "label:1\t" + "2 " * 11 + "2\n")
    assert run_on_corpus(command, ckpt, corpus, tmp_path / "out", *extra) == 2
    assert "c.txt:6: every token ID is [PAD]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pretrain_row_with_one_valid_token_is_data_error_naming_its_line(tiny_eval, tmp_path, capsys):
    ckpt, corpus = tiny_eval
    corpus.write_text(f"{SIX_ID_ROW}\n{SIX_ID_ROW}\n1" + " 2" * 11 + "\n")
    assert run_on_corpus("pretrain", ckpt, corpus, tmp_path / "out", *TINY_FLAGS) == 2
    assert "c.txt:3: 1 non-[PAD] token ID, but next-token loss needs 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,extra", [("finetune", TINY_FLAGS), ("eval", ())],
                         ids=["unlabeled-finetune", "unlabeled-eval"])
def test_row_without_one_of_the_models_labels_is_data_error_naming_its_line(tiny_eval, tmp_path, capsys, command,
                                                                             extra):
    ckpt, corpus = tiny_eval
    TrafficModel(tiny_config(vocab_size=6), seed=0).save(ckpt)  # num_classes=2
    corpus.write_text(f"label:0\t{SIX_ID_ROW}\nlabel:1\t{SIX_ID_ROW}\nlabel:0\t{SIX_ID_ROW}\n{SIX_ID_ROW}\n")
    assert run_on_corpus(command, ckpt, corpus, tmp_path / "out", *extra) == 2
    assert "c.txt:4: no label" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_finetune_init_trains_a_head_of_one_class_per_corpus_label(tiny_eval, tmp_path, capsys):
    """--init hands over its backbone, not its class head: a 2-class checkpoint fine-tunes on labels 0-2."""
    ckpt, corpus = tiny_eval
    TrafficModel(tiny_config(vocab_size=6), seed=0).save(ckpt)  # num_classes=2
    corpus.write_text(f"label:0\t{SIX_ID_ROW}\nlabel:1\t{SIX_ID_ROW}\nlabel:0\t{SIX_ID_ROW}\nlabel:2\t{SIX_ID_ROW}\n")
    assert run_on_corpus("finetune", ckpt, corpus, tmp_path / "out", "--init", str(ckpt), "--epochs", "1") == 0
    assert "num_classes=3" in capsys.readouterr().out.splitlines()
    assert T.load_checkpoint(tmp_path / "out" / "last.ckpt")["head.cls.b2"].shape == (3,)


def test_finetune_labels_that_skip_a_class_are_data_error_before_any_output(tmp_path, capsys):
    """A class below the largest label with no row would be a head column no flow trains or scores."""
    save_six_entry_vocab(tmp_path / "vocab.tsv")
    corpus = tmp_path / "sparse.txt"
    corpus.write_text(f"label:0\t{SIX_ID_ROW}\nlabel:5\t{SIX_ID_ROW}\nlabel:0\t{SIX_ID_ROW}\n")
    assert run("finetune", "--corpus", str(corpus), "--vocab", str(tmp_path / "vocab.tsv"), "--out",
               str(tmp_path / "out"), *TINY_FLAGS) == 2
    assert f"error: {corpus}: labels run to 5, but no row has label 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -- one pretrained backbone, a class head per task --------------------------------------


def labelled_corpus(path: Path, n_classes: int, per_class: int = 10) -> Path:
    """``per_class`` rows of each label below ``n_classes``, so that each class has a test row after the split."""
    path.write_text("".join(f"label:{i % n_classes}\t{SIX_ID_ROW}\n" for i in range(n_classes * per_class)))
    return path


def pretrain_tiny(tmp_path: Path, corpus: Path) -> Path:
    """Pretrain a tiny model on ``corpus`` for one epoch with a six-entry vocab; return its run directory."""
    save_six_entry_vocab(tmp_path / "vocab.tsv")
    assert run("pretrain", "--corpus", str(corpus), "--vocab", str(tmp_path / "vocab.tsv"), "--out",
               str(tmp_path / "pre"), "--seed", "1", "--epochs", "1", *TINY_FLAGS) == 0
    return tmp_path / "pre"


def finetune_tiny(tmp_path: Path, corpus: Path, out: str, *extra) -> Path:
    assert run("finetune", "--corpus", str(corpus), "--vocab", str(tmp_path / "vocab.tsv"), "--out",
               str(tmp_path / out), "--epochs", "1", "--init", str(tmp_path / "pre" / "last.ckpt"), *extra) == 0
    return tmp_path / out


def test_a_pretrain_reads_no_labels_and_builds_no_class_head(tmp_path, capsys):
    pre = pretrain_tiny(tmp_path, labelled_corpus(tmp_path / "c.txt", 4))
    assert not [name for name in T.load_checkpoint(pre / "last.ckpt") if name.startswith("head.cls.")]
    assert "num_classes=None" in (pre / "last.ckpt.config").read_text().splitlines()
    assert not [line for line in capsys.readouterr().out.splitlines() if line.startswith("num_classes=")]
    assert "num_classes" not in (pre / "manifest.log").read_text()


def test_one_pretrained_backbone_fine_tunes_for_tasks_of_any_class_count(tmp_path, capsys):
    """Each fine-tune of one pretrain checkpoint scores exactly its own task's classes."""
    pretrain_tiny(tmp_path, labelled_corpus(tmp_path / "c4.txt", 4))
    for n_classes in (2, 4):
        fine = finetune_tiny(tmp_path, labelled_corpus(tmp_path / f"c{n_classes}.txt", n_classes), f"fine{n_classes}")
        rows = [line.split("\t") for line in (fine / "test_metrics.tsv").read_text().splitlines()[1:]]
        assert {cls for metric, cls, _ in rows if metric == "f1"} == {str(c) for c in range(n_classes)}
        assert f"num_classes={n_classes}" in capsys.readouterr().out.splitlines()


def test_finetune_init_starts_from_the_checkpoint_backbone_and_a_head_drawn_from_its_seed(tmp_path, monkeypatch,
                                                                                          capsys):
    corpus = labelled_corpus(tmp_path / "c.txt", 4)
    backbone = T.load_checkpoint(pretrain_tiny(tmp_path, corpus) / "last.ckpt")
    starts, real_train = [], cli.train

    def spy(model, *args, **kwargs):
        starts.append(model.state_copy())  # the parameters before the first step
        return real_train(model, *args, **kwargs)

    monkeypatch.setattr(cli, "train", spy)
    for run_index, seed in enumerate((1, 1, 2)):
        finetune_tiny(tmp_path, corpus, f"fine{run_index}", "--seed", str(seed))
    heads = []
    for state in starts:
        assert {name: array.tobytes() for name, array in state.items() if not name.startswith("head.cls.")} == \
            {name: array.tobytes() for name, array in backbone.items()}
        assert state["head.cls.w2"].shape == (16, 4) and state["head.cls.b2"].shape == (4,)
        heads.append(state["head.cls.w1"].tobytes() + state["head.cls.w2"].tobytes())
    assert heads[0] == heads[1] != heads[2]


@pytest.mark.parametrize("mode", ["pretrain", "finetune"])
def test_num_classes_is_neither_a_training_flag_nor_a_config_key(tmp_path, capsys, mode):
    """The corpus labels size a fine-tune's class head, and a pretrain has none: no flag or key sets it."""
    save_six_entry_vocab(tmp_path / "vocab.tsv")
    (tmp_path / "n.cfg").write_text("num_classes=2\n")
    argv = (mode, "--corpus", str(labelled_corpus(tmp_path / "c.txt", 2)), "--vocab", str(tmp_path / "vocab.tsv"),
            "--out", str(tmp_path / "out"), *TINY_FLAGS)
    assert run(*argv, "--num-classes", "2") == 1
    assert "--num-classes" in capsys.readouterr().err
    assert run(*argv, "--config", str(tmp_path / "n.cfg")) == 2
    assert f"error: {tmp_path / 'n.cfg'}: unknown key 'num_classes'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_of_a_checkpoint_without_a_class_head_names_the_checkpoint(tiny_eval, capsys):
    ckpt, corpus = tiny_eval
    TrafficModel(tiny_config(num_classes=None), seed=0).save(ckpt)
    assert run_eval(ckpt, corpus) == 2
    assert f"error: checkpoint {ckpt} has no class head; fine-tune it first" in capsys.readouterr().err
    assert not (corpus.parent / "metrics.tsv").exists()


def test_config_file_key_the_command_does_not_read_is_data_error(tmp_path, capsys):
    save_six_entry_vocab(tmp_path / "vocab.tsv")
    (tmp_path / "c.txt").write_text(f"{SIX_ID_ROW}\n" * 2)
    (tmp_path / "t.cfg").write_text("epochs=1\nepoch=3\n")  # a typo for epochs
    assert run("pretrain", "--corpus", str(tmp_path / "c.txt"), "--vocab", str(tmp_path / "vocab.tsv"), "--out",
               str(tmp_path / "out"), "--config", str(tmp_path / "t.cfg"), *TINY_FLAGS) == 2
    assert f"{tmp_path / 't.cfg'}: unknown key 'epoch'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_file_line_without_equals_is_data_error(tmp_path, capsys):
    write_flows(FlowTable.of([]), tmp_path / "flows")
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


@pytest.mark.parametrize("flags,message", [
    (("--d-model", "15", "--n-heads", "5"), "d_model=15 / n_heads=5 is odd: rotary embedding needs it even"),
])
def test_a_model_the_backbone_cannot_run_is_data_error_before_any_output(tiny_eval, tmp_path, capsys, flags,
                                                                          message):
    _, corpus = tiny_eval
    save_six_entry_vocab(tmp_path / "vocab.tsv")
    assert run("pretrain", "--corpus", str(corpus), "--vocab", str(tmp_path / "vocab.tsv"), "--out",
               str(tmp_path / "run"), "--n-layers", "1", *flags) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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
    "n-layers", "d-model", "n-heads", "n-experts", "top-k", "ffn-hidden",
    "batch-size", "epochs", "base-lr", "aux-weight", "llrd-decay", "patience", "weight-decay",
]
FINETUNE_ONLY_FLAGS = ["llrd-decay", "patience"]  # pretraining reads neither, so it does not offer them


@pytest.mark.parametrize("mode", ["pretrain", "finetune"])
def test_training_help_offers_flags_with_dataclass_defaults(mode, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")
    assert run(mode, "--help") == 0
    text = capsys.readouterr().out
    model, train = ModelConfig(), TrainConfig(mode=mode)
    unused = FINETUNE_ONLY_FLAGS if mode == "pretrain" else []
    for flag in unused:
        assert f"--{flag}" not in text, flag
    for flag in (f for f in PARENT_TRAINING_FLAGS if f not in unused):
        field = flag.replace("-", "_")
        found = re.search(rf"--{flag} [A-Z_]+\s+{field} \(default (\S+)\)", text)
        assert found, flag
        expected = getattr(model, field) if hasattr(model, field) else getattr(train, field)
        assert found.group(1) == str(expected), flag


def test_every_config_field_is_a_cli_key_or_set_by_code():
    """A field no flag or config-file key reaches and no code sets only ever holds its default."""
    exposed = {*cli._MODEL_KEYS.values(), *cli._TRAIN_KEYS.values(), *cli._SERIALIZER_KEYS.values()}
    set_by_code = {"mode", "seed", "vocab_size", "max_tokens", "num_classes", "ffn_kind", "dense_hidden"}
    for config in (ModelConfig, TrainConfig, SerializerConfig):
        dead = {f.name for f in dataclasses.fields(config)} - exposed - set_by_code
        assert not dead, f"{config.__name__} fields nothing sets: {sorted(dead)}"


# -- the benchmark tracer's wrapped boundaries still exist ------------------------------------


def test_tracer_boundaries_resolve_and_restore():
    tracer = load_perfbench("tracer")

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


@pytest.mark.parametrize("ffn", ["moe", "dense"])
def test_tracer_books_each_boundary_of_a_finetune_step(tmp_path, ffn):
    """perfbench's per-layer calls on one finetune ``train()`` call (B=2 over 4 sequences, so 2 steps), per step,
    for L layers; a graph-building forward runs on the calling thread, where the tracer's one span stack is right."""
    corpus = tmp_path / "c.txt"
    rows = [" ".join(str(5 + (i * 7 + t) % 50) for t in range(n)) + " 2" * (12 - n) for i, n in enumerate((12, 7, 9, 4))]
    corpus.write_text("".join(f"label:{i % 2}\t{row}\n" for i, row in enumerate(rows)))
    model = TrafficModel(tiny_config(), seed=0)
    model = build_dense_variant(model, seed=0) if ffn == "dense" else model
    L, t = model.config.n_layers, load_perfbench("tracer").Tracer()
    try:
        t.install()
        t.op = 0
        train(model, tokenization.read_corpus(corpus), TrainConfig(mode="finetune", batch_size=2, epochs=1, seed=0))
    finally:
        t.op = None
        t.uninstall()
    calls = {name[: -len(".calls")]: n for name, n in t.layer_metrics(n_ops=2).items() if name.endswith(".calls")}
    want = {"model.forward": 1, "model.attention": L, "model.rmsnorm": 2 * L + 1, "training.batch_arrays": 1,
            "tensor.backward": 1, "tensor.adamw_step": 1}
    if ffn == "moe":
        want.update({"model.moe": L, "model.router": L, "model.shared_expert": L, "model.routed_experts": 0})
    else:
        want.update({"model.routed_experts": L, "model.moe": 0})
    assert {name: calls[name] for name in want} == want


# SHA-256 of each workload's inputs at the tiny scale and seed 0 (ingest's corpus is hashed by its check),
# so a change to synth, the capture writer or tokenization that moves one benchmark input byte fails here.
_MODEL_CORPUS = "08aae7309248e3f1730c4b08e272c336aaa3c4c45fcb713462e9c8a5b6be8d16"
WORKLOAD_PINS = {
    "ingest": {"capture_sha256": "e3e04c3db75edf25da81a1356520bce45201029bb7e245f950d570c020bef463",
               "corpus_sha256": "a121fe9a9b0063053563d4538a9fa600bb4531d757ba4868bdd1da3f44817f17"},
    "finetune": {"corpus_sha256": _MODEL_CORPUS},
    "pretrain": {"corpus_sha256": _MODEL_CORPUS},
    "classify": {"corpus_sha256": "84abba8392d4aab093b0549158351a09e11595ba6df3474344fd076a0aa64109"},
}


def test_every_benchmark_workload_runs_and_checks_at_tiny_size(tmp_path):
    workloads = load_perfbench("workloads")
    for name, workload in workloads.WORKLOADS.items():
        w = workload(workloads.PARAMS["tiny"][name], 0, tmp_path / name)
        w.build()
        w.prepare(0)
        assert w.check(0, w.run(0)) == [], name
        assert {key: w.record.get(key) for key in WORKLOAD_PINS[name]} == WORKLOAD_PINS[name], name
