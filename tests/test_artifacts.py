"""The artifact layer: atomic writes, key=value parsing, and every reader under fuzzing.

Each fuzz test starts from a valid file and truncates it, flips bytes in it
or appends bytes to it, so most examples get past the magic. Any input must
either parse or raise ValueError (CaptureError is one); never struct.error,
IndexError, OverflowError, ZeroDivisionError, TypeError or MemoryError.
"""

import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from trafficmoe import tensor as T
from trafficmoe.artifacts import parse_kv, write_atomic
from trafficmoe.flows import FlowTable, read_flows, write_flows
from trafficmoe.model import ModelConfig, TrafficModel
from trafficmoe.synth import synth_flows
from trafficmoe.tokenization import TokenSequence, Vocabulary, build_vocabulary, read_corpus, write_corpus

FUZZ = settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
DELIMITER = rb"[=\t :\n]"
FIELD = st.one_of(
    st.integers(-2, 2), st.integers(-(2**40), 2**40), st.text(alphabet="0123456789-x", max_size=12)
).map(str)
BYTE = st.one_of(st.sampled_from(list(b"\x00\x01\x7f\x80\xff0-=\t\n")), st.integers(0, 255))


def damage(blob: bytes, draw) -> bytes:
    """``blob`` with one kind of damage: up to three fields between delimiters
    rewritten, up to three bytes overwritten, a cut, or up to eight bytes appended."""
    kind = draw(st.sampled_from(["fields", "bytes", "cut", "append"]))
    if kind == "fields":
        parts = re.split(b"(" + DELIMITER + b")", blob)
        for i in draw(st.lists(st.sampled_from(range(0, len(parts), 2)), min_size=1, max_size=3)):
            parts[i] = draw(FIELD).encode()
        return b"".join(parts)
    if kind == "bytes":
        data = bytearray(blob)
        for i in draw(st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=3)):
            data[i] = draw(BYTE)
        return bytes(data)
    if kind == "cut":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    return blob + bytes(draw(st.lists(BYTE, min_size=1, max_size=8)))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# -- write_atomic ---------------------------------------------------------------------


def test_write_atomic_replaces_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "a.bin"
    write_atomic(path, b"old")
    write_atomic(path, "new text")
    assert path.read_text() == "new text"
    assert os.listdir(tmp_path) == ["a.bin"]


def _failing_replace(src, dst):
    raise OSError("disk gone")


@pytest.mark.parametrize("writer", ["model", "flows", "corpus"])
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, writer):
    if writer == "model":
        write = lambda seed: TrafficModel(tiny_config(), seed=seed).save(tmp_path / "m.ckpt")
    elif writer == "flows":
        write = lambda seed: write_flows(FlowTable.of(synth_flows(3, 2, seed=seed)), tmp_path)
    else:
        ids = np.arange(1, 13)
        write = lambda seed: write_corpus([TokenSequence(ids + seed, label=seed)], tmp_path / "c.txt")
    write(0)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(os, "replace", _failing_replace)
    with pytest.raises(OSError, match="disk gone"):
        write(1)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# -- key=value ------------------------------------------------------------------------


def test_parse_kv_skips_blank_and_comment_lines():
    text = "# a comment\n\n  d_model = 16 \nn_heads=2\nd_model=32\n"
    assert parse_kv(text, "f.cfg") == {"d_model": "32", "n_heads": "2"}


def test_parse_kv_line_without_equals_names_file_and_line():
    with pytest.raises(ValueError, match=r"f\.cfg:3: .*'batch_size 8'"):
        parse_kv("epochs=1\n\nbatch_size 8\n", "f.cfg")


def test_config_sidecar_errors_name_the_sidecar(tmp_path):
    TrafficModel(tiny_config(), seed=0).save(tmp_path / "m.ckpt")
    sidecar = tmp_path / "m.ckpt.config"
    sidecar.write_text(sidecar.read_text().replace("n_heads=2", "n_heads=3"))
    with pytest.raises(ValueError, match=r"m\.ckpt\.config: d_model=16 not divisible by n_heads=3"):
        TrafficModel.load(tmp_path / "m.ckpt")


# -- fuzzed readers -------------------------------------------------------------------


@pytest.fixture(scope="module")
def valid(fuzz_dir):
    """One small valid file per format, as bytes."""
    rng = np.random.default_rng(0)
    T.save_checkpoint({"w": rng.normal(size=(3, 2)), "b": rng.normal(size=4), "s": np.float32(1.5)}, fuzz_dir / "ckpt")
    write_flows(FlowTable.of(synth_flows(2, 2, seed=1)), fuzz_dir)
    ids = np.array([0, 5, 17, 300, 2, 2])
    write_corpus([TokenSequence(ids, label=1), TokenSequence(ids)], fuzz_dir / "corpus")
    build_vocabulary([np.array([5 + 0x0A0B, 5 + 0x0C0D, 5 + 0x0A0B])], mode="wordpiece").save(fuzz_dir / "vocab")
    TrafficModel(tiny_config(), seed=0).save(fuzz_dir / "m.ckpt")
    names = {"ckpt": "ckpt", "flows": "packets.bin", "corpus": "corpus", "vocab": "vocab", "config": "m.ckpt.config"}
    return {kind: (fuzz_dir / name).read_bytes() for kind, name in names.items()}


def damaged(fuzz_dir: Path, name: str, blob: bytes, data) -> Path:
    path = fuzz_dir / "damaged" / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(damage(blob, data.draw))
    return path


@FUZZ
@given(st.data())
def test_fuzz_load_checkpoint(fuzz_dir, valid, data):
    try:
        arrays = T.load_checkpoint(damaged(fuzz_dir, "m.ckpt", valid["ckpt"], data))
    except ValueError:
        return
    assert all(arr.dtype == np.dtype("<f4") and arr.flags.writeable for arr in arrays.values())


@FUZZ
@given(st.data())
def test_fuzz_read_flows(fuzz_dir, valid, data):
    try:
        flows = read_flows(damaged(fuzz_dir, "packets.bin", valid["flows"], data).parent)
    except ValueError:  # CaptureError is one
        return
    assert flows.counts.all()


@FUZZ
@given(st.data())
def test_fuzz_read_corpus(fuzz_dir, valid, data):
    try:
        sequences = read_corpus(damaged(fuzz_dir, "c.txt", valid["corpus"], data))
    except ValueError:
        return
    assert all(s.ids.dtype == np.int32 and s.ids.min(initial=0) >= 0 and (s.label or 0) >= 0 for s in sequences)


@FUZZ
@given(st.data())
def test_fuzz_vocabulary_load(fuzz_dir, valid, data):
    try:
        Vocabulary.load(damaged(fuzz_dir, "v.tsv", valid["vocab"], data))
    except ValueError:
        pass


@FUZZ
@given(st.data())
def test_fuzz_model_config_sidecar(fuzz_dir, valid, data):
    sidecar = damaged(fuzz_dir, "m.ckpt.config", valid["config"], data)
    try:
        ModelConfig.from_text(sidecar.read_text(), sidecar)
    except ValueError:
        pass
