"""Flow serialization into bigram codes and fixed-length token-ID sequences.

Each packet becomes an 11-byte metadata block plus a sampled payload
prefix. A flow becomes one ``int32`` code sequence: the markers have
codes 0-4, and each 2-byte window of a region is one bigram code. A
vocabulary maps codes to dense IDs; hex text appears only in its file.

Wire contract for the 11 metadata bytes (big-endian):

    bytes 0-1   frame length, clamped to 65535
    byte  2     direction (0 forward, 1 backward)
    byte  3     TCP flag bits (0 for non-TCP)
    bytes 4-7   inter-arrival time, round(dt * 1e6) microseconds,
                clamped to 2**32 - 1; 0 for a flow's first packet
    byte  8     IP protocol number
    bytes 9-10  payload length, clamped to 65535
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from .artifacts import write_atomic
from .flows import BACKWARD, FORWARD, PacketRecord, SessionFlow

MARKERS = ("[PD]", "[PY]", "[PAD]", "[END]", "[UNK]")

# Marker IDs are fixed by construction: markers come first in every
# vocabulary, in MARKERS order.
PD_ID, PY_ID, PAD_ID, END_ID, UNK_ID = range(5)

# The window (b[i], b[i+1]) has code BIGRAM_BASE + (b[i] << 8 | b[i+1]).
BIGRAM_BASE = len(MARKERS)
FULL_BIGRAM_VOCAB_SIZE = BIGRAM_BASE + 256 * 256

META_BYTES = 11


@dataclass
class SerializerConfig:
    """Serialization knobs: K packets, J payload bytes, stride, length cap."""

    packets_per_flow: int = 10
    payload_bytes: int = 40
    max_tokens: int = 512
    bigram_stride: int = 2

    def __post_init__(self):
        if self.packets_per_flow < 1:
            raise ValueError("packets_per_flow must be >= 1")
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        if self.bigram_stride not in (1, 2):
            raise ValueError("bigram_stride must be 1 or 2")
        if self.max_tokens < self.tokens_per_packet + 1:
            raise ValueError(
                f"max_tokens={self.max_tokens} cannot hold one packet "
                f"({self.tokens_per_packet} tokens) plus [END]"
            )

    @property
    def tokens_per_packet(self) -> int:
        s = self.bigram_stride
        return 1 + _ceil_div(META_BYTES, s) + 1 + _ceil_div(self.payload_bytes, s)

    @property
    def max_valid_tokens(self) -> int:
        """Upper bound on non-[PAD] tokens a serialized flow can produce."""
        return self.packets_per_flow * self.tokens_per_packet + 1


@dataclass(frozen=True)
class PacketByteRecord:
    """The serialized form of one packet: 11 meta bytes + payload sample."""

    meta: bytes
    payload_sample: bytes

    def __post_init__(self):
        if len(self.meta) != META_BYTES:
            raise ValueError(f"meta must be exactly {META_BYTES} bytes")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def serialize_packet(
    pkt: PacketRecord,
    direction: int,
    prev_timestamp: Optional[float] = None,
    payload_bytes: int = 40,
) -> PacketByteRecord:
    """Encode one packet's six attributes into the fixed 11-byte layout."""
    if prev_timestamp is None:
        iat_us = 0
    else:
        iat_us = int(round(max(pkt.timestamp - prev_timestamp, 0.0) * 1e6))
        iat_us = min(iat_us, 2**32 - 1)
    meta = struct.pack(
        ">HBBIBH",
        min(pkt.total_length, 0xFFFF),
        0 if direction == FORWARD else 1,
        pkt.tcp_flags & 0xFF,
        iat_us,
        pkt.ip_proto & 0xFF,
        min(len(pkt.payload), 0xFFFF),
    )
    return PacketByteRecord(meta=meta, payload_sample=pkt.payload[:payload_bytes])


def _bigram_codes(data: bytes, stride: int) -> list[int]:
    """Codes of one byte region's 2-byte windows at offsets 0, stride, 2*stride, ...; a lone
    trailing byte pairs with 0. Windows never cross regions, because regions are split first."""
    n, padded = len(data), data + b"\x00"
    return [BIGRAM_BASE + (hi << 8 | lo) for hi, lo in zip(padded[:n:stride], padded[1 : n + 1 : stride])]


def serialize_flow(flow: SessionFlow, cfg: SerializerConfig) -> np.ndarray:
    """Serialize a flow into its ``int32`` code sequence.

    The first ``packets_per_flow`` packets each contribute
    ``[PD] <meta bigrams> [PY] <payload bigrams>``; the whole flow is
    terminated by ``[END]``.
    """
    if len(flow) == 0:
        raise ValueError("cannot serialize an empty flow")
    codes: list[int] = []
    prev_ts: Optional[float] = None
    for pkt, direction in flow.packets[: cfg.packets_per_flow]:
        rec = serialize_packet(pkt, direction, prev_ts, cfg.payload_bytes)
        prev_ts = pkt.timestamp
        codes.append(PD_ID)
        codes += _bigram_codes(rec.meta, cfg.bigram_stride)
        codes.append(PY_ID)
        codes += _bigram_codes(rec.payload_sample, cfg.bigram_stride)
    codes.append(END_ID)
    return np.array(codes, dtype=np.int32)


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """Code-to-ID table over all 65,541 codes: markers keep IDs 0-4, kept
    bigrams take the dense IDs after them, and every other bigram maps to [UNK]."""

    table: np.ndarray

    def __len__(self) -> int:
        return int(self.table.max()) + 1

    def save(self, path: str | Path) -> None:
        """Write `token<TAB>id` lines, sorted by id: the markers, then each kept bigram in hex."""
        codes = np.flatnonzero(self.table >= BIGRAM_BASE)
        codes = codes[np.argsort(self.table[codes])].tolist()
        tokens = list(MARKERS) + [f"{code - BIGRAM_BASE:04x}" for code in codes]
        write_atomic(path, (f"{tok}\t{i}\n" for i, tok in enumerate(tokens)))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Read a saved vocabulary. A malformed line, a token that is neither a marker nor four
        lowercase hex digits, or a repeated token raises ValueError naming the file and line."""
        line_of = [0] * FULL_BIGRAM_VOCAB_SIZE  # code -> the line that defined it
        codes, ids = [], []
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            tok, tab, id_txt = line.partition("\t")
            if not (tab and id_txt.isdecimal()):
                if line:
                    raise ValueError(f"{path}:{lineno}: expected token<TAB>id, got {line!r}")
                continue
            if len(tok) == 4 and not tok.strip("0123456789abcdef"):  # four lowercase hex digits
                code = BIGRAM_BASE + int(tok, 16)
            elif tok in MARKERS:
                code = MARKERS.index(tok)
            else:
                raise ValueError(f"{path}:{lineno}: token {tok!r} is neither a marker nor four lowercase hex digits")
            if line_of[code]:
                raise ValueError(f"{path}:{lineno}: token {tok!r} repeats line {line_of[code]}")
            line_of[code] = lineno
            codes.append(code)
            ids.append(int(id_txt))
        if sorted(ids) != list(range(len(ids))):
            raise ValueError(f"{path}: vocabulary ids must be dense in [0, size)")
        table = np.full(FULL_BIGRAM_VOCAB_SIZE, -1, dtype=np.int32)
        table[codes] = ids
        if table[:BIGRAM_BASE].tolist() != list(range(BIGRAM_BASE)):
            raise ValueError(f"{path}: markers {' '.join(MARKERS)} must map to ids 0-4")
        table[table < 0] = UNK_ID
        return cls(table)


def build_vocabulary(
    corpus: Iterable[np.ndarray] | None = None,
    mode: str = "full_bigram",
    min_freq: int = 1,
) -> Vocabulary:
    """Build a bigram vocabulary.

    ``full_bigram`` keeps all 65,536 byte pairs (size 65,541 with markers):
    every code is its own ID, and it needs no corpus. ``wordpiece`` counts
    the bigram codes of a corpus of ``serialize_flow`` outputs and keeps
    those seen at least ``min_freq`` times (a bigram never seen is never
    kept), by descending count, then ascending code; everything else falls
    back to [UNK] at tokenize time.
    """
    if mode == "full_bigram":
        return Vocabulary(np.arange(FULL_BIGRAM_VOCAB_SIZE, dtype=np.int32))
    if mode != "wordpiece":
        raise ValueError(f"unknown vocabulary mode {mode!r}")
    flows = list(corpus or ())
    if not flows:
        raise ValueError("wordpiece mode requires a non-empty corpus")
    counts = np.bincount(np.concatenate(flows), minlength=FULL_BIGRAM_VOCAB_SIZE)
    counts[:BIGRAM_BASE] = 0
    kept = np.flatnonzero(counts >= max(min_freq, 1))
    kept = kept[np.argsort(-counts[kept], kind="stable")]
    table = np.full(FULL_BIGRAM_VOCAB_SIZE, UNK_ID, dtype=np.int32)
    table[:BIGRAM_BASE] = np.arange(BIGRAM_BASE)
    table[kept] = np.arange(BIGRAM_BASE, BIGRAM_BASE + kept.size)
    return Vocabulary(table)


@dataclass
class TokenSequence:
    """Fixed-length ID sequence with a validity mask over non-[PAD] slots."""

    ids: np.ndarray
    valid_mask: np.ndarray
    label: Optional[int] = None

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int32)
        self.valid_mask = np.asarray(self.valid_mask, dtype=bool)
        if self.ids.shape != self.valid_mask.shape:
            raise ValueError("ids and valid_mask must have matching shape")

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @property
    def n_valid(self) -> int:
        return int(self.valid_mask.sum())


def tokenize(
    codes: np.ndarray,
    vocab: Vocabulary,
    max_tokens: int,
    label: Optional[int] = None,
) -> TokenSequence:
    """Map a flow's code sequence to a fixed-length ID sequence.

    Bigrams outside the vocabulary become [UNK]. Overlong sequences are
    cut to ``max_tokens`` with the final kept slot rewritten to [END];
    short ones are padded with [PAD].
    """
    n_valid = min(len(codes), max_tokens)
    ids = np.full(max_tokens, PAD_ID, dtype=np.int32)
    ids[:n_valid] = vocab.table[codes[:n_valid]]
    if len(codes) > max_tokens:
        ids[-1] = END_ID
    return TokenSequence(ids=ids, valid_mask=np.arange(max_tokens) < n_valid, label=label)


def temporal_slice(
    flow: SessionFlow,
    window_seconds: float = 15.0,
    min_packets: int = 3,
) -> list[SessionFlow]:
    """Cut one flow into fixed-duration sub-flows inheriting its label.

    Packets are binned into half-open windows [t0 + i*w, t0 + (i+1)*w);
    empty windows vanish; sub-flows smaller than ``min_packets`` are
    dropped (``min_packets=1`` keeps them all). Directions are re-derived
    relative to each sub-flow's first packet.
    """
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    t0 = flow.packets[0][0].timestamp
    bins: dict[int, list[PacketRecord]] = {}
    for pkt, _ in flow.packets:
        bins.setdefault(int((pkt.timestamp - t0) // window_seconds), []).append(pkt)
    out = []
    for idx in sorted(bins):
        pkts = bins[idx]
        if len(pkts) < min_packets:
            continue
        origin = (pkts[0].src_ip, pkts[0].src_port)
        pairs = [
            (p, FORWARD if (p.src_ip, p.src_port) == origin else BACKWARD) for p in pkts
        ]
        out.append(SessionFlow(key=flow.key, packets=pairs, label=flow.label))
    return out


# --- corpus files: one sequence per line, space-separated IDs, optional
# --- `label:<int><TAB>` prefix.


def write_corpus(sequences: Iterable[TokenSequence], path: str | Path) -> None:
    write_atomic(path, (
        (f"label:{seq.label}\t" if seq.label is not None else "") + " ".join(map(str, seq.ids.tolist())) + "\n"
        for seq in sequences
    ))


def read_corpus(path: str | Path) -> list[TokenSequence]:
    return list(iter_corpus(path))


def iter_corpus(path: str | Path) -> Iterator[TokenSequence]:
    """Stream the sequences of a corpus file, one per non-empty line. A label or token ID that
    is not an integer in [0, 2**31), a line with no IDs, or one whose ID count differs from the
    first line's raises ValueError naming the file and line."""
    first = None  # (lineno, id count) of the first sequence
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            label: Optional[int] = None
            try:
                if line.startswith("label:"):
                    head, line = line.split("\t", 1)
                    label = int(np.int32(head[len("label:") :]))
                ids = np.array([int(tok) for tok in line.split()], dtype=np.int32)
                if min(ids.min(initial=0), label or 0) < 0:
                    raise ValueError("labels and token IDs must be >= 0")
                if not ids.size:
                    raise ValueError("no token IDs")
                first = first or (lineno, ids.size)
                if ids.size != first[1]:
                    raise ValueError(f"{ids.size} token IDs, but line {first[0]} has {first[1]}")
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield TokenSequence(ids=ids, valid_mask=ids != PAD_ID, label=label)
