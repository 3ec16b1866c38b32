"""Flow serialization into hex bigram tokens and token-ID sequences.

Each packet becomes an 11-byte metadata block plus a sampled payload
prefix; flows become marker-delimited bigram streams; a vocabulary maps
bigrams and markers to dense integer IDs.

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
from collections import Counter
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

META_BYTES = 11
FULL_BIGRAM_VOCAB_SIZE = 256 * 256 + len(MARKERS)


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


def region_bigrams(data: bytes, stride: int) -> list[str]:
    """Split one byte region into 2-byte windows at the given stride.

    Windows start at offsets 0, stride, 2*stride, ...; a lone trailing
    byte is zero-padded so every token covers exactly two bytes. Windows
    never cross region boundaries because regions are split first.
    """
    out = []
    for i in range(0, len(data), stride):
        pair = data[i : i + 2]
        if len(pair) == 1:
            pair = pair + b"\x00"
        out.append(pair.hex())
    return out


def serialize_flow(flow: SessionFlow, cfg: SerializerConfig) -> str:
    """Serialize a flow into a space-separated token string.

    The first ``packets_per_flow`` packets each contribute
    ``[PD] <meta bigrams> [PY] <payload bigrams>``; the whole flow is
    terminated by ``[END]``.
    """
    if len(flow) == 0:
        raise ValueError("cannot serialize an empty flow")
    tokens: list[str] = []
    prev_ts: Optional[float] = None
    for pkt, direction in flow.packets[: cfg.packets_per_flow]:
        rec = serialize_packet(pkt, direction, prev_ts, cfg.payload_bytes)
        prev_ts = pkt.timestamp
        tokens.append("[PD]")
        tokens.extend(region_bigrams(rec.meta, cfg.bigram_stride))
        tokens.append("[PY]")
        tokens.extend(region_bigrams(rec.payload_sample, cfg.bigram_stride))
    tokens.append("[END]")
    return " ".join(tokens)


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-ID map: the five markers first, then bigram tokens."""

    token_to_id: dict[str, int]

    def __post_init__(self):
        for i, marker in enumerate(MARKERS):
            if self.token_to_id.get(marker) != i:
                raise ValueError(f"marker {marker} must map to id {i}")
        ids = sorted(self.token_to_id.values())
        if ids != list(range(len(ids))):
            raise ValueError("vocabulary ids must be dense in [0, size)")

    def __len__(self) -> int:
        return len(self.token_to_id)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def save(self, path: str | Path) -> None:
        """Write `token<TAB>id` lines, sorted by id (markers first)."""
        items = sorted(self.token_to_id.items(), key=lambda kv: kv[1])
        write_atomic(path, (f"{tok}\t{i}\n" for tok, i in items))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Read a saved vocabulary; a malformed line raises ValueError naming the file and line."""
        mapping = {}
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            tok, tab, id_txt = line.partition("\t")
            if tab and id_txt.isdecimal():
                mapping[tok] = int(id_txt)
            elif line:
                raise ValueError(f"{path}:{lineno}: expected token<TAB>id, got {line!r}")
        try:
            return cls(mapping)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def build_vocabulary(
    corpus: Iterable[str] | None = None,
    mode: str = "full_bigram",
    min_freq: int = 1,
) -> Vocabulary:
    """Build a bigram vocabulary.

    ``full_bigram`` enumerates all 65,536 byte pairs (size 65,541 with
    markers) and needs no corpus. ``wordpiece`` keeps only bigrams whose
    corpus frequency reaches ``min_freq``; everything else falls back to
    [UNK] at tokenize time.
    """
    mapping = {m: i for i, m in enumerate(MARKERS)}
    if mode == "full_bigram":
        next_id = len(MARKERS)
        for hi in range(256):
            for lo in range(256):
                mapping[f"{hi:02x}{lo:02x}"] = next_id
                next_id += 1
        return Vocabulary(mapping)
    if mode != "wordpiece":
        raise ValueError(f"unknown vocabulary mode {mode!r}")

    counts: Counter[str] = Counter()
    n_flows = 0
    for serialized in corpus or ():
        n_flows += 1
        for token in serialized.split():
            if token not in MARKERS:
                counts[token] += 1
    if n_flows == 0:
        raise ValueError("wordpiece mode requires a non-empty corpus")
    kept = sorted((t for t, c in counts.items() if c >= min_freq), key=lambda t: (-counts[t], t))
    for token in kept:
        mapping[token] = len(mapping)
    return Vocabulary(mapping)


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
    hex_with_markers: str,
    vocab: Vocabulary,
    max_tokens: int,
    label: Optional[int] = None,
) -> TokenSequence:
    """Map a serialized flow to a fixed-length ID sequence.

    Out-of-vocabulary bigrams become [UNK]. Overlong streams are cut to
    ``max_tokens`` with the final kept slot rewritten to [END]; short
    streams are padded with [PAD].
    """
    ids = [vocab.id_of(tok) for tok in hex_with_markers.split()]
    if len(ids) > max_tokens:
        ids = ids[:max_tokens]
        ids[-1] = END_ID
    n_valid = len(ids)
    ids = ids + [PAD_ID] * (max_tokens - n_valid)
    mask = np.zeros(max_tokens, dtype=bool)
    mask[:n_valid] = True
    return TokenSequence(ids=np.array(ids, dtype=np.int32), valid_mask=mask, label=label)


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
