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

import functools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .artifacts import write_atomic
from .flows import FORWARD, PacketRecord, SessionFlow, directed

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


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# The packet attributes the metadata block is built from, as read off each PacketRecord.
_PACKET_FIELDS = np.dtype([("ts", "f8"), ("length", "i8"), ("dir", "i8"), ("flags", "i8"), ("proto", "i8"),
                           ("plen", "i8")])
# One packet's metadata block, in the wire order of the module docstring.
_META = np.dtype([("frame_len", ">u2"), ("direction", "u1"), ("tcp_flags", "u1"), ("iat_us", ">u4"),
                  ("ip_proto", "u1"), ("payload_len", ">u2")])


def _window_codes(regions: np.ndarray, stride: int) -> np.ndarray:
    """Codes of the 2-byte windows at offsets 0, stride, ... of each row of ``regions`` ``[P, n]``
    uint8; a window that starts on a row's last byte pairs it with 0."""
    padded = np.concatenate([regions, np.zeros((len(regions), 1), np.uint8)], axis=1).astype(np.int32)
    return BIGRAM_BASE + (padded[:, :-1:stride] << 8 | padded[:, 1::stride])


def serialize_flows(flows: Sequence[SessionFlow], cfg: SerializerConfig) -> list[np.ndarray]:
    """Serialize flows into their ``int32`` code sequences, one array per flow. The first
    ``packets_per_flow`` packets of a flow each contribute ``[PD] <meta bigrams> [PY] <payload
    bigrams>`` (the payload's first ``payload_bytes`` bytes), and ``[END]`` ends the flow."""
    k, j, stride = cfg.packets_per_flow, cfg.payload_bytes, cfg.bigram_stride
    heads = [f.packets[:k] for f in flows]
    counts = np.array([len(h) for h in heads], dtype=np.int64)
    if not counts.all():
        raise ValueError("cannot serialize an empty flow")
    pairs = [pair for head in heads for pair in head]
    fields = np.fromiter(((p.timestamp, p.total_length, d, p.tcp_flags, p.ip_proto, len(p.payload)) for p, d in pairs),
                         _PACKET_FIELDS, len(pairs))
    firsts = np.cumsum(counts) - counts  # each flow's first packet
    iat_us = np.rint(np.maximum(np.diff(fields["ts"], prepend=0.0), 0.0) * 1e6)
    iat_us[firsts] = 0
    meta = np.zeros(len(pairs), _META)
    for name, column in zip(_META.names, (
        np.minimum(fields["length"], 0xFFFF), fields["dir"] != FORWARD, fields["flags"] & 0xFF,
        np.minimum(iat_us, 2**32 - 1), fields["proto"] & 0xFF, np.minimum(fields["plen"], 0xFFFF),
    )):
        meta[name] = column
    payloads = np.frombuffer(b"".join([p.payload[:j].ljust(j, b"\0") for p, _ in pairs]), np.uint8)

    # One row per packet: [PD] meta [PY] payload, then [END], kept on each flow's last packet only.
    n_meta = _ceil_div(META_BYTES, stride)
    rows = np.empty((len(pairs), n_meta + _ceil_div(j, stride) + 3), dtype=np.int32)
    rows[:, 0], rows[:, n_meta + 1], rows[:, -1] = PD_ID, PY_ID, END_ID
    rows[:, 1 : n_meta + 1] = _window_codes(meta.view(np.uint8).reshape(len(pairs), META_BYTES), stride)
    rows[:, n_meta + 2 : -1] = _window_codes(payloads.reshape(len(pairs), j), stride)
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, n_meta + 2 : -1] = np.arange(0, j, stride) < np.minimum(fields["plen"], j)[:, None]
    keep[:, -1] = False
    keep[firsts + counts - 1, -1] = True
    codes = rows[keep]
    ends = np.cumsum(np.add.reduceat(keep.sum(axis=1), firsts)).tolist()
    return [codes[lo:hi] for lo, hi in zip([0] + ends, ends)]


def serialize_flow(flow: SessionFlow, cfg: SerializerConfig) -> np.ndarray:
    """Serialize one flow into its ``int32`` code sequence (see :func:`serialize_flows`)."""
    return serialize_flows([flow], cfg)[0]


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
        """Read a saved vocabulary with numpy string ops over all its lines at once (each ending at
        LF or CR LF; blank ones skipped). A line without a tab or whose id is not ASCII digits, a
        token that is neither a marker nor four lowercase hex digits, or a repeated token raises
        ValueError naming the file and the first such line."""
        data = Path(path).read_bytes().replace(b"\r\n", b"\n")
        # numpy drops a bytes item's trailing NULs, so NUL becomes a byte that no valid line holds
        lines = np.array(data.replace(b"\0", b"\xff").split(b"\n"))
        tokens, tabs, id_txt = np.strings.partition(lines, b"\t")
        formed = (tabs == b"\t") & np.strings.isdigit(id_txt)
        hexed = (np.strings.str_len(tokens) == 4) & (np.strings.strip(tokens, b"0123456789abcdef") == b"")
        codes = np.full(lines.size, -1, dtype=np.int64)
        codes[hexed] = np.frombuffer(bytes.fromhex(tokens[hexed].astype("S4").tobytes().decode()), ">u2")
        codes[hexed] += BIGRAM_BASE
        for code, marker in enumerate(MARKERS):
            codes[tokens == marker.encode()] = code
        good = np.flatnonzero(formed & (codes >= 0))
        seen, first = np.unique(codes[good], return_index=True)
        first_line = np.zeros(FULL_BIGRAM_VOCAB_SIZE, dtype=np.int64)  # code -> its first line
        first_line[seen] = good[first]
        bad = (lines != b"") & ~(formed & (codes >= 0))
        bad[good[first_line[codes[good]] != good]] = True
        if bad.any():
            i = int(np.argmax(bad))
            line = data.split(b"\n")[i].decode(errors="replace")
            tok = line.partition("\t")[0]
            raise ValueError(f"{path}:{i + 1}: " + (
                f"expected token<TAB>id, got {line!r}" if not formed[i] else
                f"token {tok!r} is neither a marker nor four lowercase hex digits" if codes[i] < 0 else
                f"token {tok!r} repeats line {first_line[codes[i]] + 1}"))
        ids = np.zeros(good.size, dtype=np.int64)
        for digit in id_txt[good].view(np.uint8).reshape(good.size, id_txt.itemsize).T:  # NUL-padded
            ids = np.where(digit > 0, ids * 10 + digit - ord("0"), ids)
        if id_txt.itemsize > 18 or not np.array_equal(np.sort(ids), np.arange(ids.size)):  # 19 digits wrap
            raise ValueError(f"{path}: vocabulary ids must be dense in [0, size)")
        table = np.full(FULL_BIGRAM_VOCAB_SIZE, -1, dtype=np.int32)
        table[codes[good]] = ids
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


def batch_arrays(sequences: Sequence[TokenSequence]) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Stack a list of token sequences into (ids, valid_mask, labels)."""
    ids = np.stack([s.ids for s in sequences])
    valid = np.stack([s.valid_mask for s in sequences])
    if all(s.label is not None for s in sequences):
        labels = np.array([s.label for s in sequences], dtype=np.int64)
    else:
        labels = None
    return ids, valid, labels


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
    window_seconds: float,
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
    return [SessionFlow(key=flow.key, packets=directed(pkts), label=flow.label)
            for _, pkts in sorted(bins.items()) if len(pkts) >= min_packets]


# --- corpus files: one sequence per line, space-separated IDs, optional
# --- `label:<int><TAB>` prefix.

_CORPUS_LINE = re.compile(r"(?:label:([0-9]+)\t)?([0-9\s]*)", re.ASCII)  # groups: label, ids


@functools.cache
def _id_text() -> np.ndarray:
    """``S6`` table, built on first use: id -> its decimal digits and a space, NUL-padded on the
    left, for the 65,541 full-bigram ids. NULs are dropped from the text it builds."""
    ids, place = np.arange(FULL_BIGRAM_VOCAB_SIZE)[:, None], 10 ** np.arange(4, -1, -1)
    digits = np.where((ids >= place) | (place == 1), ids // place % 10 + ord("0"), 0)
    return np.hstack([digits, np.full_like(ids, ord(" "))]).astype(np.uint8).view("S6").ravel()


def write_corpus(sequences: Iterable[TokenSequence], path: str | Path) -> int:
    """Write one line per sequence, streamed as ``sequences`` yields them; return the line count."""
    table, count = _id_text(), 0

    def lines():
        nonlocal count
        for count, seq in enumerate(sequences, 1):
            head = f"label:{seq.label}\t" if seq.label is not None else ""
            if seq.ids.size and seq.ids.min() >= 0 and seq.ids.max() < table.size:
                yield head + table[seq.ids].tobytes().translate(None, b"\0")[:-1].decode() + "\n"
            else:
                yield head + " ".join(map(str, seq.ids.tolist())) + "\n"

    write_atomic(path, lines())
    return count


def read_corpus(path: str | Path) -> list[TokenSequence]:
    return list(iter_corpus(path))


def iter_corpus(path: str | Path) -> Iterator[TokenSequence]:
    """Stream the sequences of a corpus file, one per non-empty line. A label or token ID that
    is not ASCII digits or not below 2**31, a line with no IDs, or one whose ID count differs
    from the first line's raises ValueError naming the file and line."""
    first = None  # (lineno, id count) of the first sequence
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                match = _CORPUS_LINE.fullmatch(line)
                if not match:
                    raise ValueError("expected an optional `label:<id><TAB>`, then ids, all in ASCII digits")
                label = None if match[1] is None else int(np.int32(match[1]))
                ids = np.array([int(tok) for tok in match[2].split()], dtype=np.int32)
                if not ids.size:
                    raise ValueError("no token IDs")
                first = first or (lineno, ids.size)
                if ids.size != first[1]:
                    raise ValueError(f"{ids.size} token IDs, but line {first[0]} has {first[1]}")
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield TokenSequence(ids=ids, valid_mask=ids != PAD_ID, label=label)
