"""Flow serialization into bigram codes and fixed-length token-ID sequences.

Each packet becomes an 11-byte metadata block plus a sampled payload
prefix. A flow becomes one ``int32`` code sequence: the markers have
codes 0-4, and each 2-byte window of a region is one bigram code. A
vocabulary maps codes to dense IDs; hex text appears only in its file.
``token_matrix`` owns the id rule (codes to a fixed-width id matrix) and
``_corpus_text`` the text rule (checks and corpus lines of one id matrix);
``tokenize`` and ``write_corpus`` are thin entries over them. A slot is
valid unless it holds [PAD]: no vocabulary gives a code other than [PAD]
the [PAD] id, so no validity mask is stored beside the ids.

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
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .artifacts import write_atomic
from .flows import FORWARD, FlowTable, PacketTable, SessionFlow, run_indices

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


# One packet's metadata block, in the wire order of the module docstring.
_META = np.dtype([("frame_len", ">u2"), ("direction", "u1"), ("tcp_flags", "u1"), ("iat_us", ">u4"),
                  ("ip_proto", "u1"), ("payload_len", ">u2")])


def _window_codes(regions: np.ndarray, stride: int) -> np.ndarray:
    """Codes of the 2-byte windows at offsets 0, stride, ... of each row of ``regions`` ``[P, n]``
    uint8; a window that starts on a row's last byte pairs it with 0."""
    padded = np.concatenate([regions, np.zeros((len(regions), 1), np.uint8)], axis=1).astype(np.int32)
    return BIGRAM_BASE + (padded[:, :-1:stride] << 8 | padded[:, 1::stride])


def serialize_codes(flows: FlowTable, cfg: SerializerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Serialize a flow table into its flows' ``int32`` code sequences, back to back, and their lengths.
    The first ``packets_per_flow`` packets of a flow each contribute ``[PD] <meta bigrams> [PY] <payload
    bigrams>`` (the payload's first ``payload_bytes`` bytes), and ``[END]`` ends the flow."""
    k, j, stride = cfg.packets_per_flow, cfg.payload_bytes, cfg.bigram_stride
    counts = np.minimum(flows.counts, k)
    if not counts.all():
        raise ValueError("cannot serialize an empty flow")
    heads = PacketTable(flows.packets.data, flows.packets.rows[run_indices(flows.firsts, counts)])
    fields = heads.rows
    firsts = np.cumsum(counts) - counts  # each flow's first packet
    iat_us = np.rint(np.maximum(np.diff(fields["ts"], prepend=0.0), 0.0) * 1e6)
    iat_us[firsts] = 0
    meta = np.zeros(len(fields), _META)
    for name, column in zip(_META.names, (
        np.minimum(fields["length"], 0xFFFF), fields["dir"] != FORWARD, fields["flags"] & 0xFF,
        np.minimum(iat_us, 2**32 - 1), fields["proto"] & 0xFF, np.minimum(fields["plen"], 0xFFFF),
    )):
        meta[name] = column
    payloads = heads.payload_heads(j)

    # One row per packet: [PD] meta [PY] payload, then [END], kept on each flow's last packet only.
    n_meta = _ceil_div(META_BYTES, stride)
    rows = np.empty((len(fields), n_meta + _ceil_div(j, stride) + 3), dtype=np.int32)
    rows[:, 0], rows[:, n_meta + 1], rows[:, -1] = PD_ID, PY_ID, END_ID
    rows[:, 1 : n_meta + 1] = _window_codes(meta.view(np.uint8).reshape(len(fields), META_BYTES), stride)
    rows[:, n_meta + 2 : -1] = _window_codes(payloads, stride)
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, n_meta + 2 : -1] = np.arange(0, j, stride) < np.minimum(fields["plen"], j)[:, None]
    keep[:, -1] = False
    keep[firsts + counts - 1, -1] = True
    return rows[keep], np.add.reduceat(keep.sum(axis=1), firsts)


def serialize_flow(flow: SessionFlow, cfg: SerializerConfig) -> np.ndarray:
    """Serialize one flow into its ``int32`` code sequence (see :func:`serialize_codes`)."""
    return serialize_codes(FlowTable(flow.packets, np.array([len(flow.packets)]), [flow.label]), cfg)[0]


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
    the bigram codes of a corpus of code arrays (``serialize_codes`` outputs)
    and keeps those seen at least ``min_freq`` times (a bigram never seen is
    never kept), by descending count, then ascending code; everything else
    falls back to [UNK] at tokenize time.
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
    """Fixed-length ID sequence and its label; a slot is valid unless it holds [PAD]."""

    ids: np.ndarray
    label: Optional[int] = None

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int32)

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @property
    def valid_mask(self) -> np.ndarray:
        return self.ids != PAD_ID

    @property
    def n_valid(self) -> int:
        return int(np.count_nonzero(self.valid_mask))


def batch_arrays(sequences: Sequence[TokenSequence]) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Stack a list of token sequences into (ids, valid_mask, labels); a slot is valid unless it holds [PAD]."""
    ids = np.stack([s.ids for s in sequences])
    valid = ids != PAD_ID
    if all(s.label is not None for s in sequences):
        labels = np.array([s.label for s in sequences], dtype=np.int64)
    else:
        labels = None
    return ids, valid, labels


def token_matrix(codes: np.ndarray, lengths: np.ndarray, vocab: Vocabulary, max_tokens: int) -> np.ndarray:
    """The id rule: map code sequences, back to back in ``codes`` with ``lengths``, to an ``int32``
    ``[rows, max_tokens]`` id matrix. Bigrams outside the vocabulary become [UNK]. Overlong sequences
    are cut to ``max_tokens`` with the final kept slot rewritten to [END]; short ones are padded with
    [PAD]."""
    lengths = np.asarray(lengths, dtype=np.int64)
    kept = np.minimum(lengths, max_tokens)
    ids = np.full((len(lengths), max_tokens), PAD_ID, dtype=np.int32)
    ids[np.arange(max_tokens) < kept[:, None]] = vocab.table[codes[run_indices(np.cumsum(lengths) - lengths, kept)]]
    ids[lengths > max_tokens, -1] = END_ID
    return ids


def tokenize(codes: np.ndarray, vocab: Vocabulary, max_tokens: int, label: Optional[int] = None) -> TokenSequence:
    """Map one flow's code sequence to a fixed-length ID sequence: a one-row :func:`token_matrix`."""
    ids = token_matrix(np.asarray(codes, dtype=np.int64), [len(codes)], vocab, max_tokens)[0]
    return TokenSequence(ids=ids, label=label)


# --- corpus files: one sequence per line, space-separated IDs, optional
# --- `label:<int><TAB>` prefix. No line is blank, every line has the first
# --- line's ID count, and at least one of its IDs is not [PAD].

_CORPUS_LINE = re.compile(r"(?:label:([0-9]+)\t)?([0-9\s]*)", re.ASCII)  # groups: label, ids
CHUNK_IDS = 1 << 17  # ids per corpus chunk: 256 rows at the default max_tokens, about 1 MB of text


@functools.cache
def _id_text() -> np.ndarray:
    """``uint64`` table, built on first use: id -> 8 bytes, its decimal digits and a space,
    NUL-padded on the left, for the 65,541 full-bigram ids. NULs are dropped from the text it builds."""
    ids, text = np.arange(FULL_BIGRAM_VOCAB_SIZE), np.full((FULL_BIGRAM_VOCAB_SIZE, 8), ord(" "), dtype=np.uint8)
    for col, place in enumerate(10 ** np.arange(6, -1, -1)):  # a column at a time: a 2 MB peak, not 8
        text[:, col] = np.where((ids >= place) | (place == 1), ids // place % 10 + ord("0"), 0)
    return text.view(np.uint64).ravel()


def chunk_rows(width: int) -> int:
    """Rows per id matrix of ``width`` ids: ``CHUNK_IDS`` ids, and at least one row."""
    return max(1, CHUNK_IDS // max(width, 1))


def _corpus_text(ids: np.ndarray, labels: Sequence, first: int, width: int) -> bytes:
    """The text rule: the corpus lines of id matrix ``ids``, whose rows are sequences ``first``,
    ``first + 1``, ... with ``labels``, after checking them against ``width``, sequence 0's id count."""
    table, (rows, n) = _id_text(), ids.shape
    if not n:
        raise ValueError(f"sequence {first} has no token IDs")
    if n != width:
        raise ValueError(f"sequence {first} has {n} token IDs, but sequence 0 has {width}")
    low, high = ids.min(axis=1), ids.max(axis=1)
    heads = np.array([-1 if x is None else x if (type(x) is int or isinstance(x, np.integer)) and 0 <= x < 2**31
                      else -2 for x in labels], dtype=np.int64)  # -1: no label, -2: a label read_corpus refuses
    bad = np.flatnonzero((low < 0) | (high >= table.size) | (high == PAD_ID) & (low == PAD_ID) | (heads == -2))
    if bad.size:
        i = bad[0]
        raise ValueError(f"sequence {first + i} " + (
            f"holds token id {low[i] if low[i] < 0 else high[i]}, outside [0, {table.size})"
            if low[i] < 0 or high[i] >= table.size else "has only [PAD] token IDs" if high[i] == PAD_ID == low[i]
            else f"has label {labels[i]!r}, not an integer in [0, 2**31)"))
    text = np.take(table, ids).view(np.uint8).reshape(rows, n * 8)
    text[:, -1] = ord("\n")  # the space after the last id
    if (heads >= 0).any():  # `label:<digits><TAB>`, NUL-padded, in front of each labelled row
        head = np.where(heads >= 0, np.strings.add(np.strings.add(b"label:", heads.astype("S10")), b"\t"), b"")
        text = np.hstack([head.astype("S17").view(np.uint8).reshape(rows, 17), text])
    return text.tobytes().translate(None, b"\0")


def write_corpus(sequences: Iterable[TokenSequence | tuple[np.ndarray, Sequence]], path: str | Path) -> int:
    """Write one line per sequence, streamed as ``sequences`` yields them; return the line count. Items
    are ``(ids, labels)`` chunks, a :func:`token_matrix` and its rows' labels, or ``TokenSequence``s,
    each a one-row chunk; every chunk is formatted by :func:`_corpus_text`. An empty sequence, a token
    id outside [0, 65,541), an id count unlike the first sequence's, a sequence of only [PAD] ids or a
    label that is not an int in [0, 2**31) (a bool is not) raises ValueError naming the sequence; any
    previous file stays."""
    count = 0

    def texts():
        nonlocal count
        width = None
        for item in sequences:
            ids, labels = (item.ids[None], [item.label]) if isinstance(item, TokenSequence) else item
            width = ids.shape[1] if width is None else width
            yield _corpus_text(ids, labels, count, width)
            count += len(ids)

    write_atomic(path, texts())
    return count


def read_corpus(path: str | Path) -> list[TokenSequence]:
    """Read the sequences of a corpus file; sequence i is line i + 1. A label or token ID that is
    not ASCII digits or not below 2**31, a line with no IDs (a blank line is one), a line of only
    [PAD] IDs, or one whose ID count differs from the first line's raises ValueError naming the
    file and line."""
    sequences = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                match = _CORPUS_LINE.fullmatch(line.rstrip("\n"))
                if not match:
                    raise ValueError("expected an optional `label:<id><TAB>`, then ids, all in ASCII digits")
                label = None if match[1] is None else int(np.int32(match[1]))
                ids = np.fromstring(match[2], np.int64, sep=" ") if match[2].strip() else np.zeros(0, np.int64)
                # fromstring clamps past int64 and ignores int()'s digit limit, so a line holding an
                # id >= 2**31, or one that may be longer than that limit, is parsed again with int()
                limit = sys.get_int_max_str_digits()
                if ids.max(initial=0) >= 2**31 or limit and len(match[2]) - 2 * (ids.size - 1) > limit:
                    ids = np.array([int(tok) for tok in match[2].split()], dtype=np.int32)
                ids = ids.astype(np.int32)
                if not ids.size:
                    raise ValueError("no token IDs")
                if sequences and ids.size != len(sequences[0]):
                    raise ValueError(f"{ids.size} token IDs, but line 1 has {len(sequences[0])}")
                if (ids == PAD_ID).all():
                    raise ValueError("every token ID is [PAD]")
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            sequences.append(TokenSequence(ids=ids, label=label))
    return sequences
