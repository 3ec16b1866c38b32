"""Classic-PCAP parsing and writing, and bidirectional session-flow reassembly, one column at a time.

A session flow is the set of packets sharing a canonical five-tuple
(both directions), time-ordered. Flows are the unit every later stage
consumes.

Packets exist in one form only, a table. A :class:`PacketTable` is one
``PACKET_COLUMNS`` row per packet beside the byte buffer it was decoded
from (a capture, a flow store's sidecar or a synthetic flow): each address
and payload is an offset and a length into that buffer. A
:class:`FlowTable` is a packet table in flow order, whose ``dir`` column
holds each packet's direction, plus each flow's packet count and label; a
:class:`SessionFlow` is one flow's packet table and label. Every stage
takes and returns tables, and a flow's key is always read off its first
packet.
"""

from __future__ import annotations

import math
import struct
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .artifacts import HEADER, BinaryReader, write_atomic

PROTO_TCP = 6
PROTO_UDP = 17

FORWARD = 0
BACKWARD = 1

# Magics for the classic capture format: native/swapped byte order,
# microsecond and nanosecond timestamp variants.
_MAGIC_US_BE = 0xA1B2C3D4
_MAGIC_US_LE = 0xD4C3B2A1
_MAGIC_NS_BE = 0xA1B23C4D
_MAGIC_NS_LE = 0x4D3CB2A1

_LINKTYPE_ETHERNET = 1
_LINKTYPE_RAW_IP = 101


class CaptureError(ValueError):
    """Raised for unusable capture input (bad header, unknown link type)."""


def packet_error(timestamp: float, total_length: int, plen: int, tcp_flags: int, ip_proto: int) -> Optional[str]:
    """Why no packet can hold these fields, or None: the first rule they break."""
    if not (math.isfinite(timestamp) and timestamp >= 0.0):
        return f"timestamp must be finite and non-negative, got {timestamp}"
    if total_length < plen:
        return "total_length smaller than payload length"
    if tcp_flags and ip_proto != PROTO_TCP:
        return "tcp_flags set on a non-TCP packet"
    return None


# One row per packet: src, dst and payload are byte offsets into the table's buffer and src_len, dst_len
# and plen their lengths; length is the frame size on the wire and dir the direction within a flow.
PACKET_COLUMNS = np.dtype([(name, "f8" if name == "ts" else "i8") for name in (
    "ts", "src", "src_len", "dst", "dst_len", "sport", "dport", "proto", "flags", "length", "payload", "plen", "dir")])
_SPAN_CHUNK = 1 << 15  # bytes per gather in _copy_spans: its index arrays stay under a megabyte


def run_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices ``starts[i], ..., starts[i] + lengths[i] - 1`` of every run i, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if len(ends) else 0)


def _copy_spans(dst: np.ndarray, dst_at, src: np.ndarray, src_at, lengths) -> None:
    """``dst[dst_at[i]:][:lengths[i]] = src[src_at[i]:][:lengths[i]]`` for every i, gathering about
    ``_SPAN_CHUNK`` bytes at a time."""
    ends = np.cumsum(lengths)
    cuts = np.searchsorted(ends, np.arange(_SPAN_CHUNK, ends[-1] if len(ends) else 0, _SPAN_CHUNK)).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(ends)]):
        dst[run_indices(dst_at[lo:hi], lengths[lo:hi])] = src[run_indices(src_at[lo:hi], lengths[lo:hi])]


def _spans(data: bytes, at: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """``[len(at), width]`` uint8: the span of ``data`` at each offset, zero-padded on the right."""
    out = np.zeros((len(at), width), np.uint8)
    _copy_spans(out.reshape(-1), np.arange(len(at)) * width, np.frombuffer(data, np.uint8), at, lengths)
    return out


@dataclass(eq=False)
class PacketTable:
    """Packets as ``PACKET_COLUMNS`` rows over ``data``, the buffer holding their addresses and payloads."""

    data: bytes
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def payload_heads(self, width: int) -> np.ndarray:
        """``[len(self), width]`` uint8: each payload's first ``width`` bytes, zero-padded."""
        return _spans(self.data, self.rows["payload"], np.minimum(self.rows["plen"], width), width)


@dataclass(eq=False)
class SessionFlow:
    """One flow: its packets in time order, with their ``dir`` column, and its label."""

    packets: PacketTable
    label: Optional[int] = None


@dataclass(eq=False)
class FlowTable:
    """Flows as one packet table in flow order, each flow's packet ``counts`` and ``labels`` (None when
    absent). A flow's key is the canonical five-tuple of its first packet (see ``key_fields``)."""

    packets: PacketTable
    counts: np.ndarray
    labels: list

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def firsts(self) -> np.ndarray:
        """Each flow's first row."""
        return np.cumsum(self.counts) - self.counts

    def __getitem__(self, which) -> "FlowTable":
        """The flows at ``which``, a slice or an array of flow indices, in that order."""
        idx = np.arange(len(self))[which]
        rows = self.packets.rows[run_indices(self.firsts[idx], self.counts[idx])]
        return FlowTable(PacketTable(self.packets.data, rows), self.counts[idx], [self.labels[i] for i in idx.tolist()])

    @classmethod
    def of(cls, flows: Iterable[SessionFlow]) -> "FlowTable":
        """Session flows as one table (see :meth:`join`)."""
        return cls.join([cls(f.packets, np.array([len(f.packets)]), [f.label]) for f in flows])

    def key_fields(self) -> list[tuple]:
        """``(ip_a, port_a, ip_b, port_b, proto)`` of each flow: its first packet's endpoints, the lower
        ``(address, port)`` first."""
        first, d = self.packets.rows[self.firsts], self.packets.data
        swap = _swapped(first, *_endpoints(d, first))

        def side(x, y):
            return np.where(swap, first[y], first[x]).tolist()

        return [(d[a : a + n_a], port_a, d[b : b + n_b], port_b, proto) for a, n_a, port_a, b, n_b, port_b, proto in zip(
            side("src", "dst"), side("src_len", "dst_len"), side("sport", "dport"),
            side("dst", "src"), side("dst_len", "src_len"), side("dport", "sport"), first["proto"].tolist())]

    @classmethod
    def join(cls, tables: list["FlowTable"]) -> "FlowTable":
        """The flows of ``tables``, in order, as one table over their buffers joined."""
        tables = [cls(PacketTable(b"", np.zeros(0, PACKET_COLUMNS)), np.zeros(0, np.int64), []), *tables]  # or none
        rows = np.concatenate([t.packets.rows for t in tables], dtype=PACKET_COLUMNS)  # no field-by-field promotion
        shift = np.repeat(np.cumsum([0] + [len(t.packets.data) for t in tables[:-1]]), [len(t.packets) for t in tables])
        for column in ("src", "dst", "payload"):
            rows[column] += shift
        return cls(PacketTable(b"".join(t.packets.data for t in tables), rows),
                   np.concatenate([t.counts for t in tables]), [label for t in tables for label in t.labels])

    def name(self, i: int) -> str:
        """How errors name flow ``i``: its index and endpoints."""
        ip_a, port_a, ip_b, port_b, _ = self[i : i + 1].key_fields()[0]
        return f"flow {i} ({ip_a.hex()}:{port_a} <-> {ip_b.hex()}:{port_b})"


def _be(buf: np.ndarray, at: np.ndarray, width: int = 1) -> np.ndarray:
    """The big-endian unsigned ``width``-byte field at each offset. An offset past the end reads the
    last byte, so every row can be read and masked out afterwards."""
    value = np.zeros(len(at), np.int64)
    for i in range(width):
        value = value << 8 | buf[np.minimum(at + i, len(buf) - 1)]
    return value


def parse_capture(capture_bytes: bytes) -> PacketTable:
    """Decode a classic capture stream into a packet table over ``capture_bytes``.

    Accepts both byte orders and both timestamp resolutions. Non-IP
    frames (ARP etc.) are skipped. A malformed global header or an
    unsupported link type is a hard error; a truncated trailing record
    is dropped with a warning. Only the record headers are walked one by
    one, as the format requires; every frame is then decoded at once.
    """
    if len(capture_bytes) < 24:
        raise CaptureError(
            f"malformed global header at offset 0: need 24 bytes, have {len(capture_bytes)}"
        )
    magic = struct.unpack_from(">I", capture_bytes, 0)[0]
    if magic == _MAGIC_US_BE:
        endian, ns = ">", False
    elif magic == _MAGIC_US_LE:
        endian, ns = "<", False
    elif magic == _MAGIC_NS_BE:
        endian, ns = ">", True
    elif magic == _MAGIC_NS_LE:
        endian, ns = "<", True
    else:
        raise CaptureError(f"malformed global header at offset 0: unknown magic 0x{magic:08X}")
    linktype = struct.unpack_from(endian + "I", capture_bytes, 20)[0]
    if linktype not in (_LINKTYPE_ETHERNET, _LINKTYPE_RAW_IP):
        raise CaptureError(f"unsupported link type {linktype}")

    starts, offset, total = array("q"), 24, len(capture_bytes)
    caplen_at = struct.Struct(endian + "I").unpack_from
    while offset + 16 <= total:
        end = offset + 16 + caplen_at(capture_bytes, offset + 8)[0]
        if end > total:
            warnings.warn(f"truncated record data at offset {offset + 16}; record dropped")
            break
        starts.append(offset)
        offset = end
    else:
        if offset < total:
            warnings.warn(f"truncated record header at offset {offset}; record dropped")
    buf, at = np.frombuffer(capture_bytes, np.uint8), np.frombuffer(starts, np.int64)
    sec, frac, caplen, orig = sliding_window_view(buf, 16)[at].view(endian + "u4").astype(np.int64).T
    frame, ts = at + 16, sec + frac / (1e9 if ns else 1e6)

    if linktype == _LINKTYPE_ETHERNET:
        ethertype = _be(buf, frame + 12, 2)
        tagged = (ethertype == 0x8100) | (ethertype == 0x88A8)  # one VLAN tag is traversed
        link = np.where(tagged, 18, 14)
        ethertype = np.where(tagged, _be(buf, frame + 16, 2), ethertype)
        version = np.select([caplen < link, ethertype == 0x0800, ethertype == 0x86DD], [0, 4, 6], 0)
    else:  # raw IP: the version nibble decides the family
        link = np.zeros_like(frame)
        version = np.where(caplen > 0, _be(buf, frame) >> 4, 0)
    ip, size = frame + link, caplen - link  # each datagram's offset and captured size
    ihl = (_be(buf, ip) & 0x0F) * 4
    v4 = (version == 4) & (size >= 20) & (ihl >= 20) & (size >= ihl)
    v6 = (version == 6) & (size >= 40)
    # The IP length field bounds the datagram; bytes beyond it are link-layer padding, not payload.
    header = np.where(v4, ihl, 40)
    stated = np.where(v4, _be(buf, ip + 2, 2), 40 + _be(buf, ip + 4, 2))
    size = np.where((header <= stated) & (stated < size), stated, size)
    proto = np.where(v4, _be(buf, ip + 9), _be(buf, ip + 6))  # IPv6 extension headers are not traversed
    src, n_addr = ip + np.where(v4, 12, 8), np.where(v4, 4, 16)
    seg, seg_size = ip + header, size - header  # the transport segment

    tcp = (proto == PROTO_TCP) & (seg_size >= 20)
    ported = tcp | ((proto == PROTO_UDP) & (seg_size >= 8))
    data_off = (_be(buf, seg + 12) >> 4) * 4
    # The payload follows the TCP header (none if its data offset is below 20) or the UDP header;
    # a portless protocol's payload is the whole segment.
    skip = np.minimum(np.where(tcp, np.where(data_off >= 20, data_off, seg_size), np.where(ported, 8, 0)), seg_size)
    keep = np.flatnonzero(v4 | v6)
    rows = np.zeros(len(keep), PACKET_COLUMNS)
    for name, column in (("ts", ts), ("src", src), ("src_len", n_addr), ("dst", src + n_addr), ("dst_len", n_addr),
                         ("sport", np.where(ported, _be(buf, seg, 2), 0)),
                         ("dport", np.where(ported, _be(buf, seg + 2, 2), 0)), ("proto", proto),
                         ("flags", np.where(tcp, _be(buf, seg + 13), 0)), ("length", np.maximum(orig, seg_size - skip)),
                         ("payload", seg + skip), ("plen", seg_size - skip)):
        rows[name] = column[keep]
    return PacketTable(capture_bytes, rows)


# A written record's 16-byte header, then its frame's Ethernet, IPv4 and TCP headers; the payload follows.
_FRAME_HEAD = np.dtype([("sec", "<u4"), ("usec", "<u4"), ("caplen", "<u4"), ("orig", "<u4"), ("macs", "u1", 12),
                        ("ethertype", ">u2"), ("version_tos", ">u2"), ("ip_len", ">u2"), ("id_frag", ">u4"),
                        ("ttl_proto", ">u2"), ("ip_sum", ">u2"), ("src", "u1", 4), ("dst", "u1", 4), ("sport", ">u2"),
                        ("dport", ">u2"), ("seq_ack", ">u8"), ("offset", "u1"), ("flags", "u1"), ("window", ">u2"),
                        ("sum_urgent", ">u4")])
_MACS = np.frombuffer(bytes.fromhex("020000000002020000000001"), np.uint8)  # destination, then source


def write_pcap(packets: PacketTable, path: Optional[str | Path] = None) -> Optional[bytes]:
    """Write the packets, in table order, as a classic little-endian microsecond capture of Ethernet
    frames, each holding TCP over IPv4 with no options; return the bytes when ``path`` is None. A packet
    that no such frame holds as it is raises ValueError naming it, before anything is written."""
    rows = packets.rows
    ts, plen, frame = rows["ts"], rows["plen"], 54 + rows["plen"]
    low, high = np.minimum(rows["sport"], rows["dport"]), np.maximum(rows["sport"], rows["dport"])
    for rule, ok in (("TCP over IPv4", (rows["proto"] == PROTO_TCP) & (rows["src_len"] == 4) & (rows["dst_len"] == 4)),
                     ("ts in [0, 2**32 - 1)", (ts >= 0) & (ts < 2**32 - 1)),
                     ("ports in [0, 2**16)", (low >= 0) & (high < 1 << 16)),
                     ("flags in [0, 2**8)", (rows["flags"] >= 0) & (rows["flags"] < 1 << 8)),
                     ("plen at most 65,495, the most an IPv4 datagram holds", plen <= 0xFFFF - 40),
                     ("length in [54 + plen, 2**32)", (rows["length"] >= frame) & (rows["length"] < 1 << 32))):
        if not ok.all():
            raise ValueError(f"packet {int(ok.argmin())}: the capture writer needs {rule}")
    sec = np.trunc(ts)
    usec = np.rint((ts - sec) * 1e6)  # half to even, as Python's round
    carry = usec >= 1e6
    at = 24 + np.cumsum(_FRAME_HEAD.itemsize + plen) - (_FRAME_HEAD.itemsize + plen)
    out = np.zeros(24 + len(rows) * _FRAME_HEAD.itemsize + int(plen.sum()), np.uint8)
    out[:24] = np.frombuffer(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, _LINKTYPE_ETHERNET), np.uint8)
    _put(out, at, _FRAME_HEAD, sec + carry, usec - 1e6 * carry, frame, rows["length"], _MACS, 0x0800, 0x4500,
         40 + plen, 0, 64 << 8 | PROTO_TCP, 0, _spans(packets.data, rows["src"], rows["src_len"], 4),
         _spans(packets.data, rows["dst"], rows["dst_len"], 4), rows["sport"], rows["dport"], 0, 5 << 4, rows["flags"],
         0xFFFF, 0)
    _copy_spans(out, at + _FRAME_HEAD.itemsize, np.frombuffer(packets.data, np.uint8), rows["payload"], plen)
    if path is None:
        return out.tobytes()
    Path(path).write_bytes(out)
    return None


def _endpoints(data: bytes, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's source and destination address, zero-padded to the longest rounded up to 8 bytes:
    ``[n, width]`` uint8 each."""
    width = 8 * max(1, -(-int(max(rows["src_len"].max(initial=0), rows["dst_len"].max(initial=0))) // 8))
    return _spans(data, rows["src"], rows["src_len"], width), _spans(data, rows["dst"], rows["dst_len"], width)


def _swapped(rows: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Where ``(dst_ip, dst_port) < (src_ip, src_port)`` in Python's order, given the padded addresses:
    addresses compare at their first differing byte, else the shorter (a prefix) comes first, else
    the ports compare."""
    differ = src != dst
    col = differ.argmax(axis=1)[:, None]
    by_byte = np.take_along_axis(dst, col, 1)[:, 0] < np.take_along_axis(src, col, 1)[:, 0]
    n_src, n_dst = rows["src_len"], rows["dst_len"]
    by_length = (n_dst < n_src) | ((n_dst == n_src) & (rows["dport"] < rows["sport"]))
    return np.where(differ.any(axis=1), by_byte, by_length)


def reassemble_sessions(table: PacketTable) -> FlowTable:
    """Group packets into bidirectional flows keyed by canonical five-tuple.

    Every input packet lands in exactly one flow. Within a flow, packets
    are sorted by timestamp (capture order breaks ties) and directions
    are assigned relative to the first packet's sender. Flows are
    returned in order of first appearance in the capture.
    """
    rows = table.rows
    if not len(rows):
        return FlowTable(table, np.zeros(0, np.int64), [])
    src, dst = _endpoints(table.data, rows)
    swap = _swapped(rows, src, dst)
    # One row of 64-bit words per packet: proto, then the lower endpoint's address length, port and
    # address, then the higher one's. Sorting the rows brings each flow's packets together.
    ints = np.stack([rows["proto"]] + [np.where(swap, rows[y], rows[x]) for x, y in (
        ("src_len", "dst_len"), ("sport", "dport"), ("dst_len", "src_len"), ("dport", "sport"))], axis=1)
    key = np.hstack([ints.view(np.uint64)] + [np.where(swap[:, None], b, a).view(np.uint64) for a, b in ((src, dst), (dst, src))])
    by_key = np.lexsort(key.T)  # stable, so each flow's first packet leads its run
    starts = np.concatenate([[True], (key[by_key[1:]] != key[by_key[:-1]]).any(axis=1)])
    first = by_key[starts]
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))  # flows in order of first appearance
    flow = np.empty_like(by_key)
    flow[by_key] = rank[np.cumsum(starts) - 1]
    order = np.lexsort((rows["ts"], flow))  # stable, so capture order breaks ties
    counts = np.bincount(flow, minlength=len(first))
    rows, swap = rows[order], swap[order]
    rows["dir"] = np.where(swap == np.repeat(swap[np.cumsum(counts) - counts], counts), FORWARD, BACKWARD)
    return FlowTable(PacketTable(table.data, rows), counts, [None] * len(counts))


def filter_micro_flows(flows: FlowTable, min_packets: int = 3) -> FlowTable:
    """Drop flows with fewer than ``min_packets`` packets, preserving order.

    ``min_packets=1`` keeps every flow (for classes where every sample counts).
    """
    if min_packets < 1:
        raise ValueError(f"min_packets must be >= 1, got {min_packets}")
    keep = flows.counts >= min_packets
    return flows if keep.all() else flows[np.flatnonzero(keep)]


def temporal_slice(flows: FlowTable, window_seconds: float) -> FlowTable:
    """Cut each flow into one sub-flow per non-empty window [t0 + i*w, t0 + (i+1)*w), t0 its first row's time, in
    window order, each in stored order with the flow's label and FORWARD for its first packet's sender."""
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    rows = flows.packets.rows
    flow = np.repeat(np.arange(len(flows)), flows.counts)
    with np.errstate(over="ignore", invalid="ignore"):  # Python's //; an index past the float range is refused below
        window = np.floor_divide(rows["ts"] - rows["ts"][flows.firsts][flow], window_seconds)
    if not np.isfinite(window).all():
        raise ValueError(f"{flows.name(flow[np.isfinite(window).argmin()])}: window {window_seconds} s is too small")
    order = np.lexsort((window, flow))  # stable, so stored order holds within a window
    rows, flow, window = rows[order], flow[order], window[order]
    new = np.ones(len(rows), bool)  # where a sub-flow starts
    new[1:] = (flow[1:] != flow[:-1]) | (window[1:] != window[:-1])
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(rows)))
    first = np.repeat(starts, counts)
    sender = np.column_stack([_endpoints(flows.packets.data, rows)[0], rows["src_len"], rows["sport"]])
    rows["dir"] = np.where((sender == sender[first]).all(axis=1), FORWARD, BACKWARD)
    return FlowTable(PacketTable(flows.packets.data, rows), counts, [flows.labels[i] for i in flow[starts].tolist()])


# ---------------------------------------------------------------------------
# On-disk flow store: a text manifest plus a binary packet sidecar.
#
# flows.tsv     one flow per line, tab-separated:
#               ip_a(hex)  port_a  ip_b(hex)  port_b  proto  n_packets  label
#               (label is '-' when absent)
# packets.bin   magic 'TMFL', version u32, flow count u32; then per flow:
#               n_packets u32, label i32 (-1 = none), and per packet:
#               timestamp f64, direction u8, ip_len u8, src_ip, dst_ip,
#               src_port u16, dst_port u16, ip_proto u8, tcp_flags u8,
#               total_length u32, payload_len u32, payload bytes.
#               All integers little-endian.
# ---------------------------------------------------------------------------

_SIDECAR_MAGIC = b"TMFL"
_SIDECAR_VERSION = 1

MANIFEST_NAME = "flows.tsv"
SIDECAR_NAME = "packets.bin"
_FLOW = struct.Struct("<Ii")
_PACKET_HEAD = np.dtype([("ts", "<f8"), ("dir", "u1"), ("ip_len", "u1")])  # 10 bytes, then src_ip and dst_ip
_PACKET_TAIL = np.dtype([("sport", "<u2"), ("dport", "<u2"), ("proto", "u1"), ("flags", "u1"), ("length", "<u4"),
                         ("plen", "<u4")])  # 14 bytes, then the payload
# The packet columns the sidecar stores in fixed widths, as (column, name in errors, bound): each value
# must lie in [0, bound).
_WIDTHS = (("src_len", "address length", 1 << 8), ("sport", "src_port", 1 << 16), ("dport", "dst_port", 1 << 16),
           ("proto", "ip_proto", 1 << 8), ("flags", "tcp_flags", 1 << 8), ("length", "total_length", 1 << 32),
           ("plen", "payload length", 1 << 32), ("dir", "direction", 1 << 8))


def check_labels(flows: FlowTable) -> None:
    """Raise ValueError naming the first flow whose label is outside [0, 2**31), the sidecar's range."""
    for i, label in enumerate(flows.labels):
        if label is not None and not 0 <= label < 2**31:
            raise ValueError(f"{flows.name(i)}: label {label} is outside [0, 2**31)")


def _check_fields(flows: FlowTable) -> None:
    """Raise ValueError naming the first packet the sidecar cannot hold as it is: one whose two
    addresses differ in length, or with a field outside its width."""
    rows = flows.packets.rows
    bad = rows["src_len"] != rows["dst_len"]
    for column, _, bound in _WIDTHS:
        bad |= (rows[column] < 0) | (rows[column] >= bound)
    if bad.any():
        p = int(bad.argmax())
        f = int(np.searchsorted(np.cumsum(flows.counts), p, side="right"))
        row, where = rows[p], f"flow {f} packet {p - int(flows.firsts[f])}"
        if row["src_len"] != row["dst_len"]:
            raise ValueError(f"{where}: src_ip has {row['src_len']} bytes but dst_ip has {row['dst_len']}")
        column, name, bound = next(w for w in _WIDTHS if not 0 <= row[w[0]] < w[2])
        raise ValueError(f"{where}: {name} {row[column]} is outside [0, {bound})")


def _put(buf: np.ndarray, at: np.ndarray, record: np.dtype, *columns) -> None:
    """Write one ``record``, filled from ``columns`` in field order, at each byte offset ``at`` of ``buf``."""
    if not len(at):  # the buffer may be shorter than one record
        return
    packed = np.empty(len(at), record)
    for name, column in zip(record.names, columns):
        packed[name] = column
    sliding_window_view(buf, record.itemsize, writeable=True)[at] = packed.view(np.uint8).reshape(-1, record.itemsize)


def _get(buf: np.ndarray, at: np.ndarray, record: np.dtype) -> np.ndarray:
    """The ``record`` at each byte offset ``at`` of ``buf``."""
    if not len(at):  # the buffer may be shorter than one record
        return np.empty(0, record)
    return sliding_window_view(buf, record.itemsize)[at].view(record)[:, 0]


def write_flows(flows: FlowTable, out_dir: str | Path) -> None:
    """Write the manifest/sidecar pair for a flow table. ``check_labels``, then a check of every packet
    field against its width in the sidecar, run before anything is written."""
    check_labels(flows)
    _check_fields(flows)
    rows, counts, labels = flows.packets.rows, flows.counts, flows.labels
    lines = [f"{ip_a.hex()}\t{port_a}\t{ip_b.hex()}\t{port_b}\t{proto}\t{n}\t{'-' if label is None else label}\n"
             for (ip_a, port_a, ip_b, port_b, proto), n, label in zip(flows.key_fields(), counts.tolist(), labels)]
    # Flow i's record follows the file header, i earlier flow records and every earlier packet record;
    # a packet record is 24 fixed bytes, its two addresses and its payload.
    n_addr = rows["src_len"]
    before = np.concatenate([[0], np.cumsum(24 + 2 * n_addr + rows["plen"])])  # packet bytes before each packet
    flow_at = 4 + HEADER.size + _FLOW.size * np.arange(len(flows)) + before[flows.firsts]
    at = np.repeat(flow_at + _FLOW.size - before[flows.firsts], counts) + before[:-1]
    blob = bytearray(4 + HEADER.size + _FLOW.size * len(flows) + int(before[-1]))
    blob[: 4 + HEADER.size] = _SIDECAR_MAGIC + HEADER.pack(_SIDECAR_VERSION, len(flows))
    for offset, n, label in zip(flow_at.tolist(), counts.tolist(), labels):
        _FLOW.pack_into(blob, offset, n, -1 if label is None else label)
    out, data = np.frombuffer(blob, np.uint8), np.frombuffer(flows.packets.data, np.uint8)
    _put(out, at, _PACKET_HEAD, rows["ts"], rows["dir"], n_addr)
    _put(out, at + 10 + 2 * n_addr, _PACKET_TAIL, *(rows[c] for c in _PACKET_TAIL.names))
    for dest, column, length in ((at + 10, "src", "src_len"), (at + 10 + n_addr, "dst", "dst_len"),
                                 (at + 24 + 2 * n_addr, "payload", "plen")):
        _copy_spans(out, dest, data, rows[column], rows[length])
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    write_atomic(out_path / MANIFEST_NAME, lines)
    write_atomic(out_path / SIDECAR_NAME, blob)


def _step_packet(r: BinaryReader) -> None:
    """Read one packet record field by field, as the format lays it out: the read that runs past the
    end of the file raises."""
    n_addr = r.take(_PACKET_HEAD.itemsize)[-1]
    r.take(n_addr)
    r.take(n_addr)
    r.take(int.from_bytes(r.take(_PACKET_TAIL.itemsize)[-4:], "little"))


def read_flows(in_dir: str | Path) -> FlowTable:
    """Read back the flows written by :func:`write_flows`, as a table over the sidecar's bytes.

    A malformed or truncated sidecar raises :class:`CaptureError` naming
    the file and the byte offset where the failing record starts. Only
    the two length fields of each packet are walked one by one; every
    other field is decoded at once.
    """
    with BinaryReader.open(Path(in_dir) / SIDECAR_NAME, _SIDECAR_MAGIC, _SIDECAR_VERSION, CaptureError) as r:
        data, size = r.data, len(r.data)
        counts, labels, starts, broken = array("q"), [], array("q"), None
        payload_len = struct.Struct("<I").unpack_from
        try:
            for _ in r.records(r.count):
                n_packets, label = r.unpack(_FLOW)
                if n_packets == 0:
                    raise ValueError("flow record has no packets")
                counts.append(n_packets)
                labels.append(None if label < 0 else label)
                for _ in r.records(n_packets):
                    tail = r.pos + 10 + 2 * data[r.pos + 9] if r.pos + 10 <= size else size
                    end = tail + 14 + payload_len(data, tail + 10)[0] if tail + 14 <= size else size + 1
                    if end > size:
                        _step_packet(r)
                    starts.append(r.pos)
                    r.pos = end
        except ValueError as exc:  # raised below, unless a packet read before it is refused first
            broken = (r.start, exc)
        buf, at = np.frombuffer(data, np.uint8), np.frombuffer(starts, np.int64)
        head = _get(buf, at, _PACKET_HEAD)
        n_addr = head["ip_len"].astype(np.int64)
        tail = _get(buf, at + 10 + 2 * n_addr, _PACKET_TAIL)
        rows = np.empty(len(at), PACKET_COLUMNS)
        for name, column in (("ts", head["ts"]), ("src", at + 10), ("src_len", n_addr), ("dst", at + 10 + n_addr),
                             ("dst_len", n_addr), ("payload", at + 24 + 2 * n_addr), ("dir", head["dir"])):
            rows[name] = column
        for name in _PACKET_TAIL.names:
            rows[name] = tail[name]
        ts = rows["ts"]
        refused = ~(np.isfinite(ts) & (ts >= 0)) | (rows["length"] < rows["plen"]) | (
            (rows["flags"] != 0) & (rows["proto"] != PROTO_TCP))
        if refused.any():  # the first refused packet's error, as packet_error states it
            i = int(refused.argmax())
            r.start = int(at[i])
            raise ValueError(packet_error(*rows[["ts", "length", "plen", "flags", "proto"]][i].item()))
        if broken:
            r.start = broken[0]
            raise broken[1]
        r.end()
    return FlowTable(PacketTable(data, rows), np.frombuffer(counts, np.int64), labels)
