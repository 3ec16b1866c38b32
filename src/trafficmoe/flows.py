"""Classic-PCAP parsing and bidirectional session-flow reassembly.

A session flow is the set of packets sharing a canonical five-tuple
(both directions), time-ordered. Flows are the unit every later stage
consumes.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Optional

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


@dataclass(frozen=True)
class PacketRecord:
    """One captured IP packet.

    ``total_length`` is the original frame size on the wire; ``payload``
    is the captured transport payload (after the TCP/UDP header, or the
    remainder of the datagram for portless protocols). ``tcp_flags`` is
    zero unless ``ip_proto`` is TCP.
    """

    timestamp: float
    src_ip: bytes
    dst_ip: bytes
    src_port: int
    dst_port: int
    ip_proto: int
    tcp_flags: int
    total_length: int
    payload: bytes

    def __post_init__(self):
        if not (math.isfinite(self.timestamp) and self.timestamp >= 0.0):
            raise ValueError(f"timestamp must be finite and non-negative, got {self.timestamp}")
        if self.total_length < len(self.payload):
            raise ValueError("total_length smaller than payload length")
        if self.tcp_flags and self.ip_proto != PROTO_TCP:
            raise ValueError("tcp_flags set on a non-TCP packet")


@dataclass(frozen=True, order=True)
class FiveTuple:
    """Canonical bidirectional flow key: (ip_a, port_a) <= (ip_b, port_b)."""

    ip_a: bytes
    port_a: int
    ip_b: bytes
    port_b: int
    proto: int

    @classmethod
    def from_packet(cls, pkt: PacketRecord) -> "FiveTuple":
        a = (pkt.src_ip, pkt.src_port)
        b = (pkt.dst_ip, pkt.dst_port)
        if b < a:
            a, b = b, a
        return cls(a[0], a[1], b[0], b[1], pkt.ip_proto)


@dataclass
class SessionFlow:
    """Time-ordered packets of one five-tuple conversation.

    ``packets`` holds (record, direction) pairs; direction is FORWARD for
    packets sent by the same endpoint as the flow's first packet.
    """

    key: FiveTuple
    packets: list[tuple[PacketRecord, int]]
    label: Optional[int] = None

    def __len__(self) -> int:
        return len(self.packets)

    @property
    def start_time(self) -> float:
        return self.packets[0][0].timestamp


def parse_capture(capture_bytes: bytes) -> list[PacketRecord]:
    """Parse a classic capture stream into packet records.

    Accepts both byte orders and both timestamp resolutions. Non-IP
    frames (ARP etc.) are skipped. A malformed global header or an
    unsupported link type is a hard error; a truncated trailing record
    is dropped with a warning.
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

    records: list[PacketRecord] = []
    offset = 24
    total = len(capture_bytes)
    frac_div = 1e9 if ns else 1e6
    while offset < total:
        if offset + 16 > total:
            warnings.warn(f"truncated record header at offset {offset}; record dropped")
            break
        ts_sec, ts_frac, incl_len, orig_len = struct.unpack_from(endian + "IIII", capture_bytes, offset)
        offset += 16
        if offset + incl_len > total:
            warnings.warn(f"truncated record data at offset {offset}; record dropped")
            break
        frame = capture_bytes[offset : offset + incl_len]
        offset += incl_len
        rec = _parse_frame(frame, linktype, ts_sec + ts_frac / frac_div, orig_len)
        if rec is not None:
            records.append(rec)
    return records


def _parse_frame(frame: bytes, linktype: int, timestamp: float, orig_len: int) -> Optional[PacketRecord]:
    if linktype == _LINKTYPE_ETHERNET:
        if len(frame) < 14:
            return None
        ethertype = struct.unpack_from(">H", frame, 12)[0]
        ip_off = 14
        # Traverse one VLAN tag if present.
        if ethertype in (0x8100, 0x88A8):
            if len(frame) < 18:
                return None
            ethertype = struct.unpack_from(">H", frame, 16)[0]
            ip_off = 18
        if ethertype == 0x0800:
            return _parse_ip(frame[ip_off:], 4, timestamp, orig_len)
        if ethertype == 0x86DD:
            return _parse_ip(frame[ip_off:], 6, timestamp, orig_len)
        return None  # non-IP frame
    # Raw-IP link: version nibble decides the family.
    if not frame:
        return None
    version = frame[0] >> 4
    if version in (4, 6):
        return _parse_ip(frame, version, timestamp, orig_len)
    return None


def _parse_ip(dgram: bytes, version: int, timestamp: float, orig_len: int) -> Optional[PacketRecord]:
    if version == 4:
        if len(dgram) < 20:
            return None
        header_len = (dgram[0] & 0x0F) * 4
        if header_len < 20 or len(dgram) < header_len:
            return None
        # The IP total-length field bounds the datagram; bytes beyond it
        # are link-layer padding, not payload.
        ip_total = struct.unpack_from(">H", dgram, 2)[0]
        if header_len <= ip_total < len(dgram):
            dgram = dgram[:ip_total]
        proto = dgram[9]
        src_ip, dst_ip = dgram[12:16], dgram[16:20]
        transport = dgram[header_len:]
    else:
        if len(dgram) < 40:
            return None
        # Extension headers are not traversed; proto comes from Next Header.
        payload_len = struct.unpack_from(">H", dgram, 4)[0]
        if 40 + payload_len < len(dgram):
            dgram = dgram[: 40 + payload_len]
        proto = dgram[6]
        src_ip, dst_ip = dgram[8:24], dgram[24:40]
        transport = dgram[40:]

    src_port = dst_port = 0
    tcp_flags = 0
    payload = b""
    if proto == PROTO_TCP and len(transport) >= 20:
        src_port, dst_port = struct.unpack_from(">HH", transport, 0)
        data_off = (transport[12] >> 4) * 4
        tcp_flags = transport[13]
        if data_off >= 20:
            payload = transport[data_off:]
    elif proto == PROTO_UDP and len(transport) >= 8:
        src_port, dst_port = struct.unpack_from(">HH", transport, 0)
        payload = transport[8:]
    else:
        payload = transport

    return PacketRecord(
        timestamp=timestamp,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        ip_proto=proto,
        tcp_flags=tcp_flags,
        total_length=max(orig_len, len(payload)),
        payload=payload,
    )


def reassemble_sessions(packets: Iterable[PacketRecord]) -> list[SessionFlow]:
    """Group packets into bidirectional flows keyed by canonical five-tuple.

    Every input packet lands in exactly one flow. Within a flow, packets
    are sorted by timestamp (capture order breaks ties) and directions
    are assigned relative to the first packet's sender. Flows are
    returned in order of first appearance in the capture.
    """
    groups: dict[tuple, list[PacketRecord]] = {}  # ((ip, port), (ip, port), proto), lower end first
    for pkt in packets:
        a, b = (pkt.src_ip, pkt.src_port), (pkt.dst_ip, pkt.dst_port)
        groups.setdefault((a, b, pkt.ip_proto) if a <= b else (b, a, pkt.ip_proto), []).append(pkt)

    flows = []
    for ((ip_a, port_a), (ip_b, port_b), proto), pkts in groups.items():
        pkts.sort(key=attrgetter("timestamp"))  # stable, so capture order breaks ties
        flows.append(SessionFlow(key=FiveTuple(ip_a, port_a, ip_b, port_b, proto), packets=directed(pkts)))
    return flows


def directed(pkts: list[PacketRecord]) -> list[tuple[PacketRecord, int]]:
    """Pair each packet with its direction: FORWARD when sent by the first packet's sender."""
    origin_ip, origin_port = pkts[0].src_ip, pkts[0].src_port
    return [(p, FORWARD if p.src_port == origin_port and p.src_ip == origin_ip else BACKWARD) for p in pkts]


def filter_micro_flows(flows: list[SessionFlow], min_packets: int = 3) -> list[SessionFlow]:
    """Drop flows with fewer than ``min_packets`` packets, preserving order.

    ``min_packets=1`` keeps every flow (for classes where every sample counts).
    """
    if min_packets < 1:
        raise ValueError(f"min_packets must be >= 1, got {min_packets}")
    return [f for f in flows if len(f) >= min_packets]


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
_PACKET_HEAD = struct.Struct("<dBB")
_PACKET_TAIL = struct.Struct("<HHBBII")


def check_labels(flows: list[SessionFlow]) -> None:
    """Raise ValueError naming the first flow whose label is outside [0, 2**31), the sidecar's range."""
    for i, flow in enumerate(flows):
        k = flow.key
        if flow.label is not None and not 0 <= flow.label < 2**31:
            raise ValueError(f"flow {i} ({k.ip_a.hex()}:{k.port_a} <-> {k.ip_b.hex()}:{k.port_b}): "
                             f"label {flow.label} is outside [0, 2**31)")


def write_flows(flows: list[SessionFlow], out_dir: str | Path) -> None:
    """Write the manifest/sidecar pair for a flow list; ``check_labels`` runs before anything is written."""
    check_labels(flows)
    lines = []
    blob = bytearray(_SIDECAR_MAGIC + HEADER.pack(_SIDECAR_VERSION, len(flows)))
    for flow in flows:
        k = flow.key
        label_txt = "-" if flow.label is None else str(flow.label)
        lines.append(f"{k.ip_a.hex()}\t{k.port_a}\t{k.ip_b.hex()}\t{k.port_b}\t{k.proto}\t{len(flow)}\t{label_txt}\n")
        blob += _FLOW.pack(len(flow), -1 if flow.label is None else flow.label)
        for pkt, direction in flow.packets:
            blob += _PACKET_HEAD.pack(pkt.timestamp, direction, len(pkt.src_ip))
            blob += pkt.src_ip + pkt.dst_ip
            blob += _PACKET_TAIL.pack(pkt.src_port, pkt.dst_port, pkt.ip_proto, pkt.tcp_flags,
                                      pkt.total_length, len(pkt.payload))
            blob += pkt.payload
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / MANIFEST_NAME, lines)
    write_atomic(out / SIDECAR_NAME, blob)


def read_flows(in_dir: str | Path) -> list[SessionFlow]:
    """Read back a flow list written by :func:`write_flows`.

    A malformed or truncated sidecar raises :class:`CaptureError` naming
    the file and the byte offset where the failing record starts.
    """
    flows = []
    with BinaryReader.open(Path(in_dir) / SIDECAR_NAME, _SIDECAR_MAGIC, _SIDECAR_VERSION, CaptureError) as r:
        for _ in r.records(r.count):
            n_pkts, label = r.unpack(_FLOW)
            if n_pkts == 0:
                raise ValueError("flow record has no packets")
            packets = []
            for _ in r.records(n_pkts):
                ts, direction, ip_len = r.unpack(_PACKET_HEAD)
                src_ip, dst_ip = r.take(ip_len), r.take(ip_len)
                sport, dport, proto, flags, total_len, payload_len = r.unpack(_PACKET_TAIL)
                pkt = PacketRecord(ts, src_ip, dst_ip, sport, dport, proto, flags, total_len, r.take(payload_len))
                packets.append((pkt, direction))
            key = FiveTuple.from_packet(packets[0][0])
            flows.append(SessionFlow(key=key, packets=packets, label=None if label < 0 else label))
        r.end()
    return flows


def relabel(flow: SessionFlow, label: Optional[int]) -> SessionFlow:
    """Copy of a flow with a different label."""
    return replace(flow, label=label)
