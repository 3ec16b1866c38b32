"""Synthetic traffic generators: class-distinct flows and capture files.

Classes differ in server port, payload alphabet, packet sizing, and
timing, giving classifiers a learnable but non-trivial signal. Also
provides a classic-capture writer so generated flows can exercise the
ingest path end to end.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .flows import BACKWARD, FORWARD, PROTO_TCP, PROTO_UDP, FiveTuple, PacketRecord, SessionFlow


def synth_flow(
    rng: np.random.Generator,
    label: int = 0,
    n_packets: Optional[int] = None,
    start_time: Optional[float] = None,
    proto: int = PROTO_TCP,
) -> SessionFlow:
    """One synthetic conversation whose byte patterns depend on ``label``."""
    if n_packets is None:
        n_packets = int(rng.integers(3, 14))
    if start_time is None:
        start_time = float(rng.uniform(0, 1e5))
    client_ip = bytes([10, 0, label % 250, int(rng.integers(2, 250))])
    server_ip = bytes([192, 168, label % 250, 1])
    client_port = int(rng.integers(32768, 60000))
    server_port = 4000 + 7 * label
    # class-specific payload alphabet (wide ints, wrapped to bytes) and burst scale
    alphabet = ((np.arange(16) * 13 + 37 * label) % 256).astype(np.uint8)
    iat_scale = 0.001 * (1 + label)

    packets = []
    t = start_time
    for i in range(n_packets):
        outbound = i % 2 == 0
        if proto == PROTO_TCP:
            flags = 0x02 if i == 0 else (0x12 if i == 1 else 0x18)
        else:
            flags = 0
        if i < 2 and proto == PROTO_TCP:
            payload = b""
        else:
            size = int(rng.integers(8, 40 + 8 * (label + 1)))
            payload = bytes(rng.choice(alphabet, size=size).astype(np.uint8))
        frame_len = 54 + len(payload)
        packets.append(
            (
                PacketRecord(
                    timestamp=t,
                    src_ip=client_ip if outbound else server_ip,
                    dst_ip=server_ip if outbound else client_ip,
                    src_port=client_port if outbound else server_port,
                    dst_port=server_port if outbound else client_port,
                    ip_proto=proto,
                    tcp_flags=flags if proto == PROTO_TCP else 0,
                    total_length=max(frame_len, 60),
                    payload=payload,
                ),
                FORWARD if outbound else BACKWARD,
            )
        )
        t += float(rng.exponential(iat_scale))
    key = FiveTuple.from_packet(packets[0][0])
    return SessionFlow(key=key, packets=packets, label=label)


def synth_flows(
    n_flows: int,
    n_classes: int = 2,
    seed: int = 0,
    n_packets: Optional[int] = None,
) -> list[SessionFlow]:
    """Balanced list of labeled synthetic flows (round-robin classes)."""
    rng = np.random.default_rng(seed)
    return [synth_flow(rng, label=i % n_classes, n_packets=n_packets) for i in range(n_flows)]


# -- capture writer ------------------------------------------------------------

_SRC_MAC = bytes.fromhex("020000000001")
_DST_MAC = bytes.fromhex("020000000002")


def build_frame(pkt: PacketRecord) -> bytes:
    """Minimal Ethernet/IPv4 frame carrying one packet record."""
    if len(pkt.src_ip) != 4:
        raise ValueError("capture writer supports IPv4 records only")
    if pkt.ip_proto == PROTO_TCP:
        transport = struct.pack(
            ">HHIIBBHHH",
            pkt.src_port,
            pkt.dst_port,
            0,
            0,
            5 << 4,
            pkt.tcp_flags,
            65535,
            0,
            0,
        ) + pkt.payload
    elif pkt.ip_proto == PROTO_UDP:
        transport = struct.pack(">HHHH", pkt.src_port, pkt.dst_port, 8 + len(pkt.payload), 0)
        transport += pkt.payload
    else:
        transport = pkt.payload
    total_len = 20 + len(transport)
    ip = struct.pack(
        ">BBHHHBBH4s4s",
        0x45,
        0,
        total_len,
        0,
        0,
        64,
        pkt.ip_proto,
        0,
        pkt.src_ip,
        pkt.dst_ip,
    ) + transport
    return _DST_MAC + _SRC_MAC + struct.pack(">H", 0x0800) + ip


def write_pcap(
    packets: Sequence[PacketRecord], path: Optional[str | Path] = None
) -> Optional[bytes]:
    """Emit a classic little-endian microsecond capture of the packets."""
    blob = bytearray()
    blob += struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    for pkt in packets:
        frame = build_frame(pkt)
        sec = int(pkt.timestamp)
        usec = int(round((pkt.timestamp - sec) * 1e6))
        if usec >= 1_000_000:
            sec, usec = sec + 1, usec - 1_000_000
        orig = max(pkt.total_length, len(frame))
        blob += struct.pack("<IIII", sec, usec, len(frame), orig)
        blob += frame
    if path is None:
        return bytes(blob)
    Path(path).write_bytes(bytes(blob))
    return None


def flows_to_pcap(flows: Sequence[SessionFlow], path: str | Path) -> None:
    """Interleave flow packets by timestamp into one capture file."""
    packets = [pkt for flow in flows for pkt, _ in flow.packets]
    packets.sort(key=lambda p: p.timestamp)
    write_pcap(packets, path)
