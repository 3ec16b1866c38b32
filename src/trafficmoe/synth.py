"""Synthetic traffic: class-distinct TCP flows, built as packet tables, and their capture file.

Classes differ in server port, payload alphabet, packet sizing, and
timing, giving classifiers a learnable but non-trivial signal.
``flows_to_pcap`` writes generated flows as one capture, so they can
exercise the ingest path end to end.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .flows import BACKWARD, FORWARD, PACKET_COLUMNS, PROTO_TCP, FlowTable, PacketTable, SessionFlow, write_pcap


def synth_flow(rng: np.random.Generator, label: int = 0, n_packets: Optional[int] = None) -> SessionFlow:
    """One synthetic conversation whose byte patterns depend on ``label``."""
    if n_packets is None:
        n_packets = int(rng.integers(3, 14))
    t = float(rng.uniform(0, 1e5))
    client_ip = bytes([10, 0, label % 250, int(rng.integers(2, 250))])
    server_ip = bytes([192, 168, label % 250, 1])
    client_port = int(rng.integers(32768, 60000))
    server_port = 4000 + 7 * label
    # class-specific payload alphabet (wide ints, wrapped to bytes) and burst scale
    alphabet = ((np.arange(16) * 13 + 37 * label) % 256).astype(np.uint8)
    iat_scale = 0.001 * (1 + label)

    # The flow's buffer holds the client's address at 0, the server's at 4, then the payloads. Packets
    # alternate client to server and back: (src, sport, dst, dport, dir) of each side.
    sides = ((0, client_port, 4, server_port, FORWARD), (4, server_port, 0, client_port, BACKWARD))
    rows, payloads, at = [], [], 8
    for i in range(n_packets):
        plen = 0
        if i >= 2:  # the handshake's SYN and SYN-ACK carry no payload
            plen = int(rng.integers(8, 40 + 8 * (label + 1)))
            payloads.append(rng.choice(alphabet, size=plen).tobytes())
        src, sport, dst, dport, direction = sides[i % 2]
        flags = 0x02 if i == 0 else (0x12 if i == 1 else 0x18)
        rows.append((t, src, 4, dst, 4, sport, dport, PROTO_TCP, flags, max(54 + plen, 60), at, plen, direction))
        at += plen
        t += float(rng.exponential(iat_scale))
    return SessionFlow(PacketTable(client_ip + server_ip + b"".join(payloads), np.array(rows, PACKET_COLUMNS)), label)


def synth_flows(
    n_flows: int,
    n_classes: int = 2,
    seed: int = 0,
    n_packets: Optional[int] = None,
) -> list[SessionFlow]:
    """Balanced list of labeled synthetic flows (round-robin classes)."""
    rng = np.random.default_rng(seed)
    return [synth_flow(rng, label=i % n_classes, n_packets=n_packets) for i in range(n_flows)]


def flows_to_pcap(flows: Sequence[SessionFlow], path: str | Path) -> None:
    """Write the packets of the flows as one capture, in time order; equal times keep flow order."""
    packets = FlowTable.of(flows).packets
    write_pcap(PacketTable(packets.data, packets.rows[np.argsort(packets.rows["ts"], kind="stable")]), path)
