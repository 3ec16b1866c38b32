"""Hand-rolled packet/capture crafting for fixtures.

Deliberately independent of the package's writer: every header is packed
field by field here, so parser tests check against bytes we control.
"""

import struct

ETH_IPV4 = 0x0800
ETH_IPV6 = 0x86DD
ETH_ARP = 0x0806


def ethernet(payload: bytes, ethertype: int = ETH_IPV4, vlan: int | None = None) -> bytes:
    """An Ethernet II frame, with one 802.1Q tag carrying VLAN id ``vlan`` if it is given."""
    tag = b"" if vlan is None else struct.pack(">HH", 0x8100, vlan)
    return b"\xaa" * 6 + b"\xbb" * 6 + tag + struct.pack(">H", ethertype) + payload


def ipv4(
    src: bytes,
    dst: bytes,
    proto: int,
    payload: bytes,
    ttl: int = 64,
) -> bytes:
    total = 20 + len(payload)
    header = struct.pack(">BBHHHBBH4s4s", 0x45, 0, total, 0x1234, 0, ttl, proto, 0, src, dst)
    return header + payload


def ipv6(src: bytes, dst: bytes, next_header: int, payload: bytes) -> bytes:
    header = struct.pack(">IHBB16s16s", 0x60000000, len(payload), next_header, 64, src, dst)
    return header + payload


def tcp(sport: int, dport: int, flags: int, payload: bytes = b"", data_offset: int = 5) -> bytes:
    header = struct.pack(
        ">HHIIBBHHH", sport, dport, 1000, 2000, data_offset << 4, flags, 8192, 0, 0
    )
    header += b"\x00" * (4 * (data_offset - 5))
    return header + payload


def udp(sport: int, dport: int, payload: bytes = b"") -> bytes:
    return struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload


def arp_frame() -> bytes:
    body = struct.pack(">HHBBH", 1, ETH_IPV4, 6, 4, 1) + b"\x00" * 20
    return ethernet(body, ETH_ARP)


def pcap(
    frames: list[tuple[float, bytes]],
    magic: int = 0xA1B2C3D4,
    little_endian: bool = True,
    nanos: bool = False,
    linktype: int = 1,
    snaplen: int = 65535,
    orig_lens: list[int] | None = None,
) -> bytes:
    """Assemble a classic capture from (timestamp, frame) pairs."""
    endian = "<" if little_endian else ">"
    blob = struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, snaplen, linktype)
    for i, (ts, frame) in enumerate(frames):
        sec = int(ts)
        frac = int(round((ts - sec) * (1e9 if nanos else 1e6)))
        orig = orig_lens[i] if orig_lens else len(frame)
        blob += struct.pack(endian + "IIII", sec, frac, len(frame), orig)
        blob += frame
    return blob


def syn_frame_60(src=b"\x0a\x00\x00\x01", dst=b"\x0a\x00\x00\x02", sport=1234, dport=80) -> bytes:
    """A minimal TCP SYN padded to the 60-byte Ethernet minimum."""
    frame = ethernet(ipv4(src, dst, 6, tcp(sport, dport, 0x02)))
    return frame + b"\x00" * (60 - len(frame))
