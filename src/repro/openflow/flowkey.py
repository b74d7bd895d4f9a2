"""The OpenFlow 0.8.9 ten-field flow key.

"Exact-match entries specify all ten fields in a tuple, which is used as
the flow key" (paper Section 6.2.3).  The ten fields of the 0.8.9
``ofp_match`` (minus the wildcards word) are: ingress port, Ethernet
source/destination/VLAN/type, IP source/destination/protocol, and
transport source/destination ports.

``extract_flow_key`` builds the key from a real frame — this is the
per-packet work the paper leaves on the CPU ("flow key extraction"),
while hashing is offloaded to the GPU.  It is the scalar oracle of
:func:`pack_flow_keys`, which extracts and packs a whole batch's keys
as column operations — the data path's form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.net.ethernet import (
    ETHERNET_HEADER_LEN,
    ETHERTYPE_IPV4,
    ETHERTYPE_VLAN,
    EthernetHeader,
    parse_ethernet,
)
from repro.net.frames import FrameBatch
from repro.net.ipv4 import IPV4_HEADER_LEN, IPv4Header, PROTO_TCP, PROTO_UDP
from repro.net.tcp import TCP_HEADER_LEN, TCPHeader
from repro.net.udp import UDP_HEADER_LEN, UDPHeader

#: 0.8.9 "no VLAN" marker.
VLAN_NONE = 0xFFFF

#: Bytes per packed key (:meth:`FlowKey.pack`).
KEY_BYTES = 31
#: ``(offset, width)`` of each field in the packed key, in
#: ``FlowKey.FIELD_NAMES`` order.
KEY_LAYOUT = {
    "in_port": (0, 2),
    "dl_src": (2, 6),
    "dl_dst": (8, 6),
    "dl_vlan": (14, 2),
    "dl_type": (16, 2),
    "nw_src": (18, 4),
    "nw_dst": (22, 4),
    "nw_proto": (26, 1),
    "tp_src": (27, 2),
    "tp_dst": (29, 2),
}
#: Header bytes the key parse can reach: Ethernet, one 802.1Q tag,
#: IPv4 without options, and a TCP header.
_PARSE_BYTES = ETHERNET_HEADER_LEN + 4 + IPV4_HEADER_LEN + TCP_HEADER_LEN


@dataclass(frozen=True)
class FlowKey:
    """The ten-field tuple, hashable for the exact-match table."""

    in_port: int
    dl_src: int
    dl_dst: int
    dl_vlan: int
    dl_type: int
    nw_src: int
    nw_dst: int
    nw_proto: int
    tp_src: int
    tp_dst: int

    #: Field names in wildcard-bit order (for WildcardEntry masks).
    FIELD_NAMES = (
        "in_port", "dl_src", "dl_dst", "dl_vlan", "dl_type",
        "nw_src", "nw_dst", "nw_proto", "tp_src", "tp_dst",
    )

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELD_NAMES)

    def pack(self) -> bytes:
        """Serialise the key to the byte layout the GPU hash kernel sees.

        Fixed widths: port 2, MACs 6 each, VLAN 2, type 2, IPs 4 each,
        proto 1, tports 2 each = 31 bytes per key.
        """
        return (
            self.in_port.to_bytes(2, "big")
            + self.dl_src.to_bytes(6, "big")
            + self.dl_dst.to_bytes(6, "big")
            + self.dl_vlan.to_bytes(2, "big")
            + self.dl_type.to_bytes(2, "big")
            + self.nw_src.to_bytes(4, "big")
            + self.nw_dst.to_bytes(4, "big")
            + self.nw_proto.to_bytes(1, "big")
            + self.tp_src.to_bytes(2, "big")
            + self.tp_dst.to_bytes(2, "big")
        )


def extract_flow_key(frame: bytes, in_port: int) -> FlowKey:
    """Extract the ten-field key from a real Ethernet frame.

    Sees through one 802.1Q tag (the VID lands in ``dl_vlan``; untagged
    frames carry the 0.8.9 VLAN_NONE marker).  Non-IP frames leave the
    network/transport fields zero; IP frames without TCP/UDP leave the
    transport ports zero — matching the 0.8.9 normalisation rules.
    """
    eth, vlan_tag, l3_start = parse_ethernet(frame)
    dl_vlan = vlan_tag.vid if vlan_tag is not None else VLAN_NONE
    nw_src = nw_dst = nw_proto = tp_src = tp_dst = 0
    if eth.ethertype == ETHERTYPE_IPV4 and len(frame) >= (
        l3_start + IPV4_HEADER_LEN
    ):
        ip = IPv4Header.unpack(frame[l3_start:])
        nw_src, nw_dst, nw_proto = ip.src, ip.dst, ip.protocol
        l4_offset = l3_start + IPV4_HEADER_LEN
        rest = frame[l4_offset:]
        if nw_proto == PROTO_UDP and len(rest) >= 8:
            udp = UDPHeader.unpack(bytes(rest))
            tp_src, tp_dst = udp.src_port, udp.dst_port
        elif nw_proto == PROTO_TCP and len(rest) >= 20:
            tcp = TCPHeader.unpack(bytes(rest))
            tp_src, tp_dst = tcp.src_port, tcp.dst_port
    return FlowKey(
        in_port=in_port,
        dl_src=eth.src,
        dl_dst=eth.dst,
        dl_vlan=dl_vlan,
        dl_type=eth.ethertype,
        nw_src=nw_src,
        nw_dst=nw_dst,
        nw_proto=nw_proto,
        tp_src=tp_src,
        tp_dst=tp_dst,
    )


def pack_flow_keys(batch: FrameBatch, in_port: int) -> Tuple[np.ndarray, np.ndarray]:
    """``extract_flow_key(frame, in_port).pack()`` for a whole batch.

    Returns ``(keys, ok)``: ``keys`` is the ``(n, 31)`` uint8 matrix of
    packed keys and ``ok`` masks the frames the scalar extraction
    accepts.  It raises on the rest, whose rows carry no meaning: frames
    shorter than an Ethernet header, a truncated 802.1Q tag, an IPv4
    ethertype whose header is not version 4 with IHL 5, and a TCP header
    whose data offset is below 5.
    """
    head = batch.head(_PARSE_BYTES)
    lengths = batch.lengths
    tagged = (head[:, 12] == ETHERTYPE_VLAN >> 8) & (
        head[:, 13] == ETHERTYPE_VLAN & 0xFF
    )
    # Realign every frame at its (inner) ethertype: columns 0-1 are the
    # ethertype, 2-21 the IPv4 header, 22 on the transport header.
    inner = np.where(tagged[:, None], head[:, 16:], head[:, 12:-4])
    ip = inner[:, 2:22]
    l4 = inner[:, 22:]
    rest = lengths - (ETHERNET_HEADER_LEN + IPV4_HEADER_LEN) - 4 * tagged
    is_ipv4 = (
        (inner[:, 0] == ETHERTYPE_IPV4 >> 8)
        & (inner[:, 1] == ETHERTYPE_IPV4 & 0xFF)
        & (rest >= 0)
    )
    proto = ip[:, 9]
    tcp = is_ipv4 & (proto == PROTO_TCP) & (rest >= TCP_HEADER_LEN)
    ported = tcp | (is_ipv4 & (proto == PROTO_UDP) & (rest >= UDP_HEADER_LEN))
    ok = (lengths >= ETHERNET_HEADER_LEN + 4 * tagged) & ~(
        (is_ipv4 & (ip[:, 0] != 0x45)) | (tcp & (l4[:, 12] < 0x50))
    )

    keys = np.empty((len(batch), KEY_BYTES), dtype=np.uint8)
    keys[:, 0] = in_port >> 8
    keys[:, 1] = in_port & 0xFF
    keys[:, 2:8] = head[:, 6:12]
    keys[:, 8:14] = head[:, 0:6]
    keys[:, 14] = np.where(tagged, head[:, 14] & 0x0F, VLAN_NONE >> 8)
    keys[:, 15] = np.where(tagged, head[:, 15], VLAN_NONE & 0xFF)
    keys[:, 16:18] = inner[:, 0:2]
    keys[:, 18:26] = ip[:, 12:20] * is_ipv4[:, None]
    keys[:, 26] = proto * is_ipv4
    keys[:, 27:31] = l4[:, 0:4] * ported[:, None]
    return keys, ok


def unpack_flow_keys(keys: np.ndarray) -> List[FlowKey]:
    """The :class:`FlowKey` of each packed row (inverse of ``pack``)."""
    columns = []
    for start, width in KEY_LAYOUT.values():
        value = keys[:, start].astype(np.uint64)
        for offset in range(start + 1, start + width):
            value = (value << np.uint64(8)) | keys[:, offset]
        columns.append(value.tolist())
    return [FlowKey(*fields) for fields in zip(*columns)]
