"""Reader and writer for the graph6 format.

Encoding is bit-exact per the format definition: the vertex count is one
byte n+63 for n <= 62 (with the 4- and 8-byte extended headers above
that), followed by the upper triangle of the adjacency matrix read
column-by-column, packed six bits per byte, each byte offset by 63.
"""

from __future__ import annotations

from .graphs import Graph

_HEADER = ">>graph6<<"


def _encode_n(n: int) -> str:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return chr(126) + "".join(
            chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0)
        )
    if n <= 68719476735:
        return chr(126) + chr(126) + "".join(
            chr(((n >> shift) & 63) + 63) for shift in (30, 24, 18, 12, 6, 0)
        )
    raise ValueError("graph too large for graph6")


def write_graph6(g: Graph) -> str:
    out = [_encode_n(g.n)]
    bit_buffer = 0
    nbits = 0
    for col in range(1, g.n):
        for row_i in range(col):
            bit_buffer = (bit_buffer << 1) | (g.row(row_i) >> col & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(bit_buffer + 63))
                bit_buffer = 0
                nbits = 0
    if nbits:
        bit_buffer <<= 6 - nbits
        out.append(chr(bit_buffer + 63))
    return "".join(out)


def read_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("invalid graph6 character")
    if data[0] == 63:
        if len(data) >= 2 and data[1] == 63:
            n = 0
            for b in data[2:8]:
                n = n << 6 | b
            body = data[8:]
        else:
            n = 0
            for b in data[1:4]:
                n = n << 6 | b
            body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError("graph6 body has wrong length")
    rows = [0] * n
    idx = 0
    for col in range(1, n):
        for row_i in range(col):
            byte = body[idx // 6]
            bit = byte >> (5 - idx % 6) & 1
            if bit:
                rows[row_i] |= 1 << col
                rows[col] |= 1 << row_i
            idx += 1
    # Each bit sets both rows[row_i] and rows[col], row_i < col < n.
    return Graph._trusted(rows)

