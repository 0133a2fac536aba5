"""Reader and writer for the graph6 format.

Encoding is bit-exact per the format definition: the vertex count is one
byte n+63 for n <= 62 (with the 4- and 8-byte extended headers above
that), followed by the upper triangle of the adjacency matrix read
column-by-column, packed six bits per byte, each byte offset by 63.

Both directions work a column at a time rather than a bit at a time.
Column j is the low j bits of row j (its lower neighbours), lowest row
first.  The writer formats each column as a reversed binary string and
maps each 6 bits of the stream to one character.  The reader expands the
body into a bit string through a table, reads each column with one
slice, and fills the upper triangle with one bit-matrix transpose.
"""

from __future__ import annotations

from .graphs import Graph, _transpose

_HEADER = ">>graph6<<"
# The six bits of each body character, high bit first, and back.
_TO_BITS = {63 + b: format(b, "06b") for b in range(64)}
_FROM_BITS = {format(b, "06b"): chr(63 + b) for b in range(64)}


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
    rows = g.rows()
    # Column j's bits are rows 0..j-1 of bit j, that is the low j bits of
    # row j, written lowest row first.
    stream = "".join([format(rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.n)])
    stream += "0" * (-len(stream) % 6)
    return _encode_n(g.n) + "".join([_FROM_BITS[stream[i:i + 6]] for i in range(0, len(stream), 6)])


def read_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise ValueError("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        raise ValueError("invalid graph6 character")
    if s[0] == "~":
        start, end = (2, 8) if s[1:2] == "~" else (1, 4)
        if len(s) < end:
            raise ValueError("truncated graph6 header")
        n = 0
        for c in s[start:end]:
            n = n << 6 | ord(c) - 63
        body = s[end:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if len(body) != (n * (n - 1) // 2 + 5) // 6:
        raise ValueError("graph6 body has wrong length")
    stream = body.translate(_TO_BITS)
    # Column j holds the lower neighbours of j, row 0 first (none for
    # j = 0); the upper triangle is the transpose of the lower one.
    lower = [int("0" + stream[j * (j - 1) // 2:j * (j + 1) // 2][::-1], 2) for j in range(n)]
    return Graph._trusted([r | t for r, t in zip(lower, _transpose(lower))])
