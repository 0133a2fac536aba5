"""Immutable bitset-backed simple graphs and their structural invariants.

Vertices are the dense integers 0..n-1.  Adjacency is stored as one Python
int per vertex (bit j of row i set iff ij is an edge), so neighbourhood
queries, intersections and unions are single word-parallel operations.
Every function in this module is pure; Graph values are safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

INFINITE = math.inf


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _repeat(pattern: int, width: int, total: int) -> int:
    """``pattern``, ``width`` bits wide, repeated to fill ``total`` bits;
    ``total / width`` must be a power of two."""
    while width < total:
        pattern |= pattern << width
        width *= 2
    return pattern


def _transpose(rows: Sequence[int]) -> list[int]:
    """The transpose of the bit matrix with rows ``rows``, each below
    ``2 ** len(rows)``: bit i of row j is bit j of row i.

    The rows are packed into one int, row i from bit ``i * side``, where
    ``side`` is the least power of two that is at least 8 and ``len(rows)``.
    The padded side-by-side matrix is transposed by block swaps (Warren,
    *Hacker's Delight*, section 7-3): for s = side/2, ..., 2, 1, each s-by-s
    block at (i, j + s) trades places with the one at (i + s, j), for i and
    j multiples of 2s.  Each swap is a few shifts and masks of the whole
    int, so a dense 1,000-vertex graph takes milliseconds.
    """
    side = 8
    while side < len(rows):
        side *= 2
    width = side // 8
    t = int.from_bytes(b"".join(r.to_bytes(width, "little") for r in rows), "little")
    s = side // 2
    while s:
        columns = _repeat(((1 << s) - 1) << s, 2 * s, side)
        mask = _repeat(_repeat(columns, side, s * side), 2 * s * side, side * side)
        shift = s * (side - 1)
        swap = ((t >> shift) ^ t) & mask
        t ^= swap ^ (swap << shift)
        s //= 2
    packed = t.to_bytes(width * side, "little")
    return [int.from_bytes(packed[i * width:(i + 1) * width], "little") for i in range(len(rows))]


class Graph:
    """A finite simple loop-free undirected graph.

    Instances are immutable and hashable; equality is exact equality of
    the adjacency relation (same n, same edges, same labels).
    """

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self._rows = tuple(rows)

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "Graph":
        """Build from adjacency bitsets (must already be symmetric, loop-free)."""
        g = cls._trusted(rows)
        full = (1 << g.n) - 1
        for i, row in enumerate(g._rows):
            if row & ~full or row >> i & 1:
                raise ValueError("adjacency rows out of range or with loops")
        if _transpose(g._rows) != list(g._rows):
            raise ValueError("adjacency not symmetric")
        return g

    @classmethod
    def _trusted(cls, rows: Sequence[int]) -> "Graph":
        """Build from rows that are symmetric and loop-free by construction,
        without the checks of ``from_rows``."""
        g = object.__new__(cls)
        g.n = len(rows)
        g._rows = tuple(rows)
        return g

    def row(self, v: int) -> int:
        return self._rows[v]

    def rows(self) -> tuple[int, ...]:
        return self._rows

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self._rows[v]))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            ru = self._rows[u] >> (u + 1)
            for j in bits(ru):
                out.append((u, u + 1 + j))
        return out

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self._rows) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(r.bit_count() for r in self._rows))

    def is_regular(self) -> bool:
        degs = {r.bit_count() for r in self._rows}
        return len(degs) <= 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def complement(g: Graph) -> Graph:
    """Complement graph: uv is an edge iff u != v and uv is not an edge of g."""
    full = g.full_mask
    return Graph._trusted([full & ~r & ~(1 << i) for i, r in enumerate(g.rows())])


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on ``vertices``, relabelled 0..k-1 in increasing order."""
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        raise ValueError("vertex index out of range")
    bit = {v: 1 << i for i, v in enumerate(vs)}
    mask = sum(1 << v for v in vs)
    rows = []
    for v in vs:
        r = 0
        for w in bits(g.row(v) & mask):
            r |= bit[w]
        rows.append(r)
    return Graph._trusted(rows)


def is_connected(g: Graph, within: int | None = None) -> bool:
    """True iff the subgraph induced on the bitmask ``within`` (default: all
    of g) is connected; breadth-first reach from its least vertex."""
    mask = g.full_mask if within is None else within
    seen = frontier = mask & -mask
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.row(v)
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen == mask


def is_triangle_free(g: Graph) -> bool:
    return alpha_at_most_2(complement(g))


def alpha_at_most_2(g: Graph) -> bool:
    """True iff the independence number is at most 2: no u < v < w are
    pairwise non-adjacent."""
    rows = g.rows()
    full = g.full_mask
    for u, ru in enumerate(rows):
        above = full & ~ru & -(2 << u)  # the non-neighbours of u above u
        for v in bits(above):
            if (above & ~rows[v]) >> v + 1:
                return False
    return True


def independence_number_is_2(g: Graph) -> bool:
    """True iff alpha(g) is exactly 2: at most 2, and g is not complete."""
    return alpha_at_most_2(g) and g.edge_count < g.n * (g.n - 1) // 2


@dataclass(frozen=True)
class InflationSpec:
    """A base graph with one non-negative multiplicity per base vertex.

    The expanded graph replaces base vertex x by a clique of size mult[x],
    with full joins between cliques of adjacent base vertices.  The
    projection maps each expanded vertex back to its base vertex.
    """

    base: Graph
    mult: tuple[int, ...]

    def __post_init__(self):
        if len(self.mult) != self.base.n:
            raise ValueError("one multiplicity per base vertex required")
        if any(c < 0 for c in self.mult):
            raise ValueError("multiplicities must be non-negative")
        object.__setattr__(self, "mult", tuple(int(c) for c in self.mult))

    @property
    def is_proper(self) -> bool:
        return all(c >= 1 for c in self.mult)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out = [0]
        for c in self.mult:
            out.append(out[-1] + c)
        return tuple(out)

    @property
    def expanded_n(self) -> int:
        return self.offsets[-1]

    @cached_property
    def projection(self) -> tuple[int, ...]:
        proj = []
        for x, c in enumerate(self.mult):
            proj.extend([x] * c)
        return tuple(proj)

    def block(self, x: int) -> int:
        """Bitmask of expanded vertices projecting to base vertex x."""
        lo, hi = self.offsets[x], self.offsets[x + 1]
        return ((1 << (hi - lo)) - 1) << lo


def inflate(spec: InflationSpec) -> Graph:
    """Expanded graph of an inflation: cliques joined along base edges."""
    n = spec.expanded_n
    proj = spec.projection
    base = spec.base
    block = [spec.block(x) for x in range(base.n)]
    rows = []
    for v in range(n):
        x = proj[v]
        r = block[x] & ~(1 << v)
        for y in bits(base.row(x)):
            r |= block[y]
        rows.append(r)
    return Graph.from_rows(tuple(rows))


def blow_up(spec: InflationSpec) -> Graph:
    """Expanded graph of a blow-up: independent sets joined along base
    edges, that is, the inflation minus the edges inside its blocks."""
    rows = inflate(spec).rows()
    return Graph._trusted([r & ~spec.block(x) for r, x in zip(rows, spec.projection)])


def _layers(g: Graph, root: int) -> Iterator[tuple[int, int, int]]:
    """Breadth-first layers from ``root`` as bitmasks: for d = 0, 1, ...
    yields ``(layer, reach, twice)``, where layer holds the vertices at
    distance d, reach is the union of their neighbourhoods, and twice holds
    the vertices at distance d + 1 with at least two neighbours in layer."""
    seen = layer = 1 << root
    while layer:
        reach = twice = 0
        for v in bits(layer):
            r = g.row(v)
            twice |= reach & r
            reach |= r
        yield layer, reach, twice & ~seen
        layer = reach & ~seen
        seen |= layer


def diameter(g: Graph) -> int | float:
    """Largest eccentricity; INFINITE when disconnected."""
    if g.n == 0:
        raise ValueError("diameter of the empty graph is undefined")
    if not is_connected(g):
        return INFINITE
    return max(sum(1 for _ in _layers(g, root)) - 1 for root in range(g.n))


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle; INFINITE for forests.

    From each root, the first BFS layer d holding an edge closes a cycle
    of length at most 2d + 1, and a vertex of the next layer with two
    neighbours in layer d one of length at most 2d + 2.  A shortest cycle
    is isometric, so from any of its vertices the bound is its length.
    """
    return _shortest_cycle(g, True)


def odd_girth(g: Graph) -> int | float:
    """Length of a shortest odd cycle; INFINITE for bipartite graphs.

    The first BFS layer d holding an edge closes an odd walk of length
    2d+1, and a shortest odd cycle shows up this way from any of its
    vertices.
    """
    return _shortest_cycle(g, False)


def _shortest_cycle(g: Graph, even: bool) -> int | float:
    """Shortest cycle seen in the BFS layers of every root, counting the
    even closures only when ``even``: ``girth`` and ``odd_girth``."""
    best: int | float = INFINITE
    for root in range(g.n):
        for d, (layer, reach, twice) in enumerate(_layers(g, root)):
            if 2 * d + 1 >= best:
                break
            if reach & layer:
                best = 2 * d + 1
                break
            if even and twice:
                best = 2 * d + 2
                break
        if best == 3:
            break
    return best


def twins(g: Graph) -> list[tuple[int, int]]:
    """Non-adjacent pairs with identical neighbourhoods."""
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v) and g.row(u) == g.row(v):
                out.append((u, v))
    return out


def adjacent_twins(g: Graph) -> list[tuple[int, int]]:
    """Adjacent pairs whose neighbourhoods agree off the pair itself."""
    out = []
    for u in range(g.n):
        ru = g.row(u)
        for v in bits(ru >> (u + 1)):
            v += u + 1
            if ru & ~(1 << v) == g.row(v) & ~(1 << u):
                out.append((u, v))
    return out


def _disjoint_paths(g: Graph, s: int, t: int, limit: int) -> int:
    """Max number of internally vertex-disjoint s-t paths (st not an edge),
    capped at ``limit``.

    Augmenting paths on the split graph, where vertex v becomes an arc
    v_in -> v_out of capacity 1 and every edge uv the arcs u_out -> v_in and
    v_out -> u_in.  The flow is kept as ``prv[v]``, the vertex before v on
    the path through v (-1 when v is on no path).  Every s-t separator
    holds all common neighbours w of s and t, so the answer is their number
    plus that of G minus them: with at least ``limit`` of them it is
    ``limit`` at once, and otherwise the flow starts seeded with the paths
    s-w-t.  A seeded w is only entered backwards towards s, which is
    already visited, so the search never reroutes it.  Each further
    augmenting path is found breadth first with one bitset step per
    out-node, and nothing recurses.
    """
    common = g.row(s) & g.row(t)
    flow = common.bit_count()
    if flow >= limit:
        return limit
    n = g.n
    prv = [-1] * n
    for w in bits(common):
        prv[w] = s
    while flow < limit:
        pin = [-1] * n  # v_in was reached from pin[v]_out; v itself: from v_out
        pout = [-1] * n  # v_out was reached from pout[v]_in; v itself: from v_in
        pout[s] = s
        seen_in = 1 << s
        queue = [2 * s + 1]  # node 2v is v_in, 2v + 1 is v_out
        for x in queue:
            v = x >> 1
            if x & 1:
                new = g.row(v) & ~seen_in
                if new >> t & 1:
                    pin[t] = v
                    break
                seen_in |= new
                for w in bits(new):
                    pin[w] = v
                    queue.append(2 * w)
                if prv[v] != -1 and not seen_in >> v & 1:
                    # Back along the saturated arc v_in -> v_out.
                    seen_in |= 1 << v
                    pin[v] = v
                    queue.append(2 * v)
            else:
                # A free vertex goes on to its out-node; a used one can only
                # cancel the arc from its predecessor.
                u = v if prv[v] == -1 else prv[v]
                if pout[u] == -1:
                    pout[u] = v
                    queue.append(2 * u + 1)
        else:
            return flow
        v = t
        while True:
            u = pin[v]
            prv[v] = -1 if u == v else u
            if u == s:
                break
            v = pout[u]
        flow += 1
    return flow


def vertex_connectivity(
    g: Graph, *, at_least: int | None = None, automorphisms: Sequence[tuple[int, ...]] = ()
) -> int:
    """Minimum vertex cut size; n-1 for complete graphs.

    Each pair is settled by Menger's theorem: the number of internally
    vertex-disjoint paths, found as augmenting paths on the split graph by
    bitset breadth-first search (Even-Tarjan), iteratively, so large sparse
    hosts do not hit the recursion limit.  A pair with at least the cap in
    common neighbours needs no search at all (``_disjoint_paths``).  Only
    the pairs of the Esfahanian-Hakimi reduction around v, the first
    vertex of least degree, are solved: v and each non-neighbour t, and
    each non-adjacent pair {x, y} inside N(v).
    With ``at_least=k`` every pair count is capped at k, and the result is
    min(connectivity, k).

    ``automorphisms`` are image tuples of automorphisms of g, trusted and
    not checked.  An automorphism keeps the number of disjoint paths of a
    pair, so one pair per orbit of the ones fixing v is solved: t is the
    least vertex of its orbit, and the pairs inside N(v) come from
    ``_orbit_pairs``.  With none, every pair of the reduction is solved.
    """
    n = g.n
    if n < 2:
        raise ValueError("vertex connectivity needs at least 2 vertices")
    if not is_connected(g):
        return 0
    cap = min(g.degree(v) for v in range(n))
    if at_least is not None:
        cap = min(cap, at_least)
    best = cap
    # Classic reduction: with v a fixed min-degree vertex, every minimum cut
    # is witnessed either by a flow from v to a non-neighbour, or by a flow
    # between two non-adjacent neighbours of v.
    v = min(range(n), key=g.degree)
    fixing = [p for p in automorphisms if p[v] == v]
    nonnbrs = g.full_mask & ~g.row(v) & ~(1 << v)
    for t in bits(_orbit_minima(nonnbrs, fixing)):
        best = min(best, _disjoint_paths(g, v, t, best))
        if best == 0:
            return 0
    for x, y in _orbit_pairs(g.row(v), lambda x: g.row(v) & ~g.row(x) & ~(1 << x), fixing):
        best = min(best, _disjoint_paths(g, x, y, best))
    return best


def _orbit_closure(mask: int, perms: Sequence[tuple[int, ...]]) -> int:
    """The union of the orbits of the vertices in ``mask`` under ``perms``."""
    stack = list(bits(mask)) if perms else []
    while stack:
        v = stack.pop()
        for perm in perms:
            w = perm[v]
            if not mask >> w & 1:
                mask |= 1 << w
                stack.append(w)
    return mask


def _set_orbit(mask: int, perms: Sequence[tuple[int, ...]]) -> set[int]:
    """The orbit of the vertex set ``mask`` under ``perms``, as bitmasks."""
    seen = {mask}
    stack = [mask]
    while stack:
        m = stack.pop()
        for perm in perms:
            image = sum(1 << perm[v] for v in bits(m))
            if image not in seen:
                seen.add(image)
                stack.append(image)
    return seen


def _orbit_minima(mask: int, perms: Sequence[tuple[int, ...]]) -> int:
    """The least vertex of ``mask`` in each orbit of ``perms`` that meets
    it, as a bitmask."""
    least = 0
    while mask:
        low = mask & -mask
        least |= low
        mask &= ~_orbit_closure(low, perms)
    return least


def _orbit_pairs(mask: int, partners: Callable[[int], int], perms: Sequence[tuple[int, ...]]):
    """Pairs (x, y), x < y, x in ``mask`` and y in ``partners(x)``, that
    meet every orbit of ``perms`` on such pairs: x is the least vertex of
    each orbit of ``perms`` on ``mask``, y the least of each orbit on
    ``partners(x)`` of the perms that fix x, and only y > x is kept.
    ``mask`` and ``partners`` must be kept by ``perms``, and ``partners``
    must be symmetric.

    Of the images of a pair, take one whose smaller end m is least.  Then
    m is such an x, and the least image of its partner under the perms
    fixing m lies above m, so that pair is yielded.
    """
    for x in bits(_orbit_minima(mask, perms)):
        fixing = [p for p in perms if p[x] == x]
        for y in bits(_orbit_minima(partners(x), fixing)):
            if y > x:
                yield x, y
