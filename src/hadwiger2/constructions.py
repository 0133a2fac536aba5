"""Constructors for the concrete graph families, each self-verified at build.

Every named constructor checks the structural parameters it is supposed
to have (regularity, strong regularity, girth, diameter, or srg
parameters that imply them) and raises ConstructionError if the check
fails, so a bad build can never leak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .graphs import (
    Graph,
    bits,
    diameter,
    girth,
    is_triangle_free,
)
from .rng import SplitMix64


class ConstructionError(RuntimeError):
    """A constructor failed its structural self-verification."""


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ConstructionError(message)


@dataclass(frozen=True)
class SrgParams:
    n: int
    k: int
    lam: int
    mu: int

    def __post_init__(self):
        if self.k * (self.k - self.lam - 1) != (self.n - self.k - 1) * self.mu:
            raise ConstructionError(f"inconsistent srg parameters {self}")


def srg_parameters(g: Graph) -> SrgParams | None:
    """The (n,k,lambda,mu) parameters if g is strongly regular, else None."""
    if g.n < 2 or not g.is_regular():
        return None
    k = g.degree(0)
    lam = mu = None
    for u in range(g.n):
        ru = g.row(u)
        for v in range(u + 1, g.n):
            common = (ru & g.row(v)).bit_count()
            if ru >> v & 1:
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    return SrgParams(g.n, k, lam or 0, mu or 0)


def verify_srg(g: Graph, n: int, k: int, lam: int, mu: int, name: str) -> None:
    params = srg_parameters(g)
    if params != SrgParams(n, k, lam, mu):
        raise ConstructionError(f"{name}: expected srg({n},{k},{lam},{mu}), got {params}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def petersen() -> Graph:
    """Outer 5-cycle, inner pentagram, spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    g = Graph(10, edges)
    _check(g.is_regular() and g.degree(0) == 3 and girth(g) == 5, "petersen build")
    return g


def wheel5() -> Graph:
    """5-cycle plus a hub adjacent to every rim vertex."""
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]
    return Graph(6, edges)


def hypercube(d: int) -> Graph:
    if d < 0:
        raise ValueError("dimension must be non-negative")
    n = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
    return Graph(n, edges)


def clebsch() -> Graph:
    """4-dimensional hypercube plus the 8 antipodal diagonals."""
    g = hypercube(4)
    rows = list(g.rows())
    for v in range(16):
        rows[v] |= 1 << (v ^ 0b1111)
    g = Graph.from_rows(tuple(rows))
    # mu = 2 >= 1: non-adjacent vertices have a common neighbour, so diameter 2.
    verify_srg(g, 16, 5, 0, 2, "clebsch")
    return g


def kneser_labels(n: int, k: int) -> list[tuple[int, ...]]:
    """The k-subsets of range(n) in colexicographic order."""
    return sorted(combinations(range(n), k), key=lambda c: tuple(reversed(c)))


def _subset_masks(n: int, k: int) -> list[int]:
    out = []
    for c in kneser_labels(n, k):
        m = 0
        for x in c:
            m |= 1 << x
        out.append(m)
    return out


def _intersection_graph(n: int, k: int, sizes: int) -> Graph:
    """k-subsets of range(n) in colexicographic order, distinct ones
    adjacent iff the size of their intersection is a bit of ``sizes``.

    Row i is read off bitmasks over the subsets: ``exact[c]`` holds those
    that meet c of the elements of subset i seen so far, and each element
    x moves the subsets containing x up by one.  Adjacency depends only on
    |A & B|, which is symmetric, and bit i is cleared from row i, so the
    rows skip the checks of ``Graph.from_rows``.
    """
    masks = _subset_masks(n, k)
    containing = [0] * n
    for j, m in enumerate(masks):
        for x in bits(m):
            containing[x] |= 1 << j
    full = (1 << len(masks)) - 1
    rows = []
    for i, m in enumerate(masks):
        exact = [full]
        for x in bits(m):
            s = containing[x]
            exact = [e & ~s | f & s for e, f in zip(exact + [0], [0] + exact)]
        rows.append(sum(e for c, e in enumerate(exact) if sizes >> c & 1) & ~(1 << i))
    return Graph._trusted(rows)


def kneser(n: int, k: int) -> Graph:
    """Kneser graph: k-subsets adjacent iff disjoint."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return _intersection_graph(n, k, 1)


def generalized_kneser_geq(n: int, k: int, t: int) -> Graph:
    """k-subsets adjacent iff they intersect in at least t elements."""
    if not (1 <= k <= n and t >= 1):
        raise ValueError("need 1 <= k <= n and t >= 1")
    return _intersection_graph(n, k, -1 << t)  # sizes t, t + 1, ...


def generalized_kneser_leq(n: int, k: int, t: int) -> Graph:
    """k-subsets adjacent iff they intersect in at most t elements (t >= 0)."""
    if t < 0:
        raise ValueError("need t >= 0")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return _intersection_graph(n, k, (2 << t) - 1)


def andrasfai(d: int) -> Graph:
    """d-regular triangle-free diameter-2 graph on 3d-1 vertices."""
    if d < 1:
        raise ValueError("parameter must be positive")
    n = 3 * d - 1
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if abs(i - j) % 3 == 1
    ]
    g = Graph(n, edges)
    _check(g.is_regular() and g.degree(0) == d, "andrasfai: regularity")
    _check(is_triangle_free(g), "andrasfai: triangle-free")
    if d >= 2:
        _check(diameter(g) == 2, "andrasfai: diameter")
    return g


def hoffman_singleton() -> Graph:
    """Five pentagons and five pentagrams glued by the h*i+j rule.

    Vertex (h,j) of pentagon P_h is 5*h+j; vertex (i,j) of pentagram Q_i
    is 25+5*i+j.  P_h has edges j ~ j+1 (mod 5), Q_i has edges j ~ j+2
    (mod 5), and vertex j of P_h is adjacent to vertex h*i+j (mod 5) of Q_i.
    """
    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((5 * h + j, 5 * h + (j + 1) % 5))
    for i in range(5):
        for j in range(5):
            edges.append((25 + 5 * i + j, 25 + 5 * i + (j + 2) % 5))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((5 * h + j, 25 + 5 * i + (h * i + j) % 5))
    g = Graph(50, set(tuple(sorted(e)) for e in edges))
    # lambda = 0 rules out triangles and mu = 1 4-cycles; mu >= 1 gives
    # diameter 2, and a regular graph of diameter 2 has girth at most 5.
    verify_srg(g, 50, 7, 0, 1, "hoffman_singleton")
    return g


def group_elements(orders: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Elements of the direct product of cyclic groups, mixed-radix order."""
    elems = [()]
    for o in orders:
        elems = [e + (x,) for e in elems for x in range(o)]
    return elems


def group_index(orders: tuple[int, ...], element: tuple[int, ...]) -> int:
    idx = 0
    for o, x in zip(orders, element):
        idx = idx * o + (x % o)
    return idx


def _connection_set(orders, connection) -> tuple[tuple[int, ...], set[tuple[int, ...]]]:
    """The cyclic orders and the connection set reduced mod them, checked
    to be a valid Cayley connection set: no identity, inverse-closed."""
    orders = tuple(int(o) for o in orders)
    if any(o < 1 for o in orders):
        raise ValueError("cyclic orders must be positive")
    s = set()
    for e in connection:
        t = tuple(x % o for x, o in zip(e, orders))
        if len(t) != len(orders):
            raise ValueError("connection element arity mismatch")
        s.add(t)
    if tuple(0 for _ in orders) in s:
        raise ValueError("connection set must not contain the identity")
    for e in s:
        inv = tuple((-x) % o for x, o in zip(e, orders))
        if inv not in s:
            raise ValueError(f"connection set not inverse-closed at {e}")
    return orders, s


def cayley_abelian(orders, connection) -> Graph:
    """Cayley graph of a product of cyclic groups on an inverse-closed set."""
    orders, s = _connection_set(orders, connection)
    elems = group_elements(orders)
    n = len(elems)
    rows = [0] * n
    for i, a in enumerate(elems):
        for e in s:
            b = tuple((x + y) % o for x, y, o in zip(a, e, orders))
            rows[i] |= 1 << group_index(orders, b)
    return Graph.from_rows(tuple(rows))


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, math.isqrt(p) + 1):
        if p % q == 0:
            return False
    return True


def eberhard_connection(p: int) -> set[tuple[int, int]]:
    return {(x, (x * x) % p) for x in range(1, p)} | {
        (x, (-x * x) % p) for x in range(1, p)
    }


def eberhard(p: int) -> Graph:
    """Cayley graph of F_p x F_p on {(x, +-x^2) : x != 0}, p prime, p = 11 mod 12."""
    if not is_prime(p) or p % 12 != 11:
        raise ValueError("parameter must be a prime congruent to 11 mod 12")
    s = eberhard_connection(p)
    g = cayley_abelian((p, p), s)
    _check(g.is_regular() and g.degree(0) == 2 * (p - 1), "eberhard: regularity")
    _check(is_triangle_free(g), "eberhard: triangle-free")
    _check(diameter(g) == 2, "eberhard: diameter")
    # No K_{2,7} subgraph: every vertex pair has at most 6 common neighbours.
    for u in range(g.n):
        ru = g.row(u)
        for v in range(u + 1, g.n):
            _check(
                (ru & g.row(v)).bit_count() <= 6,
                "eberhard: contains K_{2,7}",
            )
    return g


def triangle_free_process(n: int, seed: int) -> Graph:
    """Random edge-maximal triangle-free graph grown edge by edge.

    At each step one addable edge (a non-edge whose endpoints have no
    common neighbour) is drawn with the seeded splitmix64 generator, as
    the k-th in (u, v) order; the process stops when no edge can be
    added.  ``addable[u]`` holds the addable partners v > u, and adding uv
    clears uv, u's pairs with N(v) and v's pairs with N(u): those are the
    only pairs that gain a common neighbour; a's pairs with the w > a in
    N(b) leave row a in one mask operation.  ``count[u]`` is the number of
    bits in ``addable[u]``, lowered wherever a bit is cleared, so the draw
    finds its row by reading ints.  Within the row, the k-th set bit is
    found by halving: keep the low half if it holds more than k set bits,
    else skip it and lower k by its count; the last few are popped.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = SplitMix64(seed)
    rows = [0] * n
    full = (1 << n) - 1
    addable = [full & ~((2 << u) - 1) for u in range(n)]
    count = [n - 1 - u for u in range(n)]
    total = n * (n - 1) // 2
    while total:
        k = rng.randrange(total)
        u = 0
        while k >= count[u]:
            k -= count[u]
            u += 1
        mask, v = addable[u], 0
        while k >= 8:
            half = mask.bit_length() >> 1
            low = mask & ((1 << half) - 1)
            c = low.bit_count()
            if k < c:
                mask = low
            else:
                k -= c
                mask >>= half
                v += half
        for _ in range(k):
            mask &= mask - 1
        v += (mask & -mask).bit_length() - 1
        addable[u] ^= 1 << v
        count[u] -= 1
        total -= 1
        for a, b in ((u, v), (v, u)):
            hit = addable[a] & rows[b]
            addable[a] ^= hit
            count[a] -= hit.bit_count()
            total -= hit.bit_count()
            for w in bits(rows[b] & ((1 << a) - 1)):
                if addable[w] >> a & 1:
                    addable[w] ^= 1 << a
                    count[w] -= 1
                    total -= 1
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    g = Graph.from_rows(tuple(rows))
    _check(is_triangle_free(g), "triangle_free_process: triangle-free")
    # Edge-maximal: every non-neighbour of u has a common neighbour with u.
    rows = g.rows()
    for u, ru in enumerate(rows):
        reach = ru | 1 << u
        for w in bits(ru):
            reach |= rows[w]
        _check(reach == full, "triangle_free_process: not edge-maximal")
    return g


def sum_free_checks(orders, connection) -> dict[str, bool]:
    """Direct definition checks for sum-free and sum-free-maximal sets."""
    orders, s = _connection_set(orders, connection)
    zero = tuple(0 for _ in orders)

    def add(a, b):
        return tuple((x + y) % o for x, y, o in zip(a, b, orders))

    def sum_free(t: set) -> bool:
        return all(add(x, y) not in t for x in t for y in t)

    is_sum_free = sum_free(s)
    elems = group_elements(orders)
    maximal = all(
        not sum_free(s | {z}) for z in elems if z != zero and z not in s
    )
    return {"sum_free": is_sum_free, "sum_free_maximal": maximal}
