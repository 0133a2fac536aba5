"""Canonical forms, isomorphism testing and induced-subgraph search by
refinement + backtracking."""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph, bits


def wl_colors(g: Graph, colors: list[int] | None = None) -> tuple[int, ...]:
    """Refine ``colors`` (default: the degrees) to the coarsest stable colouring.

    Each round recolours a vertex by its colour and the multiset of its
    neighbours' colours.  The result is given as ranks of the sorted
    signatures, so it does not depend on the vertex labels.
    """
    if colors is None:
        colors = [g.degree(v) for v in range(g.n)]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in bits(g.row(v)))))
            for v in range(g.n)
        ]
        relabel = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [relabel[s] for s in sigs]
        if len(relabel) == len(set(colors)):
            return tuple(new)
        colors = new


def induced_embeddings(
    pattern: Graph, host: Graph, *, limit: int = 1
) -> Iterator[tuple[int, ...]]:
    """Yield mappings pattern -> host realising pattern as an induced subgraph.

    Backtracking over pattern vertices in a most-constrained-first static
    order, with degree pruning and bitset consistency: mapped vertices must
    reproduce both pattern adjacency and pattern non-adjacency.
    """
    k, n = pattern.n, host.n
    if k > n:
        return
    # Order pattern vertices so each (after the first) touches earlier ones
    # where possible; high degree first breaks more branches early.
    order: list[int] = []
    placed = 0
    while len(order) < k:
        cands = [v for v in range(k) if not placed >> v & 1]
        cands.sort(key=lambda v: (-(pattern.row(v) & placed).bit_count(), -pattern.degree(v), v))
        v = cands[0]
        order.append(v)
        placed |= 1 << v
    host_deg = [host.degree(v) for v in range(n)]
    pat_deg = [pattern.degree(v) for v in range(k)]

    mapping = [-1] * k
    used = 0
    count = 0

    def candidates(idx: int) -> int:
        v = order[idx]
        cand = host.full_mask & ~used
        for j in range(idx):
            w = order[j]
            hv = mapping[w]
            if pattern.has_edge(v, w):
                cand &= host.row(hv)
            else:
                cand &= ~host.row(hv)
        return cand

    def search(idx: int) -> Iterator[tuple[int, ...]]:
        nonlocal used, count
        if idx == k:
            yield tuple(mapping)
            return
        v = order[idx]
        for hv in bits(candidates(idx)):
            if host_deg[hv] < pat_deg[v]:
                continue
            mapping[v] = hv
            used |= 1 << hv
            yield from search(idx + 1)
            used &= ~(1 << hv)
            mapping[v] = -1

    for m in search(0):
        yield m
        count += 1
        if limit and count >= limit:
            return


def has_induced_subgraph(host: Graph, pattern: Graph) -> bool:
    for _ in induced_embeddings(pattern, host, limit=1):
        return True
    return False


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    if sorted(wl_colors(g)) != sorted(wl_colors(h)):
        return False
    return has_induced_subgraph(h, g)


def find_induced_c5(g: Graph) -> tuple[int, ...] | None:
    """First induced 5-cycle (a,b,c,d,e) in lexicographic order, or None."""
    n = g.n
    for a in range(n):
        ra = g.row(a)
        for b in bits(ra):
            if b == a:
                continue
            rb = g.row(b)
            # c adjacent to b, not to a
            for c in bits(rb & ~ra & ~(1 << a)):
                rc = g.row(c)
                # d adjacent to c, not to a or b
                for d in bits(rc & ~ra & ~rb & ~(1 << a) & ~(1 << b)):
                    rd = g.row(d)
                    # e adjacent to d and a, not to b or c
                    for e in bits(rd & ra & ~rb & ~rc):
                        return (a, b, c, d, e)
    return None


def is_c5_free(g: Graph) -> bool:
    return find_induced_c5(g) is None


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Adjacency rows of a canonical relabelling of ``g``.

    Two graphs get the same key exactly when they are isomorphic.  The key
    is the least relabelled row tuple over the leaves of an
    individualisation-refinement tree (McKay & Piperno, "Practical graph
    isomorphism, II", 2014): refine, take the non-singleton cell with the
    least colour and individualise each of its vertices in turn.  A vertex
    that is a twin of one already tried is skipped, since swapping the two
    is an automorphism that fixes the colouring.  No other symmetry is
    pruned, so this is for desk-scale graphs: the Clebsch graph takes
    about a second; use ``is_isomorphic`` to compare two large graphs.
    """
    best: tuple[int, ...] | None = None

    def search(colors: list[int] | None) -> None:
        nonlocal best
        ranks = wl_colors(g, colors)
        if len(set(ranks)) == g.n:
            leaf = [0] * g.n
            for v in range(g.n):
                leaf[ranks[v]] = sum(1 << ranks[w] for w in bits(g.row(v)))
            if best is None or tuple(leaf) < best:
                best = tuple(leaf)
            return
        least = min(c for c in ranks if ranks.count(c) > 1)
        tried: list[int] = []
        for v in range(g.n):
            if ranks[v] != least:
                continue
            if any(g.row(u) & ~(1 << v) == g.row(v) & ~(1 << u) for u in tried):
                continue
            tried.append(v)
            search([2 * c + (u != v) for u, c in enumerate(ranks)])

    search(None)
    return best
