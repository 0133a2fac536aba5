"""Isomorph-free exhaustive generation of the alpha<=2 universe.

Triangle-free graphs are generated level by level on the complement
side: every triangle-free graph on k+1 vertices arises from one on k
vertices by adding a vertex k whose neighbourhood is an independent set.
Each class is produced exactly once by canonical augmentation (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998), in three
steps per parent:

1. Least-key filter.  A child passes only when k has the least key
   (degree, sum of the neighbours' degrees) among its vertices, ties
   included.  Key ties are what the last step settles.
2. Sibling orbits.  Of the passing independent sets, one per orbit of
   Aut(parent) is kept; sets in one orbit give isomorphic children.
3. Canonical orbit.  A child is accepted when k lies in the automorphism
   orbit of m, the vertex of least key with the least canonical label.
   If k's key is strictly least, m = k and no search is needed.

Exactly once, given one parent per class on the level below.  At least
once: take a triangle-free G and its vertex m.  G - m is isomorphic to a
parent P, N(m) maps to an independent set S of P, and the extension by S
is isomorphic to G with k playing m.  So k has the least key, the kept
set in the orbit of S gives a child isomorphic to G in the same way, and
in that child k is in the orbit of the canonically least least-key
vertex (isomorphisms carry it to an automorphic image of m).  At most
once: if two accepted children are isomorphic, both new vertices lie in
the orbit of the same canonical vertex, so some isomorphism maps k to
k.  It restricts to an isomorphism of the parents, which are therefore
the same graph, and to an automorphism of it carrying one independent
set to the other; step 2 kept only one of them.  No level needs a dict.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph, bits, complement, is_connected
from .iso import search

MAX_DESK_N = 11


def independent_set_masks(g: Graph) -> list[int]:
    """All independent sets of g as bitmasks, the empty set included."""
    out = []

    def rec(chosen: int, avail: int) -> None:
        out.append(chosen)
        a = avail
        while a:
            v = a & -a
            a &= ~v
            vi = v.bit_length() - 1
            rec(chosen | v, a & ~g.row(vi))

    rec(0, g.full_mask)
    return out


def _least_key_children(parent: Graph) -> list[tuple[int, list[int], int]]:
    """``(mask, rows, ties)`` for each independent set ``mask`` of parent
    whose child (adjacency ``rows``) gives the new vertex k the least key
    (degree, sum of the neighbours' degrees); ``ties`` is the mask of the
    vertices whose key equals k's, k included."""
    k = parent.n
    pdeg = [r.bit_count() for r in parent.rows()]
    least = min(pdeg)
    at_least = sum(1 << v for v, dv in enumerate(pdeg) if dv == least)
    out = []
    for mask in independent_set_masks(parent):
        d = mask.bit_count()
        # The least old degree is `least` unless mask covers every vertex of it.
        if d > (least if at_least & ~mask else least + 1):
            continue
        rows = [r | ((mask >> i & 1) << k) for i, r in enumerate(parent.rows())]
        rows.append(mask)
        deg = [r.bit_count() for r in rows]
        s = sum(deg[u] for u in bits(mask))
        ties = 1 << k
        for v in range(k):
            if deg[v] == d:
                sv = sum(deg[u] for u in bits(rows[v]))
                if sv < s:
                    break
                if sv == s:
                    ties |= 1 << v
        else:
            out.append((mask, rows, ties))
    return out


def _siblings(parent: Graph) -> list[tuple[int, list[int], int]]:
    """The first of ``_least_key_children(parent)`` in each orbit of
    Aut(parent) on independent sets."""
    children = _least_key_children(parent)
    if len(children) < 2:
        return children
    generators = search(parent.rows()).generators
    seen: set[int] = set()
    out = []
    for child in children:
        if child[0] in seen:
            continue
        out.append(child)
        seen.add(child[0])
        stack = [child[0]]
        while stack:
            mask = stack.pop()
            for perm in generators:
                image = sum(1 << perm[v] for v in bits(mask))
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
    return out


def _extend(parent: Graph) -> Iterator[Graph]:
    """The accepted children of parent: one per sibling orbit, whose new
    vertex k lies in the orbit of the least-key vertex with the least
    canonical label."""
    k = parent.n
    for _, rows, ties in _siblings(parent):
        if ties != 1 << k:
            found = search(rows)
            first = min(bits(ties), key=found.labelling.__getitem__)
            if found.orbits[first] != found.orbits[k]:
                continue
        yield Graph._trusted(rows)


def _next_level(parents: list[Graph]) -> list[Graph]:
    """The accepted children of each parent in turn.  Precondition: the
    parents are pairwise non-isomorphic; then no two outputs are
    isomorphic, and if the parents cover every class of their level, the
    outputs cover every class of the next."""
    return [child for parent in parents for child in _extend(parent)]


def triangle_free_graphs(max_n: int) -> dict[int, list[Graph]]:
    """All unlabelled triangle-free graphs on 1..max_n vertices."""
    if max_n < 1:
        raise ValueError("need max_n >= 1")
    levels: dict[int, list[Graph]] = {1: [Graph(1)]}
    for k in range(1, max_n):
        levels[k + 1] = _next_level(levels[k])
    return levels


def connected_alpha2_graphs(n: int, levels=None) -> list[Graph]:
    """The connected graphs with alpha <= 2 on exactly n vertices."""
    if levels is None:
        levels = triangle_free_graphs(n)
    return [g for g in map(complement, levels[n]) if is_connected(g)]
