"""Isomorph-free exhaustive generation of the alpha<=2 universe.

Triangle-free graphs are generated level by level on the complement
side: every triangle-free graph on k+1 vertices arises from one on k
vertices by adding a vertex whose neighbourhood is an independent set,
so each level is the deduplicated closure of those extensions.

Before any canonical form is computed, a child is accepted only when its
new vertex has the least key (degree, sum of the neighbours' degrees)
among its vertices, ties included (a canonical-deletion filter after
McKay, "Isomorph-free exhaustive generation", 1998).  This loses no
class: take any triangle-free G and a vertex v of least key.  G - v is
isomorphic to a parent on the level below, and N(v) maps to an
independent set S of that parent; the extension by S is isomorphic to G,
and its new vertex has v's key, so it is accepted.  Deduplication keys
every accepted child by its canonical form and keeps the first accepted
child in each class, so levels are reproducible, labels included.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph, bits, complement, is_connected
from .iso import canonical_form

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


def _extend(parent: Graph) -> Iterator[Graph]:
    """The children of parent whose new vertex k has the least key
    (degree, sum of the neighbours' degrees); ties pass."""
    k = parent.n
    pdeg = [r.bit_count() for r in parent.rows()]
    least = min(pdeg)
    at_least = sum(1 << v for v, dv in enumerate(pdeg) if dv == least)
    for mask in independent_set_masks(parent):
        d = mask.bit_count()
        # The least old degree is `least` unless mask covers every vertex of it.
        if d > (least if at_least & ~mask else least + 1):
            continue
        rows = [r | ((mask >> i & 1) << k) for i, r in enumerate(parent.rows())]
        rows.append(mask)
        deg = [r.bit_count() for r in rows]
        s = sum(deg[u] for u in bits(mask))
        if any(deg[v] == d and sum(deg[u] for u in bits(rows[v])) < s for v in range(k)):
            continue
        yield Graph.from_rows(rows)


def _next_level(parents: list[Graph]) -> list[Graph]:
    """One representative of each class of accepted one-vertex extensions,
    in order of first appearance."""
    seen: dict[tuple[int, ...], Graph] = {}
    for parent in parents:
        for child in _extend(parent):
            seen.setdefault(canonical_form(child), child)
    return list(seen.values())


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
