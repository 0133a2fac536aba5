"""Isomorph-free exhaustive generation of the alpha<=2 universe.

Triangle-free graphs are generated level by level on the complement
side: every triangle-free graph on k+1 vertices arises from one on k
vertices by adding a vertex whose neighbourhood is an independent set,
so each level is the deduplicated closure of those extensions.
Deduplication keys every child by its canonical form and keeps the first
child seen in each class, so levels are reproducible, labels included.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph, complement, is_connected
from .iso import canonical_form

MAX_DESK_N = 10


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
    k = parent.n
    for mask in independent_set_masks(parent):
        rows = [r | ((mask >> i & 1) << k) for i, r in enumerate(parent.rows())]
        rows.append(mask)
        yield Graph.from_rows(tuple(rows))


def _next_level(parents: list[Graph]) -> list[Graph]:
    """One representative of each class of one-vertex extensions, in order of
    first appearance."""
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
