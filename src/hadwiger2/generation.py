"""Isomorph-free exhaustive generation of the alpha<=2 universe.

Triangle-free graphs are generated level by level on the complement
side: every triangle-free graph on k+1 vertices arises from one on k
vertices by adding a vertex k whose neighbourhood is an independent set.
Each class is produced exactly once by canonical augmentation (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998), in three
steps per parent:

1. Least-key filter.  A child passes only when k has the least key
   (degree, sum of the neighbours' degrees) among its vertices, ties
   included.  Key ties are what the last step settles.  The keys are
   read off the parent's degrees and neighbour-degree sums.
2. Sibling orbits.  Of the passing independent sets, one per orbit of
   Aut(parent) is kept; sets in one orbit give isomorphic children.
   Aut(parent) is the group carried from the parent's own acceptance
   when that ran a search.  Otherwise the parent is refined once from
   its degree colouring; automorphisms keep the root colours, so when
   no two sets have the same multiset of root colours, each set is its
   own orbit.  Only when two do is the parent searched, from that root.
3. Canonical orbit.  A child is accepted when k lies in the automorphism
   orbit of m, the vertex of least key with the least canonical label.
   If k's key is strictly least, m = k.  Otherwise three tests decide
   in turn, and only the last one searches:
   - if every tied vertex is a twin of k, accept: swapping twins is an
     automorphism;
   - refine the child once from its degree colouring (``iso._root``, the
     root of the search); refinement orders new colours first by old
     ones, and individualisation keeps that order, so canonical labels
     order the vertices of different root colours as the root does, m
     has the least root colour among the ties, and automorphisms keep
     root colours.  Reject if k's colour is not that least colour;
     accept if every other tie of that colour is a twin of k;
   - otherwise search the child from that root (``iso._search``).  Its
     generators go with the accepted child, for step 2 when it becomes
     a parent.
   So each labelled graph is searched at most once, from the root that
   step 2 or 3 refined for it: 586 searches make the levels up to n = 9,
   against 758 when every parent with two children or more whose group
   was not carried was searched, and 1,730 when every tie was searched
   too.

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

from .graphs import Graph, _set_orbit, bits, complement, is_connected
from .iso import _root, _search

MAX_DESK_N = 11


def independent_set_masks(g: Graph, most: int | None = None) -> list[int]:
    """All independent sets of g as bitmasks, the empty set included, in
    depth-first order; with ``most``, only those of at most ``most``
    vertices, in the same order."""
    out = []
    rows = g.rows()

    def rec(chosen: int, avail: int, room: int) -> None:
        out.append(chosen)
        if not room:
            return
        a = avail
        while a:
            v = a & -a
            a &= ~v
            rec(chosen | v, a & ~rows[v.bit_length() - 1], room - 1)

    rec(0, g.full_mask, g.n if most is None else most)
    return out


def _least_key_children(parent: Graph) -> list[tuple[int, list[int], int]]:
    """``(mask, rows, ties)`` for each independent set ``mask`` of parent
    whose child (adjacency ``rows``) gives the new vertex k the least key
    (degree, sum of the neighbours' degrees); ``ties`` is the mask of the
    vertices whose key equals k's, k included.  Keys are read off the
    parent's degrees and neighbour-degree sums, so ``rows`` is built only
    for the masks that pass."""
    k = parent.n
    prows = parent.rows()
    pdeg = [r.bit_count() for r in prows]
    psum = [sum(pdeg[u] for u in bits(r)) for r in prows]
    of_degree: dict[int, int] = {}
    for v, dv in enumerate(pdeg):
        of_degree[dv] = of_degree.get(dv, 0) | 1 << v
    least = min(pdeg)
    out = []
    for mask in independent_set_masks(parent, least + 1):
        d = mask.bit_count()
        # The least old degree is `least` unless mask covers every vertex of it.
        if d > (least if of_degree[least] & ~mask else least + 1):
            continue
        # In the child a vertex of mask gains 1 to its degree, and k has
        # degree d; these are the old vertices of child degree d.
        s = d + sum(pdeg[u] for u in bits(mask))
        ties = 1 << k
        for v in bits(of_degree.get(d, 0) & ~mask | of_degree.get(d - 1, 0) & mask):
            sv = psum[v] + (prows[v] & mask).bit_count() + (d if mask >> v & 1 else 0)
            if sv < s:
                break
            if sv == s:
                ties |= 1 << v
        else:
            rows = [r | ((mask >> i & 1) << k) for i, r in enumerate(prows)]
            rows.append(mask)
            out.append((mask, rows, ties))
    return out


def _siblings(
    parent: Graph, generators: list[tuple[int, ...]] | None = None
) -> list[tuple[int, list[int], int]]:
    """The first of ``_least_key_children(parent)`` in each orbit of
    Aut(parent) on independent sets.  ``generators``, when given, generate
    Aut(parent).  Otherwise, if parent has two children or more, it is
    refined once: when no two children's sets have the same multiset of
    root colours, each is its own orbit, and else parent is searched from
    that root (module docstring, step 2)."""
    children = _least_key_children(parent)
    if len(children) < 2:
        return children
    if generators is None:
        rows = parent.rows()
        root = _root(rows)
        color = root[2][1]
        shapes = {tuple(sorted(color[v] for v in bits(mask))) for mask, _, _ in children}
        if len(shapes) == len(children):
            return children
        generators = _search(rows, *root).generators
    seen: set[int] = set()
    out = []
    for child in children:
        if child[0] not in seen:
            out.append(child)
            seen |= _set_orbit(child[0], generators)
    return out


def _settle(rows: list[int], ties: int) -> tuple[bool | None, tuple | None]:
    """Accept (True) or reject (False) the child ``rows``, whose new vertex
    k = len(rows) - 1 ties on the least key with the vertices of ``ties``,
    when twins or the root refinement decide; None when only a search
    can (module docstring, step 3).  Returned with the root, as
    ``iso._root(rows)``, when the refinement ran, else None."""
    k = len(rows) - 1
    twins = [v for v in bits(ties) if rows[v] & ~(1 << k) == rows[k] & ~(1 << v)]
    if len(twins) == ties.bit_count():
        return True, None
    root = _root(rows)
    # Colours are the starts of the root's cells, so they order vertices as its ranks do.
    color = root[2][1]
    least = min(color[v] for v in bits(ties))
    if color[k] != least:
        return False, root
    if all(color[v] != least for v in bits(ties) if v not in twins):
        return True, root
    return None, root


def _extend(
    parent: Graph, generators: list[tuple[int, ...]] | None = None
) -> Iterator[tuple[Graph, list[tuple[int, ...]] | None]]:
    """The accepted children of parent, each with the generators of its
    automorphism group when its acceptance searched it (None otherwise):
    one child per sibling orbit, whose new vertex k lies in the orbit of
    the least-key vertex with the least canonical label.  ``generators``
    is passed to ``_siblings``."""
    k = parent.n
    for _, rows, ties in _siblings(parent, generators):
        found = None
        if ties != 1 << k:
            accept, root = _settle(rows, ties)
            if accept is None:
                found = _search(rows, *root)
                first = min(bits(ties), key=found.labelling.__getitem__)
                accept = found.orbits[first] == found.orbits[k]
            if not accept:
                continue
        yield Graph._trusted(rows), found.generators if found else None


def triangle_free_graphs(max_n: int) -> dict[int, list[Graph]]:
    """All unlabelled triangle-free graphs on 1..max_n vertices."""
    if max_n < 1:
        raise ValueError("need max_n >= 1")
    levels: dict[int, list[Graph]] = {1: [Graph(1)]}
    groups: list[list[tuple[int, ...]] | None] = [None]
    for k in range(1, max_n):
        level, carried = [], []
        for parent, generators in zip(levels[k], groups):
            for child, found in _extend(parent, generators):
                level.append(child)
                # The last level is no one's parent: keep no generators for it.
                carried.append(found if k + 1 < max_n else None)
        levels[k + 1], groups = level, carried
    return levels


def connected_alpha2_graphs(n: int, levels=None) -> list[Graph]:
    """The connected graphs with alpha <= 2 on exactly n vertices."""
    if levels is None:
        levels = triangle_free_graphs(n)
    return [g for g in map(complement, levels[n]) if is_connected(g)]
