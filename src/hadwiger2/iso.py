"""Canonical forms and isomorphism testing by individualisation-refinement
on an explicit stack, and induced-subgraph search by backtracking.

Colour refinement works on an ordered partition, as in nauty: the
vertices are listed cell by cell, a vertex's colour is the start of its
cell, and a split rewrites only its cell's slice.  Rounds recolour by
the sorted colours of the neighbours, but each round recomputes only the
vertices next to a cell that split in the round before."""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from .graphs import Graph, _orbit_closure, bits


def _gathers(nbrs: list[list[int]]) -> list:
    """For each vertex v, a function taking a colouring to the tuple of the
    colours of v's neighbours."""
    out = []
    for nb in nbrs:
        if len(nb) > 1:
            out.append(itemgetter(*nb))
        elif nb:
            out.append(lambda colors, w=nb[0]: (colors[w],))
        else:
            out.append(lambda colors: ())
    return out


def _partition(
    nbrs, gathers, colors: list[int], ncolors: int
) -> tuple[list[int], list[int], list[int], int]:
    """The coarsest stable ordered partition refining ``colors``, which has
    ``ncolors`` distinct values, as ``(lab, color, end, cells)``: ``lab``
    lists the vertices cell by cell in the order of the colours, a
    vertex's colour is the start of its cell in ``lab``, ``end[s]`` is
    the end of the cell starting at s, and there are ``cells`` cells."""
    n = len(colors)
    lab = sorted(range(n), key=colors.__getitem__)
    color, end = [0] * n, [0] * n
    s = 0
    for i in range(1, n + 1):
        if i == n or colors[lab[i]] != colors[lab[s]]:
            end[s] = i
            for u in lab[s:i]:
                color[u] = s
            s = i
    cells = _split(nbrs, gathers, lab, color, end, sorted(set(color)), ncolors)
    return lab, color, end, cells


def _split(nbrs, gathers, lab, color, end, splitters: list[int], cells: int) -> int:
    """Refine the ordered partition ``(lab, color, end)`` of ``_partition``,
    which has ``cells`` cells, in place to the coarsest stable one, and
    return its number of cells.

    Rounds are synchronous, as in ``_refine``: a vertex's signature is its
    colour and the sorted colours of its neighbours, and the new cells of
    a cell take its slice of ``lab`` in signature order, the first one
    keeping its start.  A round computes the signatures of the vertices
    next to a cell starting at one of ``splitters``, and of one other
    vertex of each cell they lie in, which stands for the rest of its
    cell.  That is exact when the vertices of a cell with no neighbour in
    a splitter have equal counts into every other cell.  It stays so when
    the next round's splitters are, for each cell that split, its new
    cells but the largest: counts into the old cell were equal within a
    cell, so a vertex that misses its other new cells has the whole count
    in the largest.  Callers start from every cell, or from a singleton
    split off a stable partition.  Stops as soon as every cell is a
    singleton.
    """
    n = len(lab)
    while splitters and cells < n:
        touched = set()
        for s in splitters:
            for u in lab[s:end[s]]:
                touched.update(nbrs[u])
        members: dict[int, list[int]] = {}
        for w in touched:
            s = color[w]
            if end[s] - s > 1:
                members.setdefault(s, []).append(w)
        splits = []
        for s, ws in members.items():
            e = end[s]
            groups: dict[tuple[int, ...], list[int]] = {}
            for w in ws:
                groups.setdefault(tuple(sorted(gathers[w](color))), []).append(w)
            if len(ws) < e - s:
                rest = [u for u in lab[s:e] if u not in touched]
                groups.setdefault(tuple(sorted(gathers[rest[0]](color))), []).extend(rest)
            if len(groups) > 1:
                splits.append((s, [groups[sig] for sig in sorted(groups)]))
        splitters = []
        for s, blocks in splits:
            largest = max(blocks, key=len)
            cells += len(blocks) - 1
            for i, block in enumerate(blocks):
                e = s + len(block)
                lab[s:e] = block
                end[s] = e
                if i:
                    for u in block:
                        color[u] = s
                if block is not largest:
                    splitters.append(s)
                s = e
    return cells


def _refine(nbrs: list[list[int]], colors: list[int], ncolors: int) -> list[int]:
    """The coarsest stable colouring refining ``colors``, which has
    ``ncolors`` distinct values; ``nbrs[v]`` lists v's neighbours.

    Each round recolours a vertex by its colour and the multiset of its
    neighbours' colours.  The result is given as ranks of the sorted
    signatures, so it does not depend on the vertex labels, and, as a
    signature starts with the old colour, ``colors[u] < colors[v]``
    implies ``result[u] < result[v]``.
    """
    lab, _, end, _ = _partition(nbrs, _gathers(nbrs), colors, ncolors)
    ranks = [0] * len(lab)
    s = rank = 0
    while s < len(lab):
        for u in lab[s:end[s]]:
            ranks[u] = rank
        s, rank = end[s], rank + 1
    return ranks


def induced_embeddings(pattern: Graph, host: Graph) -> Iterator[tuple[int, ...]]:
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
        nonlocal used
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

    yield from search(0)


_C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])


def has_induced_subgraph(host: Graph, pattern: Graph) -> bool:
    return next(induced_embeddings(pattern, host), None) is not None


def find_induced_c5(g: Graph) -> tuple[int, ...] | None:
    """First induced 5-cycle (a,b,c,d,e) in lexicographic order, or None:
    ``induced_embeddings`` places the cycle's vertices in the order 0..4,
    each at the least free host vertex first."""
    return next(induced_embeddings(_C5, g), None)


class Search(NamedTuple):
    """What one individualisation-refinement search finds.

    ``key`` is the canonical form, ``labelling[v]`` is v's canonical label
    (its row in ``key``), and ``generators`` generate the automorphism
    group, each as the image tuple of a permutation.  Orbits are not
    labelled: ``graphs._orbit_closure`` reads one off the generators.
    """

    key: tuple[int, ...]
    labelling: tuple[int, ...]
    generators: list[tuple[int, ...]]


def search(rows: Sequence[int]) -> Search:
    """Canonical form, canonical labelling and automorphisms of the graph
    with adjacency bitsets ``rows``.

    The key is the least relabelled row tuple over the leaves of an
    individualisation-refinement tree (McKay & Piperno, "Practical graph
    isomorphism, II", 2014): refine, take the non-singleton cell with the
    least colour and individualise each of its vertices in turn.  A vertex
    is skipped when it lies in the orbit of an already tried vertex under
    the automorphisms found so far that preserve the node's colouring:
    such an automorphism maps the tried child's subtree onto the skipped
    one, leaf keys included, so the least key and the first least leaf
    are still visited.  A twin of a tried vertex is the special case found
    without search: swapping the two preserves the colouring.

    A node's colouring is an ordered partition (``_partition``), with
    colours the starts of the cells, so a leaf's colours are its labels.
    Individualising v puts v at the start of its cell and the rest of the
    cell after it; as the node's partition is stable, its refinement
    starts from the cell {v} alone and each round recomputes signatures
    only next to what split (``_split``).  The colourings, keys and labels
    are those of full signature rounds over every vertex.

    The tree is walked depth first on an explicit stack that holds, for each
    open node, a generator of its children, so no depth meets the recursion
    limit (each vertex of a twin class beyond its first adds a level).
    Automorphisms come from two sources: each skipped twin's transposition,
    and each leaf whose key equals the first leaf with the least key (the
    two labellings differ by an automorphism).  After such a leaf the
    search backjumps (McKay, "Practical graph isomorphism", 1981): it
    truncates the stack to the deepest common ancestor of the two leaves,
    which goes on with its next child.  The automorphism fixes the ancestor's
    individualised vertices, so it maps the ancestor's child on the way to
    the first least leaf, whose subtree depth-first order has already
    finished, onto the child being left: the rest of the left subtree holds
    only images of nodes already accounted for, so no key and no first least
    leaf is lost.  Together the automorphisms generate the group: every node
    of the unpruned tree is the image of a visited node under the group they
    generate, so every least leaf is the image of a visited least leaf, and
    an automorphism is fixed by the leaf it maps the first least leaf to.

    Contract: the labelling keeps the order of the root ranks.  If the
    root refinement (``_refine`` from the degree colouring) ranks u below
    v, then ``labelling[u] < labelling[v]``: refinement keeps the order of
    colours, and individualisation splits a cell into v and the rest, in
    place.  Canonical augmentation in ``generation`` settles ties on this,
    so a change here must keep it.

    The search itself is ``_search``, which starts from a given root,
    ``_root(rows)``; ``generation`` refines the root once and hands it on.
    """
    return _search(rows, *_root(rows))


def _root(rows: Sequence[int]) -> tuple[list[list[int]], list, tuple]:
    """``(nbrs, gathers, partition)`` of the graph with adjacency bitsets
    ``rows``: its neighbour lists, their ``_gathers``, and the root of
    ``search``, the ``_partition`` refining the degree colouring."""
    nbrs = [list(bits(r)) for r in rows]
    gathers = _gathers(nbrs)
    degrees = [len(nb) for nb in nbrs]
    return nbrs, gathers, _partition(nbrs, gathers, degrees, len(set(degrees)))


def _search(rows: Sequence[int], nbrs: list[list[int]], gathers: list, partition: tuple) -> Search:
    """``search(rows)`` from its root, given as ``_root(rows)``: for callers
    that have refined the root already.  The root's lists are not changed.
    A node is ``(lab, color, end, cells, path)``, the stable partition
    reached by individualising ``path``; ``stack[0]`` yields the root and
    ``stack[d + 1]`` the children of the open node at depth d, each built
    when asked."""
    n = len(rows)
    generators: list[tuple[int, ...]] = []
    best: list[int] | None = None
    best_ranks: list[int] = []
    best_path: tuple[int, ...] = ()

    def children(lab, color, end, cells, path):
        s = 0
        while end[s] - s == 1:
            s = end[s]
        e = end[s]
        tried: list[int] = []
        stabiliser: list[tuple[int, ...]] = []  # found generators preserving color
        checked = 0  # generators[:checked] have been sorted into stabiliser
        skip = 0  # the orbits of the tried vertices under stabiliser
        for v in sorted(lab[s:e]):
            if checked < len(generators):
                stabiliser += [p for p in generators[checked:] if [color[w] for w in p] == color]
                checked = len(generators)
                skip = _orbit_closure(skip, stabiliser)
            if skip >> v & 1:
                continue
            twin = next((u for u in tried if rows[u] & ~(1 << v) == rows[v] & ~(1 << u)), None)
            if twin is not None:
                perm = list(range(n))
                perm[twin], perm[v] = v, twin
                generators.append(tuple(perm))
                continue
            tried.append(v)
            skip = _orbit_closure(skip | 1 << v, stabiliser)
            # Individualise v: {v} takes the start of its cell, the rest follows.
            child_lab, child_color, child_end = lab[:], color[:], end[:]
            i = child_lab.index(v, s, e)
            child_lab[i], child_lab[s] = child_lab[s], v
            for u in child_lab[s + 1:e]:
                child_color[u] = s + 1
            child_end[s], child_end[s + 1] = s + 1, e
            child_cells = _split(nbrs, gathers, child_lab, child_color, child_end, [s], cells + 1)
            yield child_lab, child_color, child_end, child_cells, path + (v,)

    stack = [iter([(*partition, ())])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        lab, color, end, cells, path = node
        if cells < n:
            stack.append(children(*node))
            continue
        bit = [1 << c for c in color]
        leaf = [sum(gathers[v](bit)) for v in lab]
        if best is None or leaf < best:
            best, best_ranks, best_path = leaf, color, path
        elif leaf == best:
            generators.append(tuple(lab[c] for c in best_ranks))
            # Back to the common ancestor, at depth k: it goes on with its next child.
            k = next(k for k, (u, w) in enumerate(zip(path, best_path)) if u != w)
            del stack[k + 2:]
    return Search(tuple(best), tuple(best_ranks), generators)


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Adjacency rows of a canonical relabelling of ``g``.

    Two graphs get the same key exactly when they are isomorphic; see
    ``search``.  The Clebsch graph takes 0.7 ms (Python 3.11, 2 cores),
    the Hoffman-Singleton graph 6 ms and the 100-vertex Higman-Sims
    graph 15 ms.
    """
    return search(g.rows()).key


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Whether ``g`` and ``h`` are isomorphic: equal canonical forms, after
    the cheap order, size and degree-sequence checks."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_form(g) == canonical_form(h)
