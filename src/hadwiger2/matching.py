"""Maximum matching in general graphs, the Gallai-Edmonds set D, and the
alpha<=2 chromatic shortcut.

The matching routine is Edmonds' blossom algorithm ("Paths, trees, and
flowers", 1965) in its classic odd-cycle-shrinking form: breadth-first
alternating trees, one augmentation per exposed root, with the outer and
inner vertices and each blossom's members kept as bitmasks, so a
contraction rebases only the vertices of the blossoms it absorbs.  Once the
matching is maximum, the search from each exposed root fails, and the
outer (even) vertices of its tree are the vertices that an even
alternating path reaches from that root.  Their union over the exposed
roots is D, the set of vertices missed by some maximum matching
(Gallai-Edmonds structure theorem; Lovasz & Plummer, *Matching Theory*,
ch. 3): mu(h - v) = mu(h) exactly for v in D.  Factor-criticality and
vertex-criticality of alpha<=2 graphs are both "D is every vertex".
Downstream code relies only on the size of the matching and on D, never
on which maximum matching is produced.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Graph, alpha_at_most_2, bits, complement


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges of a host graph."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if u in seen or v in seen or u == v:
                raise ValueError("matching edges must be vertex-disjoint")
            seen.update((u, v))
        object.__setattr__(
            self,
            "edges",
            tuple(sorted((min(u, v), max(u, v)) for u, v in self.edges)),
        )

    @property
    def size(self) -> int:
        return len(self.edges)

    def covered(self) -> int:
        mask = 0
        for u, v in self.edges:
            mask |= (1 << u) | (1 << v)
        return mask

    def is_matching_of(self, g: Graph) -> bool:
        return all(g.has_edge(u, v) for u, v in self.edges)


def _find_augmenting(
    g: Graph, match: list[int], root: int, within: int, stop: int = 0
) -> tuple[int, list[int], int]:
    """(end, parent, outer): the exposed end of an augmenting path from
    root (-1 if none), the tree's parent links, and its outer vertices.
    The search also ends once an outer vertex lies in the bitmask ``stop``.

    Each blossom is its base plus the member bitmask ``members[base]``.
    A dequeued outer vertex splits its neighbours by mask: unreached ones
    grow the tree, outer ones in another blossom contract, and the rest
    (its own blossom, inner vertices) are skipped.  A contraction rebases
    only the members of the blossoms that move into the new one.
    """
    n = g.n
    outer = 1 << root
    inner = 0
    parent = [-1] * n
    base = list(range(n))
    members = [1 << v for v in range(n)]
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        seen = 0
        while True:
            a = base[a]
            seen |= 1 << a
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen >> b & 1:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int) -> int:
        moved = 0
        while base[v] != b:
            moved |= members[base[v]] | members[base[match[v]]]
            parent[v] = child
            child = match[v]
            v = parent[match[v]]
        return moved

    # Once every vertex is outer nothing is left to reach: the search fails.
    while queue and outer != within and not outer & stop:
        v = queue.popleft()
        nbrs = g.row(v) & within & ~members[base[v]]
        grow = nbrs & ~outer & ~inner
        while grow:
            low = grow & -grow
            grow ^= low
            if outer & low:
                continue  # made outer by this scan; contracted below
            to = low.bit_length() - 1
            parent[to] = v
            inner |= low
            if match[to] == -1:
                return to, parent, outer
            outer |= 1 << match[to]
            queue.append(match[to])
        contract = nbrs & outer
        while contract:
            to = (contract & -contract).bit_length() - 1
            cur_base = lca(v, to)
            moved = mark_path(v, cur_base, to) | mark_path(to, cur_base, v)
            blossom = members[cur_base]
            for i in bits(moved & ~blossom):
                base[i] = cur_base
            blossom |= moved
            members[cur_base] = blossom
            fresh = blossom & ~outer
            outer |= fresh
            queue.extend(bits(fresh))
            contract &= ~blossom
    return -1, parent, outer


def _maximum_match(
    g: Graph, within: int, start: list[int] | None = None
) -> tuple[list[int], int]:
    """(match, exposed): the partner list (-1 if exposed) of a maximum
    matching of g[within], and the bitmask of its exposed vertices.

    It starts from the edges of ``start`` (a partner list of a matching of
    g) that lie inside within, or from nothing, and extends that greedily.
    Then each exposed root gets one augmentation attempt, while at least
    two vertices are exposed: an augmenting path joins two of them, and a
    root with none never gains one later (Edmonds).
    """
    exposed = within
    if start is None:
        match = [-1] * g.n
    else:
        match = [
            w if w != -1 and within >> v & 1 and within >> w & 1 else -1
            for v, w in enumerate(start)
        ]
        for v in bits(within):
            if match[v] != -1:
                exposed ^= 1 << v
    for v in bits(exposed):
        if exposed >> v & 1:
            free = g.row(v) & exposed
            if free:
                w = (free & -free).bit_length() - 1
                match[v] = w
                match[w] = v
                exposed &= ~(1 << v) & ~(1 << w)
    for root in bits(exposed):
        if exposed & (exposed - 1) == 0:
            break
        if not exposed >> root & 1:
            continue
        end, parent, _ = _find_augmenting(g, match, root, within)
        if end != -1:
            exposed &= ~(1 << root) & ~(1 << end)
        while end != -1:
            prev = parent[end]
            nxt = match[prev]
            match[end] = prev
            match[prev] = end
            end = nxt
    return match, exposed


def maximum_matching(g: Graph) -> Matching:
    """One maximum matching of g (the size is canonical, the edges are not)."""
    match, _ = _maximum_match(g, g.full_mask)
    return Matching(tuple((v, match[v]) for v in range(g.n) if match[v] > v))


def matching_number(g: Graph) -> int:
    return maximum_matching(g).size


def chromatic_number_alpha2(g: Graph) -> int:
    """chi(g) computed as n minus the matching number of the complement.

    Valid exactly when alpha(g) <= 2: colour classes have size at most 2,
    and the size-2 classes form a matching of the complement.
    """
    if not alpha_at_most_2(g):
        raise ValueError("chromatic shortcut requires independence number <= 2")
    return g.n - matching_number(complement(g))


def gallai_edmonds(g: Graph, within: int | None = None) -> tuple[int, int]:
    """(mu, D) of h, where h is g or the subgraph induced on the bitmask
    ``within``: the matching number and the bitmask of the vertices that
    some maximum matching misses, i.e. those v with mu(h - v) = mu(h).

    One maximum matching, then one (failing) search per exposed vertex;
    D is the union of the searches' outer vertices.
    """
    mu, d, _ = _gallai_edmonds(g, g.full_mask if within is None else within)
    return mu, d


def _gallai_edmonds(
    g: Graph, within: int, start: list[int] | None = None, stop: int = 0
) -> tuple[int, int, list[int]]:
    """(mu, D, match) of g[within], with ``match`` the maximum matching
    found from the warm start ``start`` (see ``_maximum_match``).  D is
    exact unless it meets the bitmask ``stop``, where its search ends."""
    match, exposed = _maximum_match(g, within, start)
    d = 0
    for root in bits(exposed):
        if d & stop:
            break
        d |= _find_augmenting(g, match, root, within, stop)[2]
    return (within.bit_count() - exposed.bit_count()) // 2, d, match


def is_factor_critical(g: Graph) -> bool:
    """True iff deleting any single vertex leaves a perfect matching."""
    if g.n % 2 == 0:
        return False
    mu, d = gallai_edmonds(g)
    return 2 * mu == g.n - 1 and d == g.full_mask


def is_vertex_critical_alpha2(g: Graph) -> bool:
    """True iff chi(g - v) < chi(g) for every vertex, via the matching shortcut.

    chi(g - v) < chi(g) unwinds to mu(complement(g) - v) = mu(complement(g)),
    so criticality is exactly D(complement(g)) being every vertex.
    """
    if not alpha_at_most_2(g):
        raise ValueError("chromatic shortcut requires independence number <= 2")
    return gallai_edmonds(complement(g))[1] == g.full_mask
