"""Exact maximum clique and exact colouring over bitset adjacency.

The solver is a branch-and-bound in the Tomita style: candidates are
greedily partitioned into independent classes, and branches are explored
in decreasing class index so the bound prunes whole suffixes.  For
regular hosts whose complement is strongly regular or vertex-transitive
a Hoffman ratio bound on the complement (least adjacency eigenvalue) is
computed first, in exact rational arithmetic on a small quotient matrix;
the search stops as soon as its incumbent meets the bound, which settles
the large vertex-transitive instances (Kneser-type graphs, block-graph
complements) where the colouring bound is far from tight.  The first
descent supplies the incumbent and goes omega deep, so the search keeps
its nodes on an explicit stack.

``colour_classes`` is the one exact k-colouring kernel (DSATUR); the
four-clique covers colour the complement with it.  One mask per colour
holds the vertices where it is forbidden, so a colouring or its undo
updates all neighbours in a few whole-word operations, and forced and
dead vertices go in index order: only branch points scan for a tie-break.
"""

from __future__ import annotations

from fractions import Fraction

from .constructions import srg_parameters
from .graphs import Graph, bits, complement
from .iso import _refine, search


def is_clique(g: Graph, vertices) -> bool:
    vs = list(vertices)
    mask = 0
    for v in vs:
        mask |= 1 << v
    if len(set(vs)) != len(vs):
        return False
    return all(g.row(v) & mask == mask & ~(1 << v) for v in vs)


def _ratio_upper_bound(g: Graph) -> int | None:
    """Hoffman bound on omega(g) via the complement h: for a d-regular h
    with least eigenvalue s, alpha(h) <= n(-s)/(d-s).

    Refining {0} | rest gives an equitable partition whose quotient has
    every eigenvalue theta of h with E_theta e_0 != 0 (Godsil, "Algebraic
    Combinatorics", ch. 5): all of them when h is walk-regular, as every
    strongly regular (A^2 is in the span of I, A, J) or vertex-transitive
    h is; other h get None.  With S the edge counts between cells and D
    the diagonal of cell sizes, the floor is the largest q < n with
    s <= -qd/(n - q), that is, with (n - q)S + qdD not positive definite.
    That is monotone in q and decided by the signs of exact pivots.  The
    matrix can be large and sparse (h = C_n gives a tridiagonal one with
    floor(n/2) + 1 cells), so the elimination keeps only non-zeros.
    """
    if not g.is_regular() or g.n < 3:
        return None
    n = g.n
    d = n - 1 - g.degree(0)  # complement degree
    if d <= 0:
        return None
    h = complement(g)
    if srg_parameters(h) is None and any(search(h.rows()).orbits):
        return None
    nbrs = [list(bits(r)) for r in h.rows()]
    cell = _refine(nbrs, [min(v, 1) for v in range(n)], 2)
    k = max(cell) + 1
    size = [cell.count(c) for c in range(k)]
    edges: list[dict[int, int]] = [{} for _ in range(k)]
    for v, nb in enumerate(nbrs):
        row = edges[cell[v]]
        for w in nb:
            row[cell[w]] = row.get(cell[w], 0) + 1

    def definite(q: int) -> bool:
        # Symmetric Gaussian elimination on rows kept as dicts of
        # non-zeros: the rows that step i updates are the non-zero
        # columns of row i, and zero multipliers are skipped.
        a = [{j: Fraction((n - q) * e) for j, e in row.items()} for row in edges]
        for i, row in enumerate(a):
            row[i] = row.get(i, 0) + q * d * size[i]
        for i, row in enumerate(a):
            pivot = row[i]
            if pivot <= 0:
                return False
            for r, x in row.items():
                if r > i and x:
                    f = x / pivot
                    target = a[r]
                    for j, y in row.items():
                        if j > i:
                            target[j] = target.get(j, 0) - f * y
        return True

    lo, hi = 0, n - 1  # not definite at 0 as s < 0, definite at n - 1 as s >= -d
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if definite(mid) else (mid, hi)
    return lo


def max_clique(g: Graph) -> tuple[int, ...]:
    """The first maximum clique the search meets, as a sorted vertex tuple."""
    rows = g.rows()
    upper = _ratio_upper_bound(g) if g.n > 40 else None

    def node(size: int, mask: int, cand: int) -> list:
        # Greedy colouring: peel independent classes, recording each
        # vertex's class number; the last one peeled is tried first.
        ordered: list[tuple[int, int]] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            q = rest
            while q:
                v = (q & -q).bit_length() - 1
                ordered.append((v, color))
                rest &= ~(1 << v)
                q &= ~rows[v] & rest
        return [size, mask, cand, ordered]

    best = best_mask = 0
    stack = [node(0, 0, g.full_mask)]
    while stack:
        frame = stack[-1]
        size, mask, cand, ordered = frame
        if not ordered or size + ordered[-1][1] <= best:
            stack.pop()
            continue
        v = ordered.pop()[0]
        frame[2] = cand & ~(1 << v)
        new_cand = cand & rows[v]
        if size + 1 + new_cand.bit_count() > best:
            if new_cand:
                stack.append(node(size + 1, mask | 1 << v, new_cand))
            else:
                best, best_mask = size + 1, mask | 1 << v
                if best == upper:
                    break
    return tuple(bits(best_mask))


def clique_number(g: Graph) -> int:
    return len(max_clique(g))


def colour_classes(rows: list[int], k: int) -> list[int] | None:
    """k colour classes (bitmasks) of the graph with adjacency `rows`, or None.

    Exact DSATUR (Brelaz 1979): colour next the uncoloured vertex with the
    most forbidden colours, ties to the most uncoloured neighbours, then
    to the lowest index, and try only one colour that no vertex has yet
    (first-use symmetry breaking).  Colour c is forbidden at the uncoloured
    vertices of ``has[c]``, one mask per colour.  Colouring v with c
    forbids it at ``rows[v] & uncoloured & ~has[c]``, one mask that is set
    in ``has[c]`` and xored out again on backtrack.  The uncoloured
    vertices sit in saturation buckets, ``level[s]`` holding those with s
    forbidden colours as a bitmask, so a step looks only at the highest
    non-empty bucket.  At k - 1 (one colour left) or k (none) it takes the
    lowest vertex unscanned: forced colourings commute (unit propagation
    reaches one fixpoint or wipe-out in any order), so every branching
    decision and class list is DSATUR's.  The newly forbidden mask moves
    up a bucket by k masked moves from the top down, and back by k moves
    from the bottom up, never vertex by vertex.  Nothing is forbidden or
    freed at a coloured vertex, so on backtrack it returns to the bucket
    its frame took it from.  An explicit stack keeps deep searches off
    the recursion limit.
    """
    has = [0] * k
    classes = [0] * k
    uncoloured = (1 << len(rows)) - 1
    level = [uncoloured] + [0] * k
    up = range(k - 1, -1, -1)
    down = range(1, k + 1)
    used = 0  # non-empty classes
    stack = []  # [vertex, untried colours, colour, vertices it newly forbade, bucket]
    while uncoloured:
        s = k
        while not level[s]:
            s -= 1
        rest = level[s]
        if s >= k - 1:  # forced or dead: unit propagation commutes
            v = (rest & -rest).bit_length() - 1
        else:
            most = -1
            while rest:
                low = rest & -rest
                w = low.bit_length() - 1
                d = (rows[w] & uncoloured).bit_count()
                if d > most:
                    most, v = d, w
                rest ^= low
        level[s] ^= 1 << v
        options = 0
        for c in range(min(used + 1, k)):
            if not has[c] >> v & 1:
                options |= 1 << c
        stack.append([v, options, -1, 0, s])
        uncoloured ^= 1 << v
        while stack:
            frame = stack[-1]
            v, options, c, changed, s = frame
            if c >= 0:
                classes[c] ^= 1 << v
                used -= not classes[c]
                if changed:
                    has[c] ^= changed
                    for t in down:
                        moving = level[t] & changed
                        if moving:
                            level[t] ^= moving
                            level[t - 1] |= moving
            if options:
                c = (options & -options).bit_length() - 1
                changed = rows[v] & uncoloured & ~has[c]
                if changed:
                    has[c] |= changed
                    for t in up:
                        moving = level[t] & changed
                        if moving:
                            level[t] ^= moving
                            level[t + 1] |= moving
                used += not classes[c]
                classes[c] |= 1 << v
                frame[1:4] = options & (options - 1), c, changed
                break
            stack.pop()
            uncoloured |= 1 << v
            level[s] |= 1 << v
        else:
            return None
    return classes
