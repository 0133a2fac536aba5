"""Shared fixtures and independent brute-force oracles.

Every oracle here recomputes its quantity from first principles
(exhaustive enumeration, backtracking over labelled objects, boolean
matrix powers) so the production algorithms are checked against code
that shares none of their logic.  The ``*_reference`` functions are the
exception: verbatim copies of kernels that a faster version replaced,
kept so the new kernel can be checked to give exactly the old answers.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
from contextlib import contextmanager
from itertools import combinations, permutations
from typing import Iterator, Sequence

import numpy as np
import pytest

from hadwiger2.cliques import _ratio_upper_bound, colour_classes, max_clique
from hadwiger2.conjectures import (
    KModel,
    Outcome,
    connected_dominating_matching,
    dominating_edge,
    is_cdm,
)
from hadwiger2.generation import independent_set_masks
from hadwiger2.graph6 import _HEADER, _encode_n
from hadwiger2.graphs import (
    Graph,
    InflationSpec,
    _orbit_closure,
    alpha_at_most_2,
    bits,
    complement,
    girth,
    independence_number_is_2,
    induced_subgraph,
    inflate,
    is_connected,
    is_triangle_free,
    vertex_connectivity,
)
from hadwiger2.iso import Search, search
from hadwiger2.matching import Matching, _gallai_edmonds, is_factor_critical
from hadwiger2.rng import SplitMix64
from hadwiger2.screening import ScreeningReport, Verdict

# The size cap ``table1_screen_reference`` puts on P22, as the screen had it;
# a test lifts it by monkeypatching this module attribute.
_COLOURING_CAP = 24


def brute_independence_number(g: Graph) -> int:
    best = 0

    def rec(chosen: int, avail: int) -> None:
        nonlocal best
        best = max(best, chosen.bit_count())
        if chosen.bit_count() + avail.bit_count() <= best:
            return
        a = avail
        while a:
            v = a & -a
            a &= ~v
            rec(chosen | v, a & ~g.row(v.bit_length() - 1))

    rec(0, g.full_mask)
    return best


def brute_clique_number(g: Graph) -> int:
    best = 0

    def rec(chosen: int, avail: int) -> None:
        nonlocal best
        best = max(best, chosen.bit_count())
        if chosen.bit_count() + avail.bit_count() <= best:
            return
        a = avail
        while a:
            v = a & -a
            a &= ~v
            rec(chosen | v, a & g.row(v.bit_length() - 1))

    rec(0, g.full_mask)
    return best


def brute_chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if _colourable(g, k):
            return k
    raise AssertionError("unreachable")


def _colourable(g: Graph, k: int) -> bool:
    colors = [-1] * g.n

    def rec(v: int, used: int) -> bool:
        if v == g.n:
            return True
        forbidden = set(colors[w] for w in bits(g.row(v)) if colors[w] >= 0)
        for c in range(min(used + 1, k)):
            if c in forbidden:
                continue
            colors[v] = c
            if rec(v + 1, max(used, c + 1)):
                return True
            colors[v] = -1
        return False

    return rec(0, 0)


def brute_matching_number(g: Graph) -> int:
    edges = g.edges()

    def rec(i: int, used: int) -> int:
        best = 0
        for j in range(i, len(edges)):
            u, v = edges[j]
            if used >> u & 1 or used >> v & 1:
                continue
            best = max(best, 1 + rec(j + 1, used | (1 << u) | (1 << v)))
        return best

    return rec(0, 0)


def all_matchings(g: Graph):
    edges = g.edges()

    def rec(i: int, used: int, chosen: tuple):
        yield chosen
        for j in range(i, len(edges)):
            u, v = edges[j]
            if used >> u & 1 or used >> v & 1:
                continue
            yield from rec(j + 1, used | (1 << u) | (1 << v), chosen + (edges[j],))

    yield from rec(0, 0, ())


def brute_connected_matching_number(g: Graph) -> int:
    best = 0
    for m in all_matchings(g):
        ok = True
        for i in range(len(m)):
            u, v = m[i]
            reach = g.row(u) | g.row(v)
            for x, y in m[i + 1:]:
                if not (reach >> x & 1 or reach >> y & 1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            best = max(best, len(m))
    return best


def brute_is_hamiltonian(g: Graph) -> bool:
    """A Hamiltonian cycle by extending every simple path from vertex 0."""
    if g.n < 3:
        return False

    def rec(v: int, visited: int) -> bool:
        if visited == g.full_mask:
            return g.has_edge(v, 0)
        return any(
            rec(w, visited | (1 << w))
            for w in range(g.n)
            if not visited >> w & 1 and g.has_edge(v, w)
        )

    return rec(0, 1)


def brute_orbits(g: Graph) -> tuple[int, ...]:
    """The least vertex of each vertex's automorphism orbit.

    Up to 7 vertices every permutation is tried.  Above that, networkx's
    VF2 matcher is asked, for each vertex v and each earlier orbit root u
    of the same degree, for one automorphism mapping v to u (enumerating
    the whole group is too slow: the empty graph on 8 vertices has 40,320
    automorphisms).
    """
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    n = g.n
    orbit = list(range(n))
    if n <= 7:
        nbrs = [list(bits(g.row(v))) for v in range(n)]
        for p in permutations(range(n)):
            if all(sum(1 << p[w] for w in nbrs[v]) == g.row(p[v]) for v in range(n)):
                for v in range(n):
                    orbit[v] = min(orbit[v], p[v])
        return tuple(orbit)

    def marked(v: int) -> nx.Graph:
        h = nx.Graph()
        h.add_nodes_from((u, {"marked": u == v}) for u in range(n))
        h.add_edges_from(g.edges())
        return h

    for v in range(n):
        for u in range(v):
            if orbit[u] == u and g.degree(u) == g.degree(v):
                matcher = GraphMatcher(marked(v), marked(u), node_match=lambda a, b: a == b)
                if next(matcher.isomorphisms_iter(), None) is not None:
                    orbit[v] = u
                    break
    return tuple(orbit)


def fresh_python(script: str) -> str:
    """Run ``script`` in a fresh interpreter that imports hadwiger2 from
    this checkout, and return its stdout."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def orbits_of(found: Search) -> tuple[int, ...]:
    """The least vertex of each vertex's orbit under ``found.generators``,
    read off ``graphs._orbit_closure``."""
    n = len(found.labelling)
    orbit = list(range(n))
    for v in range(n):
        if orbit[v] == v:
            for w in bits(_orbit_closure(1 << v, found.generators)):
                orbit[w] = v
    return tuple(orbit)


def brute_odd_girth(g: Graph):
    """Shortest odd closed walk via boolean adjacency powers."""
    if g.n == 0:
        return float("inf")
    a = np.zeros((g.n, g.n), dtype=bool)
    for u in range(g.n):
        for v in bits(g.row(u)):
            a[u, v] = True
    power = a.copy()
    for length in range(1, g.n + 1):
        if length % 2 == 1 and power.diagonal().any():
            return length
        power = power @ a
    return float("inf")


def brute_girth(g: Graph):
    """Shortest cycle by bounded DFS over simple paths from each least vertex."""
    best = float("inf")

    def dfs(start: int, v: int, visited: int, length: int):
        nonlocal best
        if length + 1 >= best:
            return
        for w in bits(g.row(v)):
            if w == start and length >= 2:
                best = min(best, length + 1)
            elif w > start and not visited >> w & 1:
                dfs(start, w, visited | (1 << w), length + 1)

    for s in range(g.n):
        dfs(s, s, 1 << s, 0)
    return best


def brute_vertex_connectivity(g: Graph) -> int:
    from hadwiger2.graphs import induced_subgraph

    n = g.n
    if all(g.degree(v) == n - 1 for v in range(n)):
        return n - 1
    for size in range(0, n - 1):
        for cut in combinations(range(n), size):
            rest = [v for v in range(n) if v not in cut]
            if not is_connected(induced_subgraph(g, rest)):
                return size
    return n - 1


def brute_diameter(g: Graph):
    """All-pairs shortest paths via boolean reachability powers."""
    if g.n == 0:
        raise ValueError
    a = np.eye(g.n, dtype=bool)
    for u in range(g.n):
        for v in bits(g.row(u)):
            a[u, v] = True
    reach = np.eye(g.n, dtype=bool)
    for d in range(0, g.n):
        if reach.all():
            return d
        reach = reach @ a
    if reach.all():
        return g.n
    return float("inf")


def brute_max_t_intersecting(n: int, k: int, t: int) -> int:
    """Largest family of k-subsets of [n] pairwise intersecting in >= t."""
    sets = [frozenset(c) for c in combinations(range(n), k)]

    def rec(chosen: int, cands: list[int]) -> int:
        best = chosen
        for i, s in enumerate(cands):
            if chosen + len(cands) - i <= best:
                break
            nxt = [x for x in cands[i + 1:] if len(sets[s] & sets[x]) >= t]
            best = max(best, rec(chosen + 1, nxt))
        return best

    return rec(0, list(range(len(sets))))


def brute_clique_number_simple(g: Graph) -> int:
    """Carraghan-Pardalos style maximum clique, independent of cliques.py."""
    order = sorted(range(g.n), key=lambda v: -g.degree(v))

    def rec(count: int, cands: list[int]) -> int:
        best = count
        for i, v in enumerate(cands):
            if count + len(cands) - i <= best:
                break
            nxt = [w for w in cands[i + 1:] if g.has_edge(v, w)]
            best = max(best, rec(count + 1, nxt))
        return best

    return rec(0, order)


def milp_clique_number(g: Graph) -> int:
    """Exact maximum clique by integer programming (HiGHS branch and cut).

    Entirely separate machinery from the combinatorial solvers: maximise
    sum x_v subject to x_u + x_v <= 1 for every non-edge.
    """
    from scipy.optimize import LinearConstraint, milp

    if g.n == 0:
        return 0
    rows = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                row = [0.0] * g.n
                row[u] = row[v] = 1.0
                rows.append(row)
    constraints = [LinearConstraint(rows, ub=1.0)] if rows else []
    res = milp(
        c=[-1.0] * g.n,
        integrality=[1] * g.n,
        bounds=(0, 1),
        constraints=constraints,
    )
    assert res.success
    return round(-res.fun)


def _milp_feasible(nvars: int, rows: list, lb: list, ub: list) -> bool:
    """Whether a 0/1 point satisfies lb <= rows @ x <= ub (HiGHS)."""
    from scipy.optimize import LinearConstraint, milp

    res = milp(
        c=[0.0] * nvars,
        integrality=[1] * nvars,
        bounds=(0, 1),
        constraints=[LinearConstraint(rows, lb=lb, ub=ub)] if rows else [],
    )
    assert res.status in (0, 2), res.message
    return res.status == 0


def _slot_rows(g: Graph, pairs) -> list:
    """x[v, c] is variable 4 * v + c; one row per pair and slot: x[u, c] + x[v, c]."""
    rows = []
    for u, v in pairs:
        for c in range(4):
            row = [0.0] * (4 * g.n)
            row[4 * u + c] = row[4 * v + c] = 1.0
            rows.append(row)
    return rows


def milp_four_colourable(g: Graph) -> bool:
    """Proper 4-colouring by integer programming: x[v, c] in {0, 1}, each
    vertex takes exactly one colour, adjacent vertices share none."""
    rows = _slot_rows(g, g.edges())
    lb, ub = [0.0] * len(rows), [1.0] * len(rows)
    for v in range(g.n):
        row = [0.0] * (4 * g.n)
        row[4 * v : 4 * v + 4] = [1.0] * 4
        rows.append(row)
        lb.append(1.0)
        ub.append(1.0)
    return _milp_feasible(4 * g.n, rows, lb, ub)


def milp_cover4(g: Graph) -> bool:
    """Four cliques covering V with total size >= |V|+2, by integer
    programming: x[v, c] = 1 puts v in slot c, non-adjacent vertices share
    no slot, every vertex is in at least one slot."""
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    rows = _slot_rows(g, pairs)
    lb, ub = [0.0] * len(rows), [1.0] * len(rows)
    for v in range(g.n):
        row = [0.0] * (4 * g.n)
        row[4 * v : 4 * v + 4] = [1.0] * 4
        rows.append(row)
        lb.append(1.0)
        ub.append(4.0)
    rows.append([1.0] * (4 * g.n))
    lb.append(g.n + 2.0)
    ub.append(4.0 * g.n)
    return _milp_feasible(4 * g.n, rows, lb, ub)


def _greedy_clique_reference(g: Graph, start: int, order_key) -> int:
    mask = 1 << start
    cand = g.row(start)
    while cand:
        v = order_key(cand)
        mask |= 1 << v
        cand &= g.row(v)
    return mask


def _initial_incumbent_reference(g: Graph, upper: int | None) -> int:
    """Deterministic multi-start greedy clique, returned as a bitmask; it
    stops at max degree + 1 vertices, or at ``upper`` if that is smaller,
    as no clique is larger."""
    degs = [g.degree(v) for v in range(g.n)]
    top = max(degs) + 1 if upper is None else min(max(degs) + 1, upper)

    def by_low(cand: int) -> int:
        return (cand & -cand).bit_length() - 1

    def by_degree(cand: int) -> int:
        return max(bits(cand), key=lambda v: (degs[v], -v))

    def by_local_degree(cand: int) -> int:
        return max(bits(cand), key=lambda v: ((g.row(v) & cand).bit_count(), -v))

    best = 0
    starts = sorted(range(g.n), key=lambda v: -degs[v])[: max(4, g.n // 16)]
    for start in starts:
        for key in (by_low, by_degree, by_local_degree):
            mask = _greedy_clique_reference(g, start, key)
            if mask.bit_count() > best.bit_count():
                best = mask
                if best.bit_count() == top:
                    return best
    return best


def max_clique_reference(g: Graph) -> tuple[int, ...]:
    """An exact maximum clique, as a sorted vertex tuple: the solver as it
    stood with a multi-start greedy incumbent and a recursive search."""
    if g.n == 0:
        return ()
    rows = g.rows()
    upper = _ratio_upper_bound(g) if g.n > 40 else None
    best_mask = _initial_incumbent_reference(g, upper)
    best = best_mask.bit_count()
    if best == upper:
        return tuple(bits(best_mask))

    def expand(r_size: int, r_mask: int, cand: int) -> None:
        nonlocal best, best_mask
        # Greedy colouring: peel independent classes, recording each
        # vertex's class number; process high classes first.
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
        for v, c in reversed(ordered):
            if r_size + c <= best:
                return
            new_cand = cand & rows[v]
            if r_size + 1 + new_cand.bit_count() > best:
                if new_cand:
                    expand(r_size + 1, r_mask | (1 << v), new_cand)
                else:
                    best = r_size + 1
                    best_mask = r_mask | (1 << v)
            cand &= ~(1 << v)

    expand(0, 0, g.full_mask)
    return tuple(bits(best_mask))


def dsatur_reference(rows: list[int], k: int) -> list[int] | None:
    """The exact DSATUR kernel as it stood before saturation buckets: every
    step scores every uncoloured vertex by (forbidden colours, uncoloured
    neighbours) and takes the first maximum.  Kept verbatim so the
    bucketed ``cliques.colour_classes`` can be checked to return the same
    class list, not only the same colourability."""
    forbidden = [0] * len(rows)
    classes = [0] * k
    uncoloured = (1 << len(rows)) - 1
    stack = []  # [vertex, untried colours, colour, neighbours it newly forbade]
    while uncoloured:
        v = max(bits(uncoloured), key=lambda w: (
            forbidden[w].bit_count(), (rows[w] & uncoloured).bit_count()))
        used = sum(1 for m in classes if m)
        stack.append([v, ((1 << min(used + 1, k)) - 1) & ~forbidden[v], -1, ()])
        uncoloured ^= 1 << v
        while stack:
            frame = stack[-1]
            v, options, c, changed = frame
            if c >= 0:
                classes[c] ^= 1 << v
                for w in changed:
                    forbidden[w] ^= 1 << c
            if options:
                c = (options & -options).bit_length() - 1
                changed = [w for w in bits(rows[v] & uncoloured) if not forbidden[w] >> c & 1]
                for w in changed:
                    forbidden[w] |= 1 << c
                classes[c] |= 1 << v
                frame[1:] = options & (options - 1), c, changed
                break
            stack.pop()
            uncoloured |= 1 << v
        else:
            return None
    return classes


def four_cover_reference(g: Graph) -> Outcome:
    """``certificates.four_cover_check`` as it stood before the base
    colouring was reused: one twin-rows search per pair x <= y, in order.
    Kept verbatim so the reuse can be checked to decide every host alike."""
    gc = complement(g)
    if not is_triangle_free(gc):
        raise ValueError("four-clique covers are only used when alpha <= 2")
    n = g.n
    if 4 * len(max_clique(g)) < n + 2:
        return Outcome("refuted")
    rows = list(gc.rows())
    if colour_classes(rows, 4) is None:
        return Outcome("refuted")
    for x in range(n):
        for y in range(x, n):
            # Vertices n and n + 1 are closed twins of x and y.
            cx, cy = rows[x] | 1 << x, rows[y] | 1 << y
            twins = [r | (cx >> v & 1) << n | (cy >> v & 1) << n + 1 for v, r in enumerate(rows)]
            twins += [cx | (cx >> y & 1) << n + 1, cy | (cy >> x & 1) << n]
            classes = colour_classes(twins, 4)
            if classes is not None:
                return Outcome("found", tuple(
                    tuple(bits(m & g.full_mask | (m >> n & 1) << x | (m >> n + 1 & 1) << y))
                    for m in classes
                ))
    return Outcome("refuted")


def write_graph6_reference(g: Graph) -> str:
    """``graph6.write_graph6`` as it stood before column encoding: one
    Python step per bit.  Kept verbatim so the column writer can be checked
    to give the same strings."""
    out = [_encode_n(g.n)]
    bit_buffer = 0
    nbits = 0
    for col in range(1, g.n):
        for row_i in range(col):
            bit_buffer = (bit_buffer << 1) | (g.row(row_i) >> col & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(bit_buffer + 63))
                bit_buffer = 0
                nbits = 0
    if nbits:
        bit_buffer <<= 6 - nbits
        out.append(chr(bit_buffer + 63))
    return "".join(out)


def read_graph6_reference(text: str) -> Graph:
    """``graph6.read_graph6`` as it stood before column decoding: one
    Python step per bit.  Kept verbatim (truncated extended headers
    included, which it reads as the empty graph) so the column reader can
    be checked to give the same graphs and the same errors."""
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("invalid graph6 character")
    if data[0] == 63:
        if len(data) >= 2 and data[1] == 63:
            n = 0
            for b in data[2:8]:
                n = n << 6 | b
            body = data[8:]
        else:
            n = 0
            for b in data[1:4]:
                n = n << 6 | b
            body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError("graph6 body has wrong length")
    rows = [0] * n
    idx = 0
    for col in range(1, n):
        for row_i in range(col):
            byte = body[idx // 6]
            bit = byte >> (5 - idx % 6) & 1
            if bit:
                rows[row_i] |= 1 << col
                rows[col] |= 1 << row_i
            idx += 1
    # Each bit sets both rows[row_i] and rows[col], row_i < col < n.
    return Graph._trusted(rows)


def refine_reference(nbrs: list[list[int]], colors: list[int], ncolors: int) -> list[int]:
    """``iso._refine`` as it stood before the ordered partition: full
    signature rounds over every vertex until the colour count stops
    growing.  Kept verbatim, as is ``search_rounds_reference`` below, so
    the partition refinement can be checked to give the same ranks and
    the same searches.

    The coarsest stable colouring refining ``colors``, which has
    ``ncolors`` distinct values; ``nbrs[v]`` lists v's neighbours.

    Each round recolours a vertex by its colour and the multiset of its
    neighbours' colours.  The result is given as ranks of the sorted
    signatures, so it does not depend on the vertex labels, and, as a
    signature starts with the old colour, ``colors[u] < colors[v]``
    implies ``result[u] < result[v]``.
    """
    while True:
        sigs = [(colors[v], tuple(sorted([colors[w] for w in nb]))) for v, nb in enumerate(nbrs)]
        relabel = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [relabel[s] for s in sigs]
        if len(relabel) == ncolors:
            return colors
        ncolors = len(relabel)


def search_reference(rows: Sequence[int]) -> Search:
    """``iso.search`` as it stood before backjumping: after a leaf with the
    best key adds its automorphism, the search carries on through the rest
    of that leaf's subtree.  Kept verbatim so the backjumping search can
    be checked to return the same key and labelling."""
    n = len(rows)
    nbrs = [list(bits(r)) for r in rows]
    generators: list[tuple[int, ...]] = []
    best: list[int] | None = None
    best_ranks: list[int] = []

    def visit(colors: list[int], ncolors: int) -> None:
        nonlocal best, best_ranks
        ranks = refine_reference(nbrs, colors, ncolors)
        size = [0] * n
        for c in ranks:
            size[c] += 1
        least = next((c for c in range(n) if size[c] > 1), None)
        if least is None:
            leaf = [0] * n
            for v, nb in enumerate(nbrs):
                leaf[ranks[v]] = sum(1 << ranks[w] for w in nb)
            if best is None or leaf < best:
                best, best_ranks = leaf, ranks
            elif leaf == best:
                vertex_of = [0] * n
                for v, c in enumerate(ranks):
                    vertex_of[c] = v
                generators.append(tuple(vertex_of[c] for c in best_ranks))
            return
        cells = len(set(ranks)) + 1
        tried: list[int] = []
        stabiliser: list[tuple[int, ...]] = []  # found generators preserving ranks
        checked = 0  # generators[:checked] have been sorted into stabiliser
        skip = 0  # the orbits of the tried vertices under stabiliser
        for v in range(n):
            if ranks[v] != least:
                continue
            if checked < len(generators):
                stabiliser += [p for p in generators[checked:] if [ranks[w] for w in p] == ranks]
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
            visit([2 * c + (u != v) for u, c in enumerate(ranks)], cells)

    degrees = [len(nb) for nb in nbrs]
    visit(degrees, len(set(degrees)))
    return Search(tuple(best), tuple(best_ranks), generators)


def search_rounds_reference(rows: Sequence[int]) -> Search:
    """``iso.search`` as it stood before the ordered partition, on
    ``refine_reference``.

    Canonical form, canonical labelling and automorphisms of the graph
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

    Automorphisms come from two sources: each skipped twin's transposition,
    and each leaf whose key equals the first leaf with the least key (the
    two labellings differ by an automorphism).  After such a leaf the
    search backjumps (McKay, "Practical graph isomorphism", 1981): it
    returns to the deepest common ancestor of the two leaves and goes on
    with that node's next child.  The automorphism fixes the ancestor's
    individualised vertices, so it maps the ancestor's child on the way to
    the first least leaf, whose subtree depth-first order has already
    finished, onto the child being left: the rest of the left subtree
    holds only images of nodes already accounted for, so no key and no
    first least leaf is lost.
    Together the automorphisms generate the group: every node of the
    unpruned tree is the image of a visited node under the group they
    generate, so every least leaf is the image of a visited least leaf,
    and an automorphism is fixed by the leaf it maps the first least leaf
    to.

    Contract: the labelling keeps the order of the root ranks.  If the
    root refinement (``_refine`` from the degree colouring) ranks u below
    v, then ``labelling[u] < labelling[v]``: refinement keeps the order of
    colours, and individualisation maps colour c to 2c or 2c + 1.  Canonical
    augmentation in ``generation`` settles ties on this, so a change here
    must keep it.
    """
    n = len(rows)
    nbrs = [list(bits(r)) for r in rows]
    generators: list[tuple[int, ...]] = []
    best: list[int] | None = None
    best_ranks: list[int] = []
    best_path: tuple[int, ...] = ()

    def visit(colors: list[int], ncolors: int, path: tuple[int, ...]) -> int:
        """Search below the node reached by individualising ``path``; return
        the depth the search resumes at."""
        nonlocal best, best_ranks, best_path
        ranks = refine_reference(nbrs, colors, ncolors)
        size = [0] * n
        for c in ranks:
            size[c] += 1
        least = next((c for c in range(n) if size[c] > 1), None)
        if least is None:
            leaf = [0] * n
            for v, nb in enumerate(nbrs):
                leaf[ranks[v]] = sum(1 << ranks[w] for w in nb)
            if best is None or leaf < best:
                best, best_ranks, best_path = leaf, ranks, path
            elif leaf == best:
                vertex_of = [0] * n
                for v, c in enumerate(ranks):
                    vertex_of[c] = v
                generators.append(tuple(vertex_of[c] for c in best_ranks))
                return next(k for k, (u, w) in enumerate(zip(path, best_path)) if u != w)
            return len(path)
        cells = len(set(ranks)) + 1
        tried: list[int] = []
        stabiliser: list[tuple[int, ...]] = []  # found generators preserving ranks
        checked = 0  # generators[:checked] have been sorted into stabiliser
        skip = 0  # the orbits of the tried vertices under stabiliser
        for v in range(n):
            if ranks[v] != least:
                continue
            if checked < len(generators):
                stabiliser += [p for p in generators[checked:] if [ranks[w] for w in p] == ranks]
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
            resume = visit([2 * c + (u != v) for u, c in enumerate(ranks)], cells, path + (v,))
            if resume < len(path):
                return resume
        return len(path)

    degrees = [len(nb) for nb in nbrs]
    visit(degrees, len(set(degrees)), ())
    return Search(tuple(best), tuple(best_ranks), generators)


def least_key_children_reference(parent: Graph) -> list[tuple[int, list[int], int]]:
    """``generation._least_key_children`` as it stood before keys were read
    off the parent: every passing mask builds the child's rows first.
    This and the two functions below are kept verbatim so the generation
    that settles ties without a search and carries Aut(parent) can be
    checked to give the same labelled levels."""
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


def siblings_reference(parent: Graph) -> list[tuple[int, list[int], int]]:
    """``generation._siblings`` before it took carried generators."""
    children = least_key_children_reference(parent)
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


def extend_reference(parent: Graph) -> Iterator[Graph]:
    """``generation._extend`` before ties were settled without a search:
    every tied child is searched."""
    k = parent.n
    for _, rows, ties in siblings_reference(parent):
        if ties != 1 << k:
            found = search(rows)
            first = min(bits(ties), key=found.labelling.__getitem__)
            orbit = orbits_of(found)
            if orbit[first] != orbit[k]:
                continue
        yield Graph._trusted(rows)


def from_rows_reference(rows: Sequence[int]) -> Graph:
    """``Graph.from_rows`` as it stood before the word-parallel symmetry
    check: one membership test per edge."""
    g = Graph._trusted(rows)
    full = (1 << g.n) - 1
    for i, row in enumerate(g._rows):
        if row & ~full or row >> i & 1:
            raise ValueError("adjacency rows out of range or with loops")
    for i, row in enumerate(g._rows):
        for j in bits(row):
            if not g._rows[j] >> i & 1:
                raise ValueError("adjacency not symmetric")
    return g


def twin_classes_reference(g: Graph) -> list[int]:
    """``graphs.twin_classes`` by a scan of every pair: u and v are twins
    when N(u) - v = N(v) - u."""
    return [
        sum(1 << u for u in range(g.n) if g.row(u) & ~(1 << v) == g.row(v) & ~(1 << u))
        for v in range(g.n)
    ]


def is_cdm_reference(g: Graph, edges) -> bool:
    """``conjectures.is_cdm`` as it stood before the one-pass check, with
    the connected and the dominating tests it called copied in verbatim:
    each builds and checks its own matching."""
    edges = tuple(edges)
    return bool(edges) and _is_connected_matching(g, edges) and _is_dominating_matching(g, edges)


def _dominating_edge_reference(g: Graph) -> tuple[int, int] | None:
    """``conjectures.dominating_edge``, copied so the search references
    below run no code under test."""
    full = g.full_mask
    for u in range(g.n):
        ru = g.row(u)
        for v in bits(ru >> (u + 1)):
            v += u + 1
            if ru | g.row(v) == full:
                return (u, v)
    return None


def grow_matching_reference(g: Graph, rows, reaches, used, must, budget):
    """``conjectures._grow_matching`` as it stood before the explicit
    stack: one recursive search from one start.  Returns the status, the
    new edges when "found" (else None) and the number of nodes expanded."""
    full = g.full_mask
    chosen: list[tuple[int, int]] = []
    nodes = 0

    def dfs(reaches: list[int], common: int, used: int) -> str:
        nonlocal nodes
        if budget is not None and nodes >= budget:
            return "unknown"
        nodes += 1
        need = (must | full & ~common) & ~used
        if not need:
            return "found"
        w, fewest, count = -1, 0, 0
        for x in bits(need):
            allowed = rows[x] & ~used
            for r in reaches:
                if not r >> x & 1:
                    allowed &= r
            c = allowed.bit_count()
            if not c:
                return "refuted"
            if w < 0 or c < count:
                w, fewest, count = x, allowed, c
        rw = g.row(w) | 1 << w
        options = []
        for x in bits(fewest):
            reach = rw | g.row(x) | 1 << x
            now = used | 1 << w | 1 << x
            left = (must | full & ~(common & reach)) & ~now
            options.append((left.bit_count(), x, reach, now))
        options.sort()
        for _, x, reach, now in options:
            chosen.append((min(w, x), max(w, x)))
            got = dfs(reaches + [reach], common & reach, now)
            if got != "refuted":
                return got
            chosen.pop()
        return "refuted"

    common = full
    for r in reaches:
        common &= r
    status = dfs(reaches, common, used)
    return status, tuple(chosen) if status == "found" else None, nodes


def cdm_reference(g: Graph, budget=None):
    """``conjectures.connected_dominating_matching`` as it stood before the
    explicit stack, host checks left out: one recursive search per first
    edge, the budget passed on as what is left.  Returns (status, witness,
    nodes)."""
    e = _dominating_edge_reference(g)
    if e is not None:
        return "found", Matching((e,)), 0
    full = g.full_mask
    nodes = 0
    for u in range(g.n):
        above = full & -(2 << u)
        rows = [r & above if w > u else 0 for w, r in enumerate(g.rows())]
        for v in bits(g.row(u) & above):
            reach = g.row(u) | g.row(v) | 1 << u | 1 << v
            left = None if budget is None else budget - nodes
            status, edges, spent = grow_matching_reference(g, rows, [reach], 1 << u | 1 << v, 0, left)
            nodes += spent
            if status == "found":
                return "found", Matching(((u, v),) + edges), nodes
            if status == "unknown":
                return "unknown", None, nodes
    return "refuted", None, nodes


def connected_perfect_matching_reference(g: Graph, budget=500_000):
    """``conjectures.connected_perfect_matching_search`` before the explicit
    stack (g its own adjacency host, host checks left out): (status,
    witness, nodes)."""
    status, edges, nodes = grow_matching_reference(g, g.rows(), [], 0, g.full_mask, budget)
    return status, KModel(edges, len(edges)) if status == "found" else None, nodes


def check_good_bad_reference(g: Graph, part) -> None:
    """``certificates._check_good_bad`` before the mask tests: a scan of
    every pair of good edges, then of every pair of bad edges at a vertex."""
    good = sorted(part.good)
    for i, (u, v) in enumerate(good):
        mask_uv = (1 << u) | (1 << v)
        reach = g.row(u) | g.row(v) | mask_uv
        for x, y in good[i + 1:]:
            if mask_uv & ((1 << x) | (1 << y)):
                continue
            if not reach >> x & 1 and not reach >> y & 1:
                raise RuntimeError("good/bad hypothesis (1) violated")
    bad_at = [set() for _ in range(g.n)]
    for u, v in part.bad:
        bad_at[u].add(v)
        bad_at[v].add(u)
    for v in range(g.n):
        nbrs = sorted(bad_at[v])
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                if not g.has_edge(u, w):
                    raise RuntimeError("good/bad hypothesis (2) violated")


def classify_good_bad_reference(g: Graph, part) -> Outcome:
    """``certificates.classify_good_bad_outcome`` before 'd' became a
    maximum matching, host checks left out: the same tests for 'a', 'b'
    and 'c', then an exhaustive search for a perfect matching of good
    edges that is pairwise adjacent in g."""
    n = g.n
    if dominating_edge(g) is not None:
        return Outcome("found", "a")
    if n >= 2 and vertex_connectivity(g, at_least=n // 2 + 1) <= n // 2:
        return Outcome("found", "b")
    if len(max_clique(g)) >= n // 2:
        return Outcome("found", "c")
    good = Graph(n, part.good)
    status, _, _ = grow_matching_reference(g, good.rows(), [], 0, g.full_mask, None)
    return Outcome("found", "d") if status == "found" else Outcome(status)


def half_order_reference(g: Graph, budget=500_000):
    """``conjectures.half_order_model_search`` before the explicit stack,
    host checks left out: (status, witness, nodes)."""
    if g.n % 2 == 0:
        status, model, nodes = connected_perfect_matching_reference(g, budget)
        return (status, model, nodes) if status == "found" else ("unknown", None, nodes)
    nodes = 0
    for s in range(g.n):
        status, edges, spent = grow_matching_reference(
            g, g.rows(), [g.row(s) | 1 << s], 1 << s, g.full_mask,
            None if budget is None else budget - nodes,
        )
        nodes += spent
        if status == "found":
            sets = edges + ((s,),)
            return "found", KModel(sets, len(sets)), nodes
        if status == "unknown":
            break
    return "unknown", None, nodes


def small_branch_sets_reference(g: Graph, singletons: bool, budget=None):
    """``conjectures._small_branch_sets`` as it stood before the explicit
    stack: recursive, one call per decided vertex or pair.  Returns the
    best sets, whether the search ran to the end, and the number of nodes
    expanded."""
    best: list[tuple[int, ...]] = []
    nodes = 0

    def dfs(avail: int, chosen: list, reaches: list) -> bool:
        nonlocal best, nodes
        if budget is not None and nodes >= budget:
            return False
        nodes += 1
        if len(chosen) > len(best):
            best = list(chosen)
        left = avail.bit_count() if singletons else avail.bit_count() // 2
        if len(chosen) + left <= len(best):
            return True
        v = avail & -avail
        vi = v.bit_length() - 1
        rest = avail & ~v
        options = [(v, g.row(vi))] if singletons else []
        options += [(v | 1 << w, g.row(vi) | g.row(w)) for w in bits(g.row(vi) & rest)]
        for mask, reach in options:
            if all(r & mask for r in reaches):
                chosen.append(tuple(bits(mask)))
                done = dfs(avail & ~mask, chosen, reaches + [reach])
                chosen.pop()
                if not done:
                    return False
        return dfs(rest, chosen, reaches)

    done = dfs(g.full_mask, [], [])
    return best, done, nodes


def _is_connected_matching(g: Graph, edges) -> bool:
    m = Matching(tuple(edges))
    if not m.is_matching_of(g):
        return False
    es = m.edges
    for i, (u, v) in enumerate(es):
        reach = g.row(u) | g.row(v)
        for x, y in es[i + 1:]:
            if not (reach >> x & 1 or reach >> y & 1):
                return False
    return True


def _is_dominating_matching(g: Graph, edges) -> bool:
    m = Matching(tuple(edges))
    if not m.is_matching_of(g):
        return False
    uncovered = g.full_mask & ~m.covered()
    for u, v in m.edges:
        reach = g.row(u) | g.row(v)
        if uncovered & ~reach:
            return False
    return True


def pairs_reference(g: Graph, adjacent: bool, found: Search):
    """Pairs {x, y} of ``g``, adjacent or not as asked: for each orbit
    representative x of ``found``, the least y of each orbit of the
    generators fixing x, except a representative y below x."""
    orbit = orbits_of(found)
    for x, rep in enumerate(orbit):
        if x != rep:
            continue
        fixing = [p for p in found.generators if p[x] == x]
        ys = (g.row(x) if adjacent else ~g.row(x)) & g.full_mask & ~(1 << x)
        while ys:
            y = (ys & -ys).bit_length() - 1
            ys &= ~_orbit_closure(1 << y, fixing)
            if y > x or orbit[y] != y:
                yield x, y


def _nonadjacent_pairs(g: Graph):
    for x in range(g.n):
        rx = g.row(x)
        for y in range(x + 1, g.n):
            if not rx >> y & 1:
                yield x, y


def table1_screen_reference(g: Graph) -> ScreeningReport:
    """``screening.table1_screen`` as it stood before the orbit scan: P4,
    P13-P16, P21 and P22 visit every pair.  Kept verbatim so the screen
    can be checked to give the same status and detail for every
    property."""
    if not is_connected(g):
        raise ValueError("screening requires a connected host")
    if not independence_number_is_2(g):
        raise ValueError("screening requires independence number exactly 2")
    n = g.n
    # alpha(g) = 2 makes chi = n - mu(gc); P1 (chi(g - v) < chi(g) for
    # every v) is D(gc) = V, and P5 is gc factor-critical.
    gc = complement(g)
    mu, d, host = _gallai_edmonds(gc, g.full_mask)
    chi = n - mu
    omega = len(max_clique(g))
    delta = min(g.degree(v) for v in range(n))
    verdicts: dict[str, Verdict] = {}

    def put(name: str, ok: bool, detail: str = ""):
        verdicts[name] = Verdict("pass" if ok else "fail", detail)

    put("P1", d == g.full_mask, f"chi={chi}")
    put("P2", is_connected(gc), "complement connected iff not decomposable")
    put("P3", n == 2 * chi - 1, f"n={n}, 2chi-1={2 * chi - 1}")

    # g - x - y inherits alpha <= 2, so both matching shortcuts run on gc
    # inside the mask of the remaining vertices.  Each starts from the host
    # matching minus x, y and their partners, at most two augmentations
    # short of maximum; mu and D do not depend on the matching found.
    p4_ok = True
    for x, y in _nonadjacent_pairs(g):
        rest = g.full_mask & ~(1 << x) & ~(1 << y)
        mu_rest, d_rest, _ = _gallai_edmonds(gc, rest, host)
        if n - 2 - mu_rest != chi - 1 or d_rest != rest:
            p4_ok = False
            break
    put("P4", p4_ok, "pair deletion leaves a (chi-1)-critical graph")

    put(
        "P5",
        2 * mu == n - 1 and d == g.full_mask,
        "complement minus any vertex has a perfect matching",
    )

    cdm = connected_dominating_matching(g, budget=None if n <= 16 else 500_000)
    if cdm.status == "unknown":
        verdicts["P6"] = Verdict("not-evaluated", "CDM search budget exhausted")
    else:
        put("P6", cdm.status == "refuted", "no non-empty CDM")
    # The CDM search answers with a dominating edge whenever g has one,
    # and a one-edge CDM is a dominating edge, so P7 fails exactly when it
    # found one edge.  uv dominates g iff u, v are non-adjacent in gc with
    # no common gc-neighbour; gc is triangle-free with n >= 3, so it is
    # not complete, and diam(gc) = 2 (P12) iff g has no dominating edge.
    p7 = not (cdm.status == "found" and cdm.witness.size == 1)
    put("P7", p7, "every edge deletion creates a 3-independent set")

    # Above 40 vertices kappa is capped at the larger of the two thresholds
    # P8 and P18 compare it with, which decides both.
    if n <= 40:
        kappa = vertex_connectivity(g)
        kappa_detail = f"kappa={kappa}"
    else:
        kappa = vertex_connectivity(g, at_least=max(chi, 7))
        kappa_detail = "thresholded"
    put("P8", kappa >= chi, kappa_detail + f", chi={chi}")
    put("P9", delta >= chi, f"delta={delta}, chi={chi}")

    # Hamiltonicity: kappa >= alpha = 2 gives a Hamiltonian cycle
    # (Chvatal-Erdos), and a Hamiltonian graph on n >= 3 vertices is
    # 2-connected; a connected host with alpha = 2 has n >= 3.
    put("P10", kappa >= 2)

    put("P11", is_factor_critical(g))
    put("P12", p7)

    # For each non-adjacent pair: A = N(x) - N[y], B = N(x) & N(y),
    # C = N(y) - N[x].  P14 fails iff some b in B is adjacent to all of A
    # or to all of C.  P15 asks, for every a in A and c in C, that a ~ c
    # iff some b in B misses both; for fixed a that is C & N(a) equal to
    # the part of C outside the common neighbourhood of B - N(a).  Each
    # property stops being scanned once it has failed.
    p13 = p14 = p15 = p16 = True
    for x, y in _nonadjacent_pairs(g):
        rx, ry = g.row(x), g.row(y)
        b_mask = rx & ry
        a_mask = rx & ~ry & ~(1 << y)
        c_mask = ry & ~rx & ~(1 << x)
        if not b_mask:
            p13 = p14 = p16 = False
            if not p15:
                break
            continue
        if p14:
            common_a = common_c = g.full_mask
            for a in bits(a_mask):
                common_a &= g.row(a)
            for c in bits(c_mask):
                common_c &= g.row(c)
            if b_mask & (common_a | common_c):
                p14 = False
        if p15:
            for a in bits(a_mask):
                ra = g.row(a)
                common = c_mask
                for b in bits(b_mask & ~ra):
                    common &= g.row(b)
                if c_mask & ra != c_mask & ~common:
                    p15 = False
                    break
        if p16:
            for b in bits(b_mask):
                rb = g.row(b)
                c_off_b = c_mask & ~rb
                if any(g.row(a) & c_off_b for a in bits(a_mask & ~rb)):
                    break
            else:
                p16 = False
        if not (p13 or p14 or p15 or p16):
            break
    put("P13", p13)
    put("P14", p14)
    put("P15", p15)
    put("P16", p16, "every non-adjacent pair lies in an induced C5")

    put("P17", chi >= 7, f"chi={chi}")
    put("P18", kappa >= 7, "")
    put("P19", omega <= chi - 3, f"omega={omega}, chi={chi}")
    put("P20", delta >= chi + 1, f"delta={delta}, chi={chi}")

    p21 = True
    for x, y in _nonadjacent_pairs(g):
        rx, ry = g.row(x), g.row(y)
        a = (rx & ~ry & ~(1 << y)).bit_count()
        c = (ry & ~rx & ~(1 << x)).bit_count()
        b = (rx & ry).bit_count()
        if not (2 <= a <= chi - 4 and 2 <= c <= chi - 4 and 5 <= b <= 2 * chi - 7):
            p21 = False
            break
    put("P21", p21, "A/B/C size windows")

    if n <= _COLOURING_CAP:
        # A (chi - 1)-colouring of g - uv puts u and v in one class (else
        # it colours g), and alpha = 2 leaves room there for at most one w,
        # a common neighbour of u and v in gc.  The pair class needs
        # mu(gc - u - v) = mu; a triple class needs mu(gc - u - v - w) =
        # mu - 1, i.e. mu(gc - u - v) = mu - 1 and w in D(gc - u - v).
        p22 = True
        for u, v in g.edges():
            rest = g.full_mask & ~(1 << u) & ~(1 << v)
            mu_rest, d_rest, _ = _gallai_edmonds(gc, rest, host)
            if mu_rest != mu and not (
                mu_rest == mu - 1 and d_rest & gc.row(u) & gc.row(v)
            ):
                p22 = False
                break
        put("P22", p22, "edge-criticality (advisory for minimal profiles)")
    else:
        verdicts["P22"] = Verdict("not-evaluated", f"n>{_COLOURING_CAP}")

    return ScreeningReport(verdicts)


# The second copies that were routed through the code already doing their
# job, kept verbatim (renamed) so the replacements can be checked to give
# exactly the old answers, in the old order.


def find_induced_c5_reference(g: Graph) -> tuple[int, ...] | None:
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


def all_cliques_reference(g: Graph) -> Iterator[int]:
    """Every clique of g as a bitmask, including the empty clique."""
    rows = g.rows()

    def grow(r: int, cand: int) -> Iterator[int]:
        yield r
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= ~(1 << v)
            yield from grow(r | (1 << v), cand & rows[v])

    yield from grow(0, g.full_mask)


def clique_search_reference(g: Graph, k: int) -> list[int]:
    """The cliques that the seagull clique-condition search visits, in
    order, the empty one first: cliques in index order, each extended by its
    common neighbours above its largest vertex (its candidates) unless
    n - |C| - |candidates| + mixed(C) >= 2k, up to and including the first
    with n - |C| + mixed(C) < 2k.  By recursion, with mixed(C) counted
    vertex by vertex."""
    rows = g.rows()
    visits = []

    def visit(c: int, cand: int) -> bool:
        visits.append(c)
        mixed = sum(1 for v in bits(g.full_mask & ~c) if rows[v] & c and c & ~rows[v])
        value = g.n - c.bit_count() + mixed
        if value < 2 * k:
            return True
        if value - cand.bit_count() < 2 * k:
            return any(visit(c | 1 << v, cand & rows[v] & -(2 << v)) for v in bits(cand))
        return False

    visit(0, g.full_mask)
    return visits


def maximal_cliques_reference(g: Graph) -> Iterator[int]:
    """All maximal cliques as bitmasks (Bron-Kerbosch with pivoting), by
    the recursive generator the explicit-stack one replaced."""
    rows = g.rows()

    def bk(r: int, p: int, x: int) -> Iterator[int]:
        if not p and not x:
            yield r
            return
        # Pivot on the vertex of p|x covering most of p.
        pivot = max(bits(p | x), key=lambda u: (rows[u] & p).bit_count())
        for v in bits(p & ~rows[pivot]):
            vb = 1 << v
            yield from bk(r | vb, p & rows[v], x & rows[v])
            p &= ~vb
            x |= vb

    if g.n:
        yield from bk(0, g.full_mask, 0)


def is_triangle_free_reference(g: Graph) -> bool:
    """``graphs.is_triangle_free`` as it was before it became
    ``alpha_at_most_2`` of the complement: no edge u < v whose ends share
    a neighbour."""
    for u in range(g.n):
        ru = g.row(u)
        high = ru >> (u + 1)
        for j in bits(high):
            if ru & g.row(u + 1 + j):
                return False
    return True


def independence_number_is_2_reference(g: Graph) -> bool:
    """True iff alpha(g) is exactly 2."""
    if not alpha_at_most_2(g):
        return False
    # alpha >= 2 iff some non-adjacent pair exists.
    return any(
        g.row(v) | (1 << v) != g.full_mask for v in range(g.n)
    ) and g.n >= 2


def blow_up_reference(spec: InflationSpec) -> Graph:
    """Expanded graph of a blow-up: independent sets joined along base edges."""
    n = spec.expanded_n
    proj = spec.projection
    base = spec.base
    block = [spec.block(x) for x in range(base.n)]
    rows = []
    for v in range(n):
        x = proj[v]
        r = 0
        for y in bits(base.row(x)):
            r |= block[y]
        rows.append(r)
    return Graph.from_rows(tuple(rows))


def girth5_cdm_construct_reference(spec: InflationSpec) -> Matching:
    """Constructive CDM for a connected inflation whose base has a
    complement of girth at least 5.

    If the support of the inflation is C5-free the dominating-edge path
    applies; otherwise an induced 5-cycle abcde of the support is
    oriented so the clique of a is smallest and the clique of c no larger
    than d's, and the matching saturating a into e plus c into d is a
    connected dominating matching.  The result is re-verified before
    return.
    """
    if girth(complement(spec.base)) < 5:
        raise ValueError("base complement must have girth at least 5")
    g = inflate(spec)
    if g.n < 2:
        raise ValueError("expanded graph needs at least 2 vertices")
    if not is_connected(g):
        raise ValueError("expanded graph must be connected")
    support = [x for x in range(spec.base.n) if spec.mult[x] > 0]
    h = induced_subgraph(spec.base, support)
    c5 = find_induced_c5_reference(h)
    if c5 is None:
        e = dominating_edge(g)
        if e is None:
            raise RuntimeError("C5-free support must yield a dominating edge")
        result = Matching((e,))
    else:
        cyc = [support[i] for i in c5]
        mult = spec.mult

        def orientations(c):
            a, b, cc, d, e = c
            out = []
            ring = [a, b, cc, d, e]
            for shift in range(5):
                rot = ring[shift:] + ring[:shift]
                out.append(tuple(rot))
                out.append(tuple([rot[0]] + list(reversed(rot[1:]))))
            return out

        candidates = [
            o
            for o in orientations(cyc)
            if mult[o[0]] == min(mult[x] for x in cyc)
            and mult[o[2]] <= mult[o[3]]
        ]
        a, b, c, d, e = min(candidates)
        ca = list(bits(spec.block(a)))
        ce = list(bits(spec.block(e)))
        cc = list(bits(spec.block(c)))
        cd = list(bits(spec.block(d)))
        m1 = list(zip(ca, ce))
        m2 = list(zip(cc, cd))
        result = Matching(tuple(m1 + m2))
    if not is_cdm(g, result.edges):
        raise RuntimeError("constructed matching failed CDM verification")
    return result


def random_graph(n: int, p_numerator: int, rng: SplitMix64) -> Graph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.randrange(100) < p_numerator:
                edges.append((u, v))
    return Graph(n, edges)


def brute_triangle_free_process(n: int, seed: int) -> Graph:
    """The triangle-free process by definition: every step lists all
    addable pairs (non-edges without a common neighbour) in (u, v) order
    and draws one with the seeded generator, until none is left."""
    rng = SplitMix64(seed)
    rows = [0] * n
    while True:
        candidates = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not rows[u] >> v & 1 and not rows[u] & rows[v]
        ]
        if not candidates:
            return Graph.from_rows(tuple(rows))
        u, v = candidates[rng.randrange(len(candidates))]
        rows[u] |= 1 << v
        rows[v] |= 1 << u


@contextmanager
def deadline(seconds: float, what: str):
    """Fail, instead of running on, when the block takes longer than
    ``seconds`` of wall time (SIGALRM, main thread only)."""

    def stop(*_):
        raise AssertionError(f"{what} did not finish within {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@contextmanager
def _recursion_headroom(frames: int):
    """Set the recursion limit to the current depth plus ``frames``."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.fixture(scope="session")
def steiner_system():
    from hadwiger2.steiner import steiner_3_6_22

    return steiner_3_6_22()


@pytest.fixture(scope="session")
def tf_levels_8():
    from hadwiger2.generation import triangle_free_graphs

    return triangle_free_graphs(8)


@pytest.fixture(scope="session")
def tf_levels_9(tf_levels_8):
    from hadwiger2.generation import _extend

    return {**tf_levels_8, 9: [c for p in tf_levels_8[8] for c, _ in _extend(p)]}


@pytest.fixture(scope="session")
def differential_graphs(tf_levels_8):
    """3,000 seeded random graphs (n <= 11, random densities), then every
    connected graph with alpha <= 2 on at most 8 vertices."""
    from hadwiger2.generation import connected_alpha2_graphs

    rng = SplitMix64(20261027)
    graphs = [random_graph(rng.randrange(12), rng.randrange(101), rng) for _ in range(3000)]
    return graphs + [g for n in range(1, 9) for g in connected_alpha2_graphs(n, tf_levels_8)]
