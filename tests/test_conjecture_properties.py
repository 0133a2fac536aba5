"""Statements checked over the exhaustively enumerated small-graph universe."""

from hadwiger2.conjectures import (
    connected_dominating_matching,
    connected_matching_number,
    dominating_edge,
    had2,
    is_cdm,
)
from hadwiger2.generation import connected_alpha2_graphs
from hadwiger2.graphs import (
    Graph,
    bits,
    complement,
    diameter,
    independence_number_is_2,
    induced_subgraph,
    is_connected,
    vertex_connectivity,
)
from hadwiger2.iso import find_induced_c5

from conftest import brute_clique_number, brute_independence_number


def test_triangle_free_four_way_equivalence(tf_levels_9):
    """Edge-maximal triangle-free == diameter 2 == complement edge-minimal
    at independence 2 == complement has no dominating edge (n >= 3)."""
    for n in range(3, 10):
        for g in tf_levels_9[n]:
            a = all(
                g.row(u) & g.row(v)
                for u in range(n)
                for v in range(u + 1, n)
                if not g.has_edge(u, v)
            ) and g.edge_count < n * (n - 1) // 2
            b = diameter(g) == 2
            gc = complement(g)
            c = brute_independence_number(gc) == 2
            if c:
                for u, v in gc.edges():
                    rows = list(gc.rows())
                    rows[u] &= ~(1 << v)
                    rows[v] &= ~(1 << u)
                    if brute_independence_number(Graph.from_rows(tuple(rows))) != 3:
                        c = False
                        break
            d = gc.edge_count > 0 and dominating_edge(gc) is None
            assert a == b == c == d, (n, g.edges())


def test_connectivity_at_most_half_forces_cdm(tf_levels_9):
    """Connected, independence 2, connectivity <= n/2: a CDM always exists."""
    hit = 0
    graphs = [g for n in range(2, 10) for g in connected_alpha2_graphs(n, tf_levels_9)]
    for g in graphs:
        if not independence_number_is_2(g):
            continue
        if g.n < 2 or vertex_connectivity(g, at_least=g.n // 2 + 1) > g.n // 2:
            continue
        got = connected_dominating_matching(g)
        assert got.status == "found" and is_cdm(g, got.witness.edges)
        hit += 1
    assert hit > 100


def test_c5_free_equivalence(tf_levels_9):
    """A connected independence-2 graph is C5-free iff every connected
    induced subgraph with independence 2 has a dominating edge."""
    graphs = [g for n in range(2, 10) for g in connected_alpha2_graphs(n, tf_levels_9)]
    for g in graphs:
        if not independence_number_is_2(g):
            continue
        if find_induced_c5(g) is not None:
            # the induced C5 itself is a witness subgraph without a
            # dominating edge, so the right side fails trivially
            continue
        # alpha <= 2 is inherited, so alpha(g[mask]) = 2 iff mask is not a
        # clique; clique[mask] extends clique[mask minus its least vertex].
        closed = [r | 1 << v for v, r in enumerate(g.rows())]
        clique = [True] * (1 << g.n)
        for mask in range(1, 1 << g.n):
            low = mask & -mask
            rest = mask ^ low
            clique[mask] = clique[rest] and closed[low.bit_length() - 1] & rest == rest
            if clique[mask] or not is_connected(g, mask):
                continue
            h = induced_subgraph(g, bits(mask))
            assert dominating_edge(h) is not None, (g.edges(), mask)


def test_connected_matching_chain_small(tf_levels_8):
    """cm <= had2, and the 4t-1 threshold for connected matchings (t <= 2)."""
    for n in range(2, 9):
        for g in connected_alpha2_graphs(n, tf_levels_8):
            cm = connected_matching_number(g)
            t = (n + 1) // 4
            if t >= 1 and independence_number_is_2(g):
                assert cm >= t, (n, g.edges())
            if n <= 7:
                assert cm <= had2(g)


def test_low_cm_forces_low_clique_and_model(tf_levels_8):
    """On 4t-1 vertices with cm <= t-1, both the clique number and the
    small-branch-set model order collapse to cm (t <= 2)."""
    for t, n in ((1, 3), (2, 7)):
        for g in connected_alpha2_graphs(n, tf_levels_8):
            if not independence_number_is_2(g):
                continue
            cm = connected_matching_number(g)
            if cm <= t - 1:
                assert brute_clique_number(g) <= cm
                assert had2(g) <= cm
