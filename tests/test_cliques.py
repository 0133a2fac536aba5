"""Exact maximum clique and clique enumeration."""

import time
from math import comb, isqrt

import numpy as np
from hypothesis import given, settings

from hadwiger2 import certificates, cliques
from hadwiger2.certificates import four_cover_check
from hadwiger2.cliques import (
    clique_number,
    colour_classes,
    is_clique,
    max_clique,
)
from hadwiger2.generation import connected_alpha2_graphs, independent_set_masks
from hadwiger2.graphs import Graph, bits, complement
from hadwiger2.rng import SplitMix64
from hadwiger2.constructions import (
    andrasfai,
    cayley_abelian,
    clebsch,
    complete,
    cycle,
    generalized_kneser_geq,
    hoffman_singleton,
    hypercube,
    kneser,
    kneser_labels,
    petersen,
    srg_parameters,
    triangle_free_process,
)
from hadwiger2.steiner import gewirtz, higman_sims, mesner

from conftest import (
    _colourable,
    _recursion_headroom,
    all_cliques_reference,
    brute_clique_number,
    brute_clique_number_simple,
    deadline,
    dsatur_reference,
    max_clique_reference,
    random_graph,
)
from test_graphs import graphs_strategy


def test_examples():
    assert clique_number(cycle(5)) == 2
    assert clique_number(complete(7)) == 7
    assert clique_number(petersen()) == 2
    assert clique_number(complement(petersen())) == 4
    assert clique_number(complement(clebsch())) == 5


def test_complete_graph_stops_at_the_first_full_clique():
    # The first descent takes every vertex; then each node's colour bound
    # prunes the rest of it at once, one colouring per level.
    start = time.perf_counter()
    assert max_clique(complete(1500)) == tuple(range(1500))
    assert time.perf_counter() - start < 30


def test_returned_set_is_a_clique():
    g = complement(clebsch())
    c = max_clique(g)
    assert is_clique(g, c)
    assert len(c) == 5


@given(graphs_strategy(max_n=9))
@settings(max_examples=80, deadline=None)
def test_matches_brute_force(g):
    got = max_clique(g)
    assert is_clique(g, got)
    assert len(got) == brute_clique_number(g)


def test_omega_matches_reference_on_differential_graphs(differential_graphs):
    for g in differential_graphs:
        got = max_clique(g)
        assert len(got) == len(max_clique_reference(g)) and is_clique(g, got), g.edges()


def test_omega_matches_reference_on_large_hosts(steiner_system):
    # The six screen hosts and Higman-Sims, then Kneser and triangle-free
    # process hosts; max_clique runs on their complements.
    hosts = [clebsch(), andrasfai(6), kneser(7, 3), hoffman_singleton(),
             gewirtz(steiner_system), mesner(steiner_system), higman_sims(steiner_system)]
    hosts += [kneser(8, 3), kneser(9, 4), kneser(10, 4), kneser(10, 5)]
    hosts += [triangle_free_process(101, s) for s in range(3)]
    for host in hosts:
        g = complement(host)
        got = max_clique(g)
        assert len(got) == len(max_clique_reference(g)) and is_clique(g, got), host.n


def _two_cliques(a, b, joined):
    """K_a and K_b with every vertex of K_b joined to the first ``joined``
    vertices of K_a: alpha = 2, omega = b + joined."""
    ka, kb = (1 << a) - 1, ((1 << b) - 1) << a
    rows = [ka ^ 1 << u | (kb if u < joined else 0) for u in range(a)]
    rows += [kb ^ 1 << u | (1 << joined) - 1 for u in range(a, a + b)]
    return Graph.from_rows(rows)


def _chorded_cycle_complement(n):
    """The complement of C_n plus the chord {0, n // 2}, which is triangle-free:
    a connected alpha = 2 host that is not regular, so it has no ratio bound."""
    return complement(Graph(n, cycle(n).edges() + [(0, n // 2)]))


class TestDeepSearches:
    # The first descent is omega deep, 500 to 1,250 levels here, past 100
    # frames of headroom.  The deadlines catch a cubic incumbent: a
    # multi-start greedy one took 16.6 s on the 750-vertex two-clique host
    # and 24.3 s on the chorded C_1001 complement (2 cores, Python 3.11).

    def test_two_cliques_on_1500_vertices(self):
        g = _two_cliques(1200, 300, 950)
        with _recursion_headroom(100), deadline(10, "max_clique of K1200 and K300"):
            got = max_clique(g)
        assert len(got) == 1250 and is_clique(g, got)

    def test_two_cliques_on_750_vertices(self):
        g = _two_cliques(600, 150, 475)
        with _recursion_headroom(100), deadline(5, "max_clique of K600 and K150"):
            got = max_clique(g)
        assert len(got) == 625 and is_clique(g, got)

    def test_chorded_c1001_complement(self):
        g = _chorded_cycle_complement(1001)
        assert cliques._ratio_upper_bound(g) is None
        with _recursion_headroom(100), deadline(5, "max_clique of the chorded C1001 complement"):
            got = max_clique(g)
        assert len(got) == 500 and is_clique(g, got)


def test_spectral_certificate_agrees_with_search():
    # 16 vertices: below the ratio-bound path (above 40 vertices), so this
    # checks the branch and bound against the order-based oracle.
    g = complement(clebsch())
    assert clique_number(g) == brute_clique_number_simple(g) == 5


def _eigvalsh_bound(g):
    # floor(n(-s)/(d - s)) for the least eigenvalue s of g's complement,
    # with a 1e-6 slack for floating-point error: the reference for the exact bound.
    h = complement(g)
    a = np.array([[row >> v & 1 for v in range(h.n)] for row in h.rows()], dtype=float)
    s = float(np.linalg.eigvalsh(a)[0])
    return int(g.n * -s / (h.degree(0) - s) + 1e-6)


def _paley(p):
    return cayley_abelian((p,), {(x * x % p,) for x in range(1, p)})


def test_exact_ratio_bound_matches_eigvalsh_on_srg_complements(steiner_system):
    hosts = [petersen(), clebsch(), hoffman_singleton(), gewirtz(steiner_system),
             mesner(steiner_system), higman_sims(steiner_system)]
    hosts += [generalized_kneser_geq(m, 2, 1) for m in range(4, 10)]  # T(m)
    hosts += [_paley(p) for p in (13, 17, 29)]  # s = (-1 - sqrt(p)) / 2
    # Four disjoint K_5: imprimitive, mu = 0 and s = -1.
    hosts.append(Graph(20, [(u, v) for u in range(20) for v in range(u) if u // 5 == v // 5]))
    bounds = []
    for host in hosts:
        assert srg_parameters(host) is not None
        g = complement(host)
        bounds.append(cliques._ratio_upper_bound(g))
        assert bounds[-1] == _eigvalsh_bound(g), srg_parameters(host)
    assert bounds[:6] == [4, 6, 15, 16, 21, 26]
    assert bounds[-1] == 4


def test_exact_ratio_bound_matches_eigvalsh_off_srg():
    # Vertex-transitive complements, all but the perfect matching Kneser(10, 5)
    # not strongly regular: the one-vertex quotient has 3 to 11 cells on the
    # first seven.
    # omega of the Kneser(8, 3) complement is alpha(K(8, 3)) = C(7, 2) = 21
    # (Erdos-Ko-Rado), which the bound meets.
    hosts = [kneser(8, 3), kneser(9, 4), kneser(10, 4), kneser(10, 5),
             hypercube(5), cycle(11), andrasfai(7)]
    # Around a vertex of C_n the quotient is tridiagonal with floor(n/2) + 1
    # cells; a one-off run found the bounds equal for every n from 41 to 301.
    hosts += [cycle(n) for n in (41, 42, 64, 101, 150, 201, 256, 301)]
    for host in hosts:
        g = complement(host)
        assert cliques._ratio_upper_bound(g) == _eigvalsh_bound(g), host.n
    g = complement(kneser(8, 3))
    clique = max_clique(g)
    assert len(clique) == comb(7, 2) == cliques._ratio_upper_bound(g)
    assert is_clique(g, clique)


def test_long_cycle_complement_clique_in_seconds():
    # With the dense Fraction elimination and a full signature round per
    # refinement step this took about 10 s (Python 3.11, 2 cores).
    g = complement(cycle(201))
    with deadline(5, "max_clique of the C_201 complement"):
        clique = max_clique(g)
    assert len(clique) == 100
    assert is_clique(g, clique)


def test_incumbent_stops_at_the_ratio_bound_on_kneser_complements():
    # The search stops once its first descent meets the exact ratio bound,
    # which is far below max degree + 1 here.  That descent takes the
    # highest vertex first, and on both hosts it ends at the star of 9, the
    # last C(9, k - 1) k-sets in colex order.
    g = complement(kneser(10, 5))
    assert cliques._ratio_upper_bound(g) == 126 < max(map(g.degree, range(g.n))) + 1
    assert max_clique(g) == tuple(range(126, 252))
    g = complement(kneser(10, 4))
    star = tuple(i for i, c in enumerate(kneser_labels(10, 4)) if 9 in c)
    assert star == tuple(range(126, 210))
    assert len(star) == comb(9, 3) == cliques._ratio_upper_bound(g)
    assert max_clique(g) == star


def _k4s_and_cube(copies):
    # copies * K4 + Q3: 3-regular, but the quotient around a K4 vertex
    # sees only K4's eigenvalues 3 and -1, not the cube's -3.
    rows = [(0b1111 ^ 1 << i) << 4 * c for c in range(copies) for i in range(4)]
    rows += [r << 4 * copies for r in hypercube(3).rows()]
    return Graph.from_rows(rows)


def test_ratio_bound_needs_a_walk_regular_complement():
    for copies, alpha in ((1, 5), (9, 13)):
        host = _k4s_and_cube(copies)
        assert host.is_regular() and srg_parameters(host) is None
        g = complement(host)
        assert cliques._ratio_upper_bound(g) is None
        assert len(max_clique(g)) == alpha


def test_ratio_bound_path_meets_integer_hoffman_bound(steiner_system, monkeypatch):
    # On the Hoffman-Singleton and Gewirtz complements the search stops as
    # soon as it meets the exact integer ratio bound.
    # For srg(n, k, lam, mu) the least eigenvalue is the integer
    # s = (lam - mu - sqrt((lam - mu)^2 + 4(k - mu))) / 2, and the Hoffman
    # bound n(-s)/(k - s) is exact here.
    bounds = []

    def spy(g):
        bounds.append(real(g))
        return bounds[-1]

    real = cliques._ratio_upper_bound
    monkeypatch.setattr(cliques, "_ratio_upper_bound", spy)
    for host, omega in ((hoffman_singleton(), 15), (gewirtz(steiner_system), 16)):
        p = srg_parameters(host)
        root = isqrt((p.lam - p.mu) ** 2 + 4 * (p.k - p.mu))
        assert root * root == (p.lam - p.mu) ** 2 + 4 * (p.k - p.mu)
        assert (p.lam - p.mu - root) % 2 == 0
        s = (p.lam - p.mu - root) // 2
        assert p.n * -s % (p.k - s) == 0
        assert p.n * -s // (p.k - s) == omega

        g = complement(host)
        bounds.clear()
        clique = max_clique(g)
        assert bounds == [omega]
        assert len(clique) == clique_number(g) == omega
        assert is_clique(g, clique)


def test_all_cliques_counts():
    # The cliques of g are the independent sets of its complement.
    # C5: empty + 5 vertices + 5 edges
    assert len(independent_set_masks(complement(cycle(5)))) == 11
    # K4: all subsets
    assert len(independent_set_masks(complement(complete(4)))) == 16


def test_clique_masks_match_all_cliques_reference(differential_graphs):
    # Same masks in the same depth-first order, the empty clique first.
    for g in differential_graphs:
        assert independent_set_masks(complement(g)) == list(all_cliques_reference(g)), g.edges()


# ---------------------------------------------------------------------------
# The bucketed DSATUR kernel against the scan-every-vertex reference: the
# same branching decisions give the same class list.


def _twin_rows(rows, x, y):
    """The rows four_cover_check colours: closed twins n of x and n+1 of y."""
    n = len(rows)
    cx, cy = rows[x] | 1 << x, rows[y] | 1 << y
    twins = [r | (cx >> v & 1) << n | (cy >> v & 1) << n + 1 for v, r in enumerate(rows)]
    return twins + [cx | (cx >> y & 1) << n + 1, cy | (cy >> x & 1) << n]


def _cover4_hosts(steiner_system):
    return [hoffman_singleton(), gewirtz(steiner_system), mesner(steiner_system)]


def test_colour_classes_matches_reference_on_random_graphs():
    rng = SplitMix64(20260)
    for _ in range(2000):
        g = random_graph(1 + rng.randrange(22), rng.randrange(101), rng)
        rows = list(g.rows())
        for k in range(6):
            assert colour_classes(rows, k) == dsatur_reference(rows, k), (g.edges(), k)


def test_colour_classes_matches_reference_on_cover4_hosts(steiner_system):
    # The complement rows of the Hoffman-Singleton, Gewirtz and Mesner
    # complements are the rows of the graphs themselves.
    for host in _cover4_hosts(steiner_system):
        rows = list(host.rows())
        for k in (3, 4, 5):
            assert colour_classes(rows, k) == dsatur_reference(rows, k)
        n = host.n
        for x, y in ((0, 0), (0, 1), (n - 2, n - 1)):
            twins = _twin_rows(rows, x, y)
            assert colour_classes(twins, 4) == dsatur_reference(twins, 4), (n, x, y)


def test_colour_classes_matches_reference_on_triangle_free_process():
    for seed in range(6):
        rows = list(triangle_free_process(60, seed).rows())
        assert colour_classes(rows, 4) == dsatur_reference(rows, 4), seed


def test_colour_classes_matches_reference_on_more_twin_rows(steiner_system):
    # Pairs x = y, adjacent, non-adjacent, and (2, 40), whose closed twins
    # on Mesner are the costly refutation; forced runs are long here.
    for host in (hoffman_singleton(), gewirtz(steiner_system)):
        rows = list(host.rows())
        n = host.n
        adjacent = (rows[0] & -rows[0]).bit_length() - 1
        apart = next(v for v in range(1, n) if not rows[0] >> v & 1)
        for x, y in ((5, 5), (n - 1, n - 1), (0, adjacent), (0, apart), (2, 40), (7, 30)):
            twins = _twin_rows(rows, x, y)
            assert colour_classes(twins, 4) == dsatur_reference(twins, 4), (n, x, y)


def test_colour_classes_matches_reference_on_dense_complements():
    for g in (kneser(7, 3), clebsch()):
        for h in (g, complement(g)):
            rows = list(h.rows())
            for k in (3, 4, 5):
                assert colour_classes(rows, k) == dsatur_reference(rows, k), (h.n, k)


def test_colour_classes_decides_like_brute_force(tf_levels_8):
    # An oracle that is not DSATUR: plain backtracking in index order.
    rng = SplitMix64(20261021)
    graphs = [g for n in range(1, 9) for g in connected_alpha2_graphs(n, tf_levels_8)]
    graphs += [random_graph(rng.randrange(10), rng.randrange(101), rng) for _ in range(1500)]
    for g in graphs:
        rows = list(g.rows())
        for k in range(1, 6):
            classes = colour_classes(rows, k)
            assert (classes is not None) == _colourable(g, k), (g.edges(), k)
            if classes is not None:
                assert len(classes) == k
                union = 0
                for m in classes:
                    assert not union & m and all(not rows[v] & m for v in bits(m))
                    union |= m
                assert union == g.full_mask


def test_four_cover_witnesses_match_reference(steiner_system, monkeypatch):
    hosts = [complement(h) for h in _cover4_hosts(steiner_system)]
    got = [four_cover_check(g) for g in hosts]
    monkeypatch.setattr(certificates, "colour_classes", dsatur_reference)
    assert got == [four_cover_check(g) for g in hosts]
