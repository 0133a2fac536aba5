"""Blossom matching and the independence-2 chromatic shortcut."""

import networkx as nx
import pytest
from hypothesis import given, settings

from hadwiger2.graphs import Graph, bits, complement, induced_subgraph
from hadwiger2.constructions import complete, cycle, petersen, wheel5
from hadwiger2.matching import (
    Matching,
    _gallai_edmonds,
    chromatic_number_alpha2,
    gallai_edmonds,
    is_factor_critical,
    is_vertex_critical_alpha2,
    matching_number,
    maximum_matching,
)
from hadwiger2.generation import connected_alpha2_graphs

from conftest import brute_chromatic_number, brute_matching_number, deadline, random_graph
from hadwiger2.rng import SplitMix64
from test_graphs import graphs_strategy


class TestMaximumMatching:
    def test_examples(self):
        assert matching_number(cycle(5)) == 2
        assert matching_number(petersen()) == 5
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert matching_number(star) == 1

    def test_returned_matching_is_valid(self):
        m = maximum_matching(petersen())
        assert m.is_matching_of(petersen())
        assert m.size == 5

    @given(graphs_strategy(max_n=10))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, g):
        assert matching_number(g) == brute_matching_number(g)

    def test_matching_validation(self):
        with pytest.raises(ValueError):
            Matching(((0, 1), (1, 2)))


class TestGallaiEdmonds:
    def test_against_brute_force_deletions(self):
        # mu and D(h) = {v : mu(h - v) = mu(h)} on h = g and on masked
        # subgraphs; sparse hosts leave several exposed roots per matching.
        rng = SplitMix64(8)
        for trial in range(160):
            n = 1 + rng.randrange(12)
            g = random_graph(n, 10 + rng.randrange(50), rng)
            within = g.full_mask
            if trial % 2:
                within &= rng.next_u64()
            keep = list(bits(within))
            mu = brute_matching_number(induced_subgraph(g, keep))
            d = 0
            for v in keep:
                if brute_matching_number(induced_subgraph(g, [u for u in keep if u != v])) == mu:
                    d |= 1 << v
            got = gallai_edmonds(g, within if trial % 2 else None)
            assert got == (mu, d), (g.edges(), within)


def _nx_gallai_edmonds(g: Graph, within: int) -> tuple[int, int]:
    """mu of g[within] and D = {v : mu(g[within] - v) = mu}, by networkx."""

    def mu(keep: set) -> int:
        h = nx.Graph()
        h.add_nodes_from(keep)
        h.add_edges_from((u, v) for u, v in g.edges() if u in keep and v in keep)
        return len(nx.max_weight_matching(h, maxcardinality=True))

    keep = set(bits(within))
    m = mu(keep)
    return m, sum(1 << v for v in keep if mu(keep - {v}) == m)


def _random_matching(g: Graph, rng: SplitMix64) -> list[int]:
    """Partner list of a greedy matching over the edges in shuffled order."""
    edges = g.edges()
    rng.shuffle(edges)
    match = [-1] * g.n
    for u, v in edges:
        if match[u] == match[v] == -1:
            match[u], match[v] = v, u
    return match


def _check_kernel(g: Graph, within: int, start: list[int]) -> None:
    want = _nx_gallai_edmonds(g, within)
    assert gallai_edmonds(g, within) == want, (g.edges(), within)
    mu, d, match = _gallai_edmonds(g, within, start)
    assert (mu, d) == want, (g.edges(), within, start)
    pairs = [(v, w) for v, w in enumerate(match) if w > v]
    assert len(pairs) == mu
    for v, w in pairs:
        assert match[w] == v and g.has_edge(v, w) and within >> v & 1 and within >> w & 1


# Shrunk from a random counterexample.  From the exposed vertex 12 the
# search contracts {2, 10, 11} (base 11) and {5, 6, 9} (base 9); then
# {2, 4, 8, 10, 11} absorbs the first, and a blossom with base 12 absorbs
# both.  A base map that moves only the absorbed bases, not their other
# members, makes the search loop forever here.
NESTED = Graph(
    13,
    [(0, 11), (0, 12), (1, 7), (1, 10), (2, 4), (2, 8), (2, 10), (2, 11), (3, 9),
     (3, 12), (4, 8), (5, 6), (5, 7), (5, 9), (6, 8), (6, 9), (10, 11)],
)


# The deadlines fail a test instead of hanging it: a broken blossom base
# map can make the search loop forever.
class TestKernelAgainstNetworkx:
    def test_random_hosts_masks_and_warm_starts(self):
        rng = SplitMix64(20261020)
        with deadline(60, "the blossom search"):
            for trial in range(60):
                n = 2 + rng.randrange(39)
                g = random_graph(n, 5 + rng.randrange(40), rng)
                within = g.full_mask if trial % 3 == 0 else g.full_mask & rng.next_u64()
                start = _random_matching(g, rng) if trial % 2 else [-1] * n
                _check_kernel(g, within, start)

    def test_nested_blossoms(self):
        empty = [-1] * NESTED.n
        rng = SplitMix64(13)
        with deadline(20, "the blossom search"):
            _check_kernel(NESTED, NESTED.full_mask, empty)
            assert gallai_edmonds(NESTED) == (6, NESTED.full_mask)
            for v in range(NESTED.n):
                within = NESTED.full_mask & ~(1 << v)
                _check_kernel(NESTED, within, empty)
                _check_kernel(NESTED, within, _random_matching(NESTED, rng))


class TestChromaticShortcut:
    def test_examples(self):
        assert chromatic_number_alpha2(cycle(5)) == 3
        assert chromatic_number_alpha2(complement(petersen())) == 5
        with pytest.raises(ValueError):
            chromatic_number_alpha2(Graph(3))  # alpha = 3

    def test_exhaustive_up_to_7(self, tf_levels_8):
        for n in range(1, 8):
            for g in connected_alpha2_graphs(n, tf_levels_8):
                assert chromatic_number_alpha2(g) == brute_chromatic_number(g)

    def test_complete_graph(self):
        assert chromatic_number_alpha2(complete(6)) == 6


class TestFactorCritical:
    def test_examples(self):
        assert is_factor_critical(cycle(5))
        assert not is_factor_critical(cycle(4))
        assert not is_factor_critical(complete(4))
        assert is_factor_critical(complete(5))

    def test_random_against_definition(self):
        rng = SplitMix64(5)
        for _ in range(40):
            n = 3 + rng.randrange(6)
            g = random_graph(n, 30 + rng.randrange(50), rng)
            direct = g.n % 2 == 1 and all(
                brute_matching_number(
                    induced_subgraph(g, [u for u in range(n) if u != v])
                )
                == (n - 1) // 2
                for v in range(n)
            )
            assert is_factor_critical(g) == direct


class TestVertexCritical:
    def test_examples(self):
        assert is_vertex_critical_alpha2(cycle(5))
        assert is_vertex_critical_alpha2(wheel5())
        assert not is_vertex_critical_alpha2(cycle(4))

    def test_against_brute_chromatic(self, tf_levels_8):
        for n in range(2, 8):
            for g in connected_alpha2_graphs(n, tf_levels_8):
                chi = brute_chromatic_number(g)
                direct = all(
                    brute_chromatic_number(
                        induced_subgraph(g, [u for u in range(n) if u != v])
                    )
                    < chi
                    for v in range(n)
                )
                assert is_vertex_critical_alpha2(g) == direct


class TestPairDeletion:
    def test_chromatic_drop_on_critical_graphs(self, tf_levels_9):
        # For a k-critical alpha-2 graph on 2k-1 vertices, deleting any
        # non-adjacent pair drops the chromatic number by exactly one.
        for n in range(3, 10):
            for g in connected_alpha2_graphs(n, tf_levels_9):
                chi = chromatic_number_alpha2(g)
                if n != 2 * chi - 1 or not is_vertex_critical_alpha2(g):
                    continue
                for x in range(n):
                    for y in range(x + 1, n):
                        if g.has_edge(x, y):
                            continue
                        sub = induced_subgraph(
                            g, [v for v in range(n) if v not in (x, y)]
                        )
                        assert chromatic_number_alpha2(sub) == chi - 1

    def test_criticality_of_pair_deletion_fails_for_c5(self):
        # C5 minus a non-adjacent pair is K2+K1, which is not 2-critical:
        # the stronger criticality claim does not hold in general.
        g = cycle(5)
        sub = induced_subgraph(g, [1, 3, 4])
        assert chromatic_number_alpha2(sub) == 2
        assert not is_vertex_critical_alpha2(sub)
