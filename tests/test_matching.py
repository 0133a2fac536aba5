"""Blossom matching and the independence-2 chromatic shortcut."""

import pytest
from hypothesis import given, settings

from hadwiger2.graphs import Graph, bits, complement, induced_subgraph
from hadwiger2.constructions import complete, cycle, petersen, wheel5
from hadwiger2.matching import (
    Matching,
    chromatic_number_alpha2,
    gallai_edmonds,
    is_factor_critical,
    is_vertex_critical_alpha2,
    matching_number,
    maximum_matching,
)
from hadwiger2.generation import connected_alpha2_graphs

from conftest import brute_chromatic_number, brute_matching_number, random_graph
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
