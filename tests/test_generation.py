"""Isomorph-free generation of triangle-free graphs and their alpha<=2 complements."""

import json
import pathlib
from itertools import combinations

import networkx as nx

from hadwiger2.generation import (
    connected_alpha2_graphs,
    independent_set_masks,
    triangle_free_graphs,
)
from hadwiger2.graphs import Graph, complement, is_connected, is_triangle_free
from hadwiger2.constructions import complete, cycle
from hadwiger2.iso import is_isomorphic

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "triangle_free_counts.json"


def test_counts_match_published_sequence(tf_levels_9):
    published = {int(k): v for k, v in json.loads(FIXTURE.read_text()).items()}
    for n, graphs in tf_levels_9.items():
        assert len(graphs) == published[n], f"count mismatch at n={n}"


def test_counts_match_brute_force_to_6():
    # Independent oracle: enumerate all labelled graphs, filter triangle-free,
    # deduplicate with networkx isomorphism.
    levels = triangle_free_graphs(6)
    for n in range(1, 7):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        reps: list[nx.Graph] = []
        for mask in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            if not is_triangle_free(g):
                continue
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from(g.edges())
            if not any(nx.is_isomorphic(nxg, r) for r in reps):
                reps.append(nxg)
        assert len(levels[n]) == len(reps), f"n={n}"


def test_all_outputs_are_triangle_free_and_distinct(tf_levels_9):
    # Every pair that degree sequences cannot separate is settled by the
    # exact embedding search, independently of the canonical form.
    for n, graphs in tf_levels_9.items():
        assert all(is_triangle_free(g) for g in graphs)
        by_degrees: dict[tuple[int, ...], list[Graph]] = {}
        for g in graphs:
            by_degrees.setdefault(g.degree_sequence(), []).append(g)
        for same in by_degrees.values():
            for g, h in combinations(same, 2):
                assert not is_isomorphic(g, h), (n, g.edges(), h.edges())


def test_connected_alpha2_n3():
    graphs = connected_alpha2_graphs(3)
    assert len(graphs) == 2
    assert any(is_isomorphic(g, complete(3)) for g in graphs)
    assert any(is_isomorphic(g, Graph(3, [(0, 1), (1, 2)])) for g in graphs)


def test_c5_appears_at_n5():
    assert any(is_isomorphic(g, cycle(5)) for g in connected_alpha2_graphs(5))


def test_connected_alpha2_counts(tf_levels_8):
    graphs = {n: connected_alpha2_graphs(n, tf_levels_8) for n in range(1, 7)}
    assert len(graphs[3]) == 2
    assert graphs[6] == connected_alpha2_graphs(6)
    for n, level in graphs.items():
        for g in level:
            assert g.n == n
            assert is_connected(g)
            assert is_triangle_free(complement(g))


def test_independent_set_masks():
    assert sorted(independent_set_masks(complete(3))) == [0b000, 0b001, 0b010, 0b100]
    assert len(independent_set_masks(Graph(3))) == 8
