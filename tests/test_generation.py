"""Isomorph-free generation of triangle-free graphs and their alpha<=2 complements."""

import json
import pathlib
import random
from collections import Counter
from itertools import combinations

import networkx as nx

from hadwiger2 import generation
from hadwiger2.generation import (
    _extend,
    _least_key_children,
    _settle,
    _siblings,
    connected_alpha2_graphs,
    independent_set_masks,
    triangle_free_graphs,
)
from hadwiger2.graphs import Graph, bits, complement, is_connected, is_triangle_free
from hadwiger2.constructions import complete, cycle
from hadwiger2.iso import _search, canonical_form, is_isomorphic, search

from conftest import extend_reference, siblings_reference

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


def test_connected_alpha2_counts(tf_levels_9):
    # The enumerate command checks these hosts without testing again that
    # they are connected with alpha <= 2.
    graphs = {n: connected_alpha2_graphs(n, tf_levels_9) for n in range(1, 10)}
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


def test_capped_independent_set_masks_keep_the_order(tf_levels_8):
    # _least_key_children caps the sets at the least degree plus one.
    for level in tf_levels_8.values():
        for parent in level:
            most = min(parent.degree(v) for v in range(parent.n)) + 1
            want = [m for m in independent_set_masks(parent) if m.bit_count() <= most]
            assert independent_set_masks(parent, most) == want, parent.edges()


def _classes(graphs) -> set[tuple[int, ...]]:
    return {canonical_form(g) for g in graphs}


def _unfiltered_classes(max_n: int) -> dict[int, set[tuple[int, ...]]]:
    # Every independent-set extension of every class, deduplicated by
    # canonical form only: the closure without the deletion filter.
    level = {canonical_form(Graph(1)): Graph(1)}
    out = {1: set(level)}
    for k in range(1, max_n):
        children: dict[tuple[int, ...], Graph] = {}
        for parent in level.values():
            for mask in independent_set_masks(parent):
                rows = [r | ((mask >> i & 1) << k) for i, r in enumerate(parent.rows())]
                child = Graph.from_rows(rows + [mask])
                children.setdefault(canonical_form(child), child)
        level = children
        out[k + 1] = set(level)
    return out


def _key(g: Graph, v: int) -> tuple[int, int]:
    return g.degree(v), sum(g.degree(u) for u in bits(g.row(v)))


def test_filtered_levels_equal_unfiltered_closure(tf_levels_8):
    unfiltered = _unfiltered_classes(8)
    for n, graphs in tf_levels_8.items():
        assert _classes(graphs) == unfiltered[n], f"n={n}"


def test_kept_vertex_has_least_key(tf_levels_8):
    # Each representative is an accepted child, so its last vertex (the
    # one added) has the least key; ties are allowed.
    for n, graphs in tf_levels_8.items():
        for g in graphs:
            assert _key(g, n - 1) == min(_key(g, v) for v in range(n)), g.edges()


def test_next_level_ignores_parent_labels(tf_levels_8):
    rng = random.Random(20260412)
    relabelled = []
    for g in tf_levels_8[7]:
        perm = list(range(7))
        rng.shuffle(perm)
        relabelled.append(Graph(7, [(perm[u], perm[v]) for u, v in g.edges()]))
    assert _classes([c for p in relabelled for c, _ in _extend(p)]) == _classes(tf_levels_8[8])


def test_siblings_are_one_per_child_class(tf_levels_8):
    # Siblings in one Aut(parent) orbit give isomorphic children, so the
    # kept representatives are at least as many as the classes; at these
    # orders no two representatives give isomorphic children either.
    # Classes are counted with a per-parent canonical-form dict.
    for n in range(1, 8):
        for parent in tf_levels_8[n]:
            children = _least_key_children(parent)
            classes = {canonical_form(Graph.from_rows(rows)) for _, rows, _ in children}
            kept = _siblings(parent)
            assert {mask for mask, _, _ in kept} <= {mask for mask, _, _ in children}
            assert len(kept) == len(classes), parent.edges()


def test_levels_equal_reference_row_for_row(tf_levels_9):
    # Settling ties without a search, reading keys off the parent and
    # carrying Aut(parent) change no accepted child and no label.
    reference = {1: [Graph(1)]}
    for n in range(1, 9):
        reference[n + 1] = [child for parent in reference[n] for child in extend_reference(parent)]
    levels = triangle_free_graphs(9)
    for n in range(1, 10):
        rows = [g.rows() for g in reference[n]]
        assert [g.rows() for g in levels[n]] == rows, n
        assert [g.rows() for g in tf_levels_9[n]] == rows, n


def test_settle_agrees_with_the_orbit_test(tf_levels_8):
    # Every tied child of every parent on at most 8 vertices, siblings in
    # one orbit included: a decision without search must be the search's.
    outcomes: Counter = Counter()
    for level in tf_levels_8.values():
        for parent in level:
            k = parent.n
            for _, rows, ties in _least_key_children(parent):
                if ties == 1 << k:
                    continue
                found = search(rows)
                first = min(bits(ties), key=found.labelling.__getitem__)
                accepted = found.orbits[first] == found.orbits[k]
                settled, _ = _settle(rows, ties)
                assert settled in (None, accepted), (parent.edges(), bin(ties))
                twins = all(rows[v] & ~(1 << k) == rows[k] & ~(1 << v) for v in bits(ties))
                outcomes["twin accept" if twins else settled] += 1
    # Twin accepts, rank rejects, rank accepts and searches all occur.
    assert set(outcomes) == {"twin accept", False, True, None}, outcomes


def test_each_labelled_graph_searched_at_most_once(monkeypatch):
    searched: list[tuple[int, ...]] = []

    def counting(rows, *root):
        searched.append(tuple(rows))
        return _search(rows, *root)

    monkeypatch.setattr(generation, "_search", counting)
    triangle_free_graphs(9)
    # Searching every tied child and every parent with two children or
    # more took 1,730 searches, and every parent with two children or
    # more whose group was not carried, 758.
    assert len(searched) == 586
    assert len(set(searched)) == len(searched)


def test_siblings_equal_reference(tf_levels_9, monkeypatch):
    # Without carried generators a parent is searched only when two of its
    # children's sets have the same multiset of root colours; the kept
    # children are still those of a search of every parent.
    searched: list[int] = []

    def counting(rows, *root):
        searched.append(len(rows))
        return _search(rows, *root)

    monkeypatch.setattr(generation, "_search", counting)
    paths: Counter = Counter()
    for n in range(1, 9):
        for parent in tf_levels_9[n]:
            before = len(searched)
            kept = _siblings(parent)
            assert kept == siblings_reference(parent), parent.edges()
            if len(_least_key_children(parent)) > 1:
                paths["searched" if len(searched) > before else "unsearched"] += 1
    assert paths["searched"] and paths["unsearched"], paths
