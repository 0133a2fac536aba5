"""Named graph families: parameters, self-checks, Cayley and process graphs."""

import math
from itertools import combinations

import pytest

from hadwiger2.constructions import (
    ConstructionError,
    SrgParams,
    andrasfai,
    cayley_abelian,
    clebsch,
    cycle,
    eberhard,
    eberhard_connection,
    generalized_kneser_geq,
    generalized_kneser_leq,
    group_elements,
    hoffman_singleton,
    hypercube,
    kneser,
    kneser_labels,
    petersen,
    srg_parameters,
    sum_free_checks,
    triangle_free_process,
)
from hadwiger2.certificates import aktf_bound
from hadwiger2.graphs import (
    Graph,
    complement,
    diameter,
    girth,
    independence_number_is_2,
    is_triangle_free,
    odd_girth,
)
from hadwiger2.iso import is_isomorphic
from hadwiger2.conjectures import dominating_edge

from conftest import (
    brute_clique_number,
    brute_independence_number,
    brute_odd_girth,
    brute_triangle_free_process,
)


class TestBasicFamilies:
    def test_hypercube(self):
        q4 = hypercube(4)
        assert q4.n == 16
        assert q4.is_regular() and q4.degree(0) == 4
        assert odd_girth(q4) == math.inf  # bipartite

    def test_petersen_is_kneser_5_2(self):
        assert is_isomorphic(petersen(), kneser(5, 2))

    def test_cycle_girth(self):
        assert girth(cycle(5)) == 5
        with pytest.raises(ValueError):
            cycle(2)

    def test_clebsch_parameters(self):
        g = clebsch()
        assert srg_parameters(g) == SrgParams(16, 5, 0, 2)
        assert is_triangle_free(g)
        assert diameter(g) == 2

    def test_hoffman_singleton(self):
        g = hoffman_singleton()
        assert srg_parameters(g) == SrgParams(50, 7, 0, 1)
        assert girth(g) == 5 and diameter(g) == 2


class TestKneserFamilies:
    def test_colex_labels(self):
        assert kneser_labels(4, 2) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]

    def test_triangle_free_window_gives_alpha_2(self):
        # alpha(K(n,k,>=t)) <= 2 when 2k-t <= n < 3k-3t+3
        for n, k, t in [(5, 2, 1), (7, 3, 1), (8, 3, 1), (5, 3, 2)]:
            assert 2 * k - t <= n < 3 * k - 3 * t + 3
            g = generalized_kneser_geq(n, k, t)
            assert brute_independence_number(g) <= 2

    def test_omega_matches_intersection_bound(self):
        g = generalized_kneser_geq(7, 3, 2)
        assert brute_clique_number(g) == aktf_bound(7, 3, 2)

    def test_leq_variant_is_complement(self):
        assert generalized_kneser_leq(6, 3, 1) == complement(
            generalized_kneser_geq(6, 3, 2)
        )
        assert generalized_kneser_leq(5, 2, 0) == kneser(5, 2)

    def test_row_build_matches_edge_lists(self):
        # Every (n, k, t) of acceptance check C8 with n <= 9, against
        # graphs built from explicit edge lists over the colex labels.
        def by_edges(n, k, adjacent):
            labels = [set(c) for c in kneser_labels(n, k)]
            return Graph(len(labels), [
                (i, j)
                for i, j in combinations(range(len(labels)), 2)
                if adjacent(len(labels[i] & labels[j]))
            ])

        cases = 0
        for k in range(1, 10):
            for n in range(k, 10):
                if math.comb(n, k) > 500:
                    continue
                assert kneser(n, k) == by_edges(n, k, lambda c: c == 0)
                for t in range(k):
                    assert generalized_kneser_leq(n, k, t) == by_edges(n, k, lambda c: c <= t)
                    assert generalized_kneser_geq(n, k, t + 1) == by_edges(
                        n, k, lambda c: c >= t + 1
                    )
                    cases += 1
        assert cases == 165

    def test_odd_girth_formula_samples(self):
        for n, k, t in [(7, 3, 0), (9, 4, 0), (8, 3, 1), (11, 4, 1)]:
            g = generalized_kneser_leq(n, k, t)
            want = 2 * math.ceil((k - t) / (n - 2 * (k - t))) + 1
            assert odd_girth(g) == want == brute_odd_girth(g)


class TestAndrasfai:
    def test_gamma_2_is_c5(self):
        assert is_isomorphic(andrasfai(2), cycle(5))

    def test_gamma_3(self):
        g = andrasfai(3)
        assert g.n == 8 and g.is_regular() and g.degree(0) == 3

    def test_triangle_free_up_to_6(self):
        for d in range(1, 7):
            assert is_triangle_free(andrasfai(d))


class TestCayley:
    def test_c5(self):
        assert is_isomorphic(cayley_abelian((5,), [(1,), (4,)]), cycle(5))

    def test_rejects_bad_connection_sets(self):
        with pytest.raises(ValueError):
            cayley_abelian((5,), [(0,)])
        with pytest.raises(ValueError):
            cayley_abelian((5,), [(1,)])  # not inverse-closed

    def test_complement_relation(self):
        # complement(Cay(G,S)) = Cay(G, G \ (S u {0}))
        for orders, conn in [((7,), [(1,), (6,)]), ((3, 3), [(1, 0), (2, 0)])]:
            g = cayley_abelian(orders, conn)
            rest = [
                e
                for e in group_elements(orders)
                if any(e) and tuple(e) not in {tuple(c) for c in _norm(orders, conn)}
            ]
            assert complement(g) == cayley_abelian(orders, rest)

    def test_vertex_transitive_degree(self):
        g = cayley_abelian((4, 2), [(1, 0), (3, 0), (0, 1)])
        assert g.is_regular() and g.degree(0) == 3


def _norm(orders, conn):
    return [tuple(x % o for x, o in zip(e, orders)) for e in conn]


class TestEberhard:
    def test_p11(self):
        g = eberhard(11)
        assert g.n == 121
        assert g.is_regular() and g.degree(0) == 20
        assert is_triangle_free(g) and diameter(g) == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            eberhard(13)  # prime but 1 mod 12
        with pytest.raises(ValueError):
            eberhard(35)  # 11 mod 12 but composite

    def test_connection_set_is_sum_free_maximal(self):
        s = eberhard_connection(11)
        res = sum_free_checks((11, 11), s)
        assert res == {"sum_free": True, "sum_free_maximal": True}


class TestSumFree:
    def test_z5_example(self):
        res = sum_free_checks((5,), [(1,), (4,)])
        assert res == {"sum_free": True, "sum_free_maximal": True}

    def test_empty_set(self):
        res = sum_free_checks((5,), [])
        assert res == {"sum_free": True, "sum_free_maximal": False}

    def test_cayley_cross_check(self):
        # sum-free iff triangle-free, and diameter 2 implies sum-free-maximal.
        # The converse of the second implication is false: S={1,6} in Z7 is
        # sum-free-maximal (3+3=6 blocks every extension) yet C7 has
        # diameter 3.
        for n in range(3, 14):
            reps = list(range(1, n // 2 + 1))
            for mask in range(1 << len(reps)):
                s = set()
                for bit, rep in enumerate(reps):
                    if mask >> bit & 1:
                        s.update((rep, n - rep))
                s = sorted(s)
                conn = [(x,) for x in s]
                res = sum_free_checks((n,), conn)
                g = cayley_abelian((n,), conn) if s else Graph(n)
                assert res["sum_free"] == is_triangle_free(g)
                if g.edge_count and diameter(g) == 2:
                    assert res["sum_free_maximal"]
        bad = sum_free_checks((7,), [(1,), (6,)])
        assert bad["sum_free_maximal"]
        assert diameter(cayley_abelian((7,), [(1,), (6,)])) == 3


class TestTriangleFreeProcess:
    def test_deterministic_given_seed(self):
        assert triangle_free_process(12, 42) == triangle_free_process(12, 42)
        assert triangle_free_process(12, 42) != triangle_free_process(12, 43)

    def test_output_properties(self):
        for seed in (0, 1, 2):
            g = triangle_free_process(10, seed)
            assert is_triangle_free(g)
            gc = complement(g)
            assert independence_number_is_2(gc)
            assert dominating_edge(gc) is None
            # edge-maximal: every non-edge closes a triangle
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if not g.has_edge(u, v):
                        assert g.row(u) & g.row(v)

    def test_a_graph_short_of_one_edge_is_rejected(self, monkeypatch):
        # Dropping an edge uv of the built graph leaves uv addable, as u and
        # v have no common neighbour, so the self-check must refuse it.
        built = Graph.from_rows

        def one_edge_short(rows):
            g = built(rows)
            return Graph(g.n, g.edges()[1:])

        monkeypatch.setattr(Graph, "from_rows", one_edge_short)
        with pytest.raises(ConstructionError, match="not edge-maximal"):
            triangle_free_process(30, 0)

    def test_tiny(self):
        assert triangle_free_process(1, 0).n == 1
        assert triangle_free_process(2, 0).edge_count == 1

    def test_matches_the_recompute_every_step_process(self):
        # n at and around powers of two puts the halving selection's cuts
        # at the row ends.
        sizes = (1, 2, 3, 5, 9, 10, 12, 16, 17, 30, 33, 64, 65)
        cases = [(n, seed) for n in sizes for seed in range(4)]
        for n, seed in cases + [(101, 7)]:
            assert triangle_free_process(n, seed) == brute_triangle_free_process(n, seed), (n, seed)
