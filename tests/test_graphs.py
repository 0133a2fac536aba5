"""Core graph type: complement, induced subgraphs, inflations, invariants."""

import math
from itertools import combinations, permutations

import networkx as nx
from networkx.algorithms.flow import shortest_augmenting_path
import pytest
from hypothesis import given, settings, strategies as st

from hadwiger2.graphs import (
    Graph,
    InflationSpec,
    _disjoint_paths,
    adjacent_twins,
    alpha_at_most_2,
    bits,
    blow_up,
    complement,
    diameter,
    girth,
    independence_number_is_2,
    induced_subgraph,
    inflate,
    is_connected,
    is_triangle_free,
    odd_girth,
    twins,
    vertex_connectivity,
)
from hadwiger2 import graphs
from hadwiger2.constructions import (
    andrasfai,
    clebsch,
    complete,
    cycle,
    hoffman_singleton,
    kneser,
    petersen,
    srg_parameters,
)
from hadwiger2.generation import independent_set_masks
from hadwiger2.matching import chromatic_number_alpha2
from hadwiger2.iso import (
    _refine,
    canonical_form,
    find_induced_c5,
    has_induced_subgraph,
    is_isomorphic,
    search,
)
from hadwiger2.rng import SplitMix64
from hadwiger2.steiner import gewirtz, higman_sims, mesner

from conftest import (
    blow_up_reference,
    deadline,
    find_induced_c5_reference,
    independence_number_is_2_reference,
    is_triangle_free_reference,
    refine_reference,
    search_reference,
    search_rounds_reference,
    brute_orbits,
    brute_diameter,
    brute_girth,
    brute_independence_number,
    brute_odd_girth,
    brute_vertex_connectivity,
    from_rows_reference,
    random_graph,
)


def graphs_strategy(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1 if pairs else 0))
        return Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])

    return build()


class TestGraphBasics:
    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_edges_roundtrip(self):
        g = Graph(4, [(0, 1), (2, 3), (1, 2)])
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]
        assert g.edge_count == 3
        assert g.degree(1) == 2

    @given(graphs_strategy())
    @settings(max_examples=60, deadline=None)
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    def test_complement_examples(self):
        assert complement(complete(3)) == Graph(3)
        assert is_isomorphic(complement(cycle(5)), cycle(5))
        assert complement(petersen()).edge_count == 30


def _built_or_error(build, rows):
    try:
        return build(tuple(rows)).rows()
    except ValueError as error:
        return str(error)


class TestFromRows:
    """The word-parallel symmetry check accepts and rejects exactly what
    the per-edge check did, with the same messages."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 63, 64, 65, 300])
    def test_matches_per_edge_reference(self, n):
        rng = SplitMix64(7000 + n)
        outcomes = set()
        for trial in range(9):
            rows = list(random_graph(n, 5 + rng.randrange(90), rng).rows())
            if n >= 2 and trial % 3 == 1:
                u = rng.randrange(n)
                rows[u] ^= 1 << (u + 1 + rng.randrange(n - 1)) % n
            elif n and trial % 3 == 2:
                u = rng.randrange(n)
                rows[u] |= 1 << u
            built = _built_or_error(Graph.from_rows, rows)
            assert built == _built_or_error(from_rows_reference, rows), (n, trial)
            outcomes.add(built if isinstance(built, str) else "graph")
        expected = {"graph"}
        if n:
            expected.add("adjacency rows out of range or with loops")
        if n >= 2:
            expected.add("adjacency not symmetric")
        assert outcomes == expected

    def test_out_of_range_rows(self):
        for rows in ([0b1000, 0, 0], [-1, 0], [0, 1 << 64]):
            assert _built_or_error(Graph.from_rows, rows) == _built_or_error(from_rows_reference, rows)
            assert _built_or_error(Graph.from_rows, rows) == "adjacency rows out of range or with loops"


def test_alpha_at_most_2_matches_triangle_free_complement(steiner_system):
    from hadwiger2.steiner import mesner

    graphs = [Graph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()]
    rng = SplitMix64(2025)
    graphs += [random_graph(1 + rng.randrange(30), rng.randrange(101), rng) for _ in range(500)]
    hosts = [clebsch(), andrasfai(6), kneser(7, 3), hoffman_singleton(),
             gewirtz(steiner_system), mesner(steiner_system)]
    graphs += hosts + [complement(h) for h in hosts]
    answers = set()
    for g in graphs:
        want = is_triangle_free_reference(complement(g))
        assert alpha_at_most_2(g) == want, (g.n, g.edges())
        assert is_triangle_free(complement(g)) == want, (g.n, g.edges())
        answers.add(want)
    assert answers == {False, True}

def test_independence_number_is_2_matches_reference(differential_graphs):
    yes = 0
    for g in differential_graphs:
        got = independence_number_is_2(g)
        assert got == independence_number_is_2_reference(g), g.edges()
        yes += got
    assert 0 < yes < len(differential_graphs)


def test_find_induced_c5_matches_reference(differential_graphs):
    found = 0
    for g in differential_graphs:
        c5 = find_induced_c5(g)
        assert c5 == find_induced_c5_reference(g), g.edges()
        found += c5 is not None
    assert 0 < found < len(differential_graphs)


class TestInducedSubgraph:
    def test_identity(self):
        g = cycle(5)
        assert induced_subgraph(g, range(5)) == g

    def test_consecutive_cycle_vertices_give_path(self):
        g = induced_subgraph(cycle(5), [0, 1, 2])
        assert g.edges() == [(0, 1), (1, 2)]

    def test_independent_set_of_petersen(self):
        p = petersen()
        assert brute_independence_number(p) == 4
        # outer vertex 0 and the three inner vertices avoiding its spokes
        for s in [(1, 3, 5, 9), (0, 2, 8, 9)]:
            sub = induced_subgraph(p, s)
            if sub.edge_count == 0:
                assert sub == Graph(4)
                return
        raise AssertionError("no independent 4-set among the candidates")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(cycle(5), [0, 7])


class TestInflation:
    def test_identity_inflation(self):
        spec = InflationSpec(cycle(5), (1,) * 5)
        assert inflate(spec) == cycle(5)
        assert spec.projection == (0, 1, 2, 3, 4)

    def test_uniform_two_inflation_of_c5(self):
        spec = InflationSpec(cycle(5), (2,) * 5)
        g = inflate(spec)
        assert g.n == 10
        assert brute_independence_number(g) == 2
        for x in range(5):
            assert g.has_edge(spec.offsets[x], spec.offsets[x] + 1)

    def test_zero_multiplicity_is_induced_subgraph(self):
        base = petersen()
        spec = InflationSpec(base, (1, 0, 1, 1, 0, 1, 1, 1, 0, 1))
        keep = [x for x in range(10) if spec.mult[x]]
        assert inflate(spec) == induced_subgraph(base, keep)

    def test_blow_up_k2_gives_c4(self):
        g = blow_up(InflationSpec(complete(2), (2, 2)))
        assert is_isomorphic(g, cycle(4))

    def test_blow_up_identity(self):
        g = petersen()
        assert blow_up(InflationSpec(g, (1,) * 10)) == g

    def test_blow_up_complement_duality(self):
        rng = SplitMix64(7)
        for _ in range(25):
            n = 2 + rng.randrange(5)
            g = random_graph(n, 50, rng)
            mult = tuple(rng.randrange(3) for _ in range(n))
            spec_g = InflationSpec(g, mult)
            spec_gc = InflationSpec(complement(g), mult)
            assert complement(blow_up(spec_gc)) == inflate(spec_g)

    def test_blow_up_matches_reference(self):
        rng = SplitMix64(20261027)
        for _ in range(300):
            n = rng.randrange(9)
            base = random_graph(n, rng.randrange(101), rng)
            spec = InflationSpec(base, tuple(rng.randrange(4) for _ in range(n)))
            assert blow_up(spec) == blow_up_reference(spec), (base.edges(), spec.mult)

    def test_proper_inflation_preserves_alpha_and_complement_diameter(self):
        # Diameter preservation needs the base complement to be non-complete:
        # two expanded copies of one vertex sit at distance exactly 2 in the
        # blow-up, so a complement of diameter 1 grows to diameter 2.
        rng = SplitMix64(11)
        checked = 0
        while checked < 40:
            n = 2 + rng.randrange(7)
            base = random_graph(n, 40 + rng.randrange(40), rng)
            mult = tuple(1 + rng.randrange(3) for _ in range(n))
            g = inflate(InflationSpec(base, mult))
            assert brute_independence_number(g) == brute_independence_number(base)
            d_base = brute_diameter(complement(base))
            d_exp = brute_diameter(complement(g))
            if d_base == 1 and max(mult) > 1:
                assert d_exp == 2
            else:
                assert d_exp == d_base
            checked += 1

    def test_mult_length_mismatch(self):
        with pytest.raises(ValueError):
            InflationSpec(cycle(3), (1, 1))


class TestMetricInvariants:
    def test_diameter_examples(self):
        assert diameter(cycle(5)) == 2
        assert diameter(petersen()) == 2
        two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert diameter(two_triangles) == math.inf
        with pytest.raises(ValueError):
            diameter(Graph(0))

    def test_girth_examples(self):
        assert girth(petersen()) == 5
        assert girth(cycle(5)) == 5
        assert girth(Graph(4, [(0, 1), (1, 2)])) == math.inf
        assert odd_girth(cycle(4)) == math.inf

    def test_odd_girth_of_kneser_7_3(self):
        g = kneser(7, 3)
        assert odd_girth(g) == 7
        assert brute_odd_girth(g) == 7

    def test_metrics_match_brute_force_on_the_atlas(self):
        """Every graph on at most 7 vertices, one per isomorphism class."""
        atlas = nx.graph_atlas_g()
        assert len(atlas) == 1253
        for h in atlas:
            g = Graph(h.number_of_nodes(), h.edges())
            assert girth(g) == brute_girth(g), g.edges()
            assert odd_girth(g) == brute_odd_girth(g), g.edges()
            if g.n:
                assert diameter(g) == brute_diameter(g), g.edges()


class TestConnectivity:
    def test_examples(self):
        assert vertex_connectivity(cycle(5)) == 2
        assert vertex_connectivity(petersen()) == 3
        assert brute_vertex_connectivity(petersen()) == 3
        assert vertex_connectivity(complete(5)) == 4

    def test_requires_two_vertices(self):
        with pytest.raises(ValueError):
            vertex_connectivity(Graph(1))

    @given(graphs_strategy(max_n=7))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, g):
        if g.n >= 2:
            assert vertex_connectivity(g) == brute_vertex_connectivity(g)

    def test_long_cycle_does_not_recurse(self):
        # One augmenting path per BFS, no recursion: 1200 vertices is fine.
        assert vertex_connectivity(cycle(1200)) == 2

    def test_augmenting_path_backs_up_through_a_used_vertex(self):
        # The first BFS path is 0-1-3-6-8.  The second one must enter 6 from
        # 5, back up through 3 (freeing it) to 1, and leave 1 towards 4.
        g = Graph(9, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 6), (5, 6), (4, 7), (6, 8), (7, 8)])
        assert _disjoint_paths(g, 0, 8, 9) == 2

    def test_search_continues_from_the_seeded_flow(self):
        # s = 0 and t = 6 share only vertex 1, so the flow starts with 0-1-6
        # and the BFS adds 0-2-3-6 and 0-4-5-6; the chords 2-1 and 4-3 lead
        # into used vertices.  N(0) has 3 vertices, so 3 is the answer.
        g = Graph(7, [(0, 1), (1, 6), (0, 2), (2, 3), (3, 6), (0, 4), (4, 5), (5, 6), (1, 2), (3, 4)])
        assert [_disjoint_paths(g, 0, 6, k) for k in range(5)] == [0, 1, 2, 3, 3]

    @pytest.mark.parametrize("name", ["hoffman_singleton", "gewirtz"])
    def test_capped_above_40_vertices_matches_networkx(self, name, steiner_system):
        # Every non-adjacent pair has more common neighbours than any cap
        # below, so each pair settles on the seeded flow alone.
        host = hoffman_singleton() if name == "hoffman_singleton" else gewirtz(steiner_system)
        g = complement(host)
        kappa = nx.node_connectivity(_to_nx(g))
        chi = chromatic_number_alpha2(g)
        assert g.n > 40 and kappa == {"hoffman_singleton": 42, "gewirtz": 45}[name]
        for k in (7, chi, kappa, kappa + 1, g.n):
            assert vertex_connectivity(g, at_least=k) == min(kappa, k), k

    def test_capped_matches_networkx(self):
        rng = SplitMix64(41)
        hosts = [complement(petersen()), complement(clebsch())]
        while len(hosts) < 62:
            hosts.append(random_graph(2 + rng.randrange(19), 10 + rng.randrange(80), rng))
        for g in hosts:
            ref = nx.Graph()
            ref.add_nodes_from(range(g.n))
            ref.add_edges_from(g.edges())
            kappa = nx.node_connectivity(ref)
            for k in range(g.n + 1):
                assert vertex_connectivity(g, at_least=k) == min(kappa, k), (g.edges(), k)


def _kappa_with_automorphisms(g, kappa):
    gens = search(g.rows()).generators
    for k in (None, 3, 7):
        want = kappa if k is None else min(kappa, k)
        assert vertex_connectivity(g, at_least=k, automorphisms=gens) == want, (g, k)
        assert vertex_connectivity(g, at_least=k) == want, (g, k)


def _group(gens, n, most=None):
    """Every element of the permutation group generated by ``gens``, or None
    once there are more than ``most``."""
    identity = tuple(range(n))
    group, stack = {identity}, [identity]
    while stack:
        p = stack.pop()
        for q in gens:
            r = tuple(q[i] for i in p)
            if r not in group:
                group.add(r)
                stack.append(r)
        if most is not None and len(group) > most:
            return None
    return sorted(group)


class TestConnectivityByOrbits:
    def test_a_pair_with_the_cap_in_common_neighbours_settles_at_once(self):
        # s = 0 and t = 1 share 2, 3 and 4, and 0-5-6-1 is a fourth path.
        g = Graph(7, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (0, 5), (5, 6), (6, 1)])
        assert [_disjoint_paths(g, 0, 1, k) for k in (2, 3, 4, 5)] == [2, 3, 4, 4]
        # K_{2,3}: three common neighbours, one below the cap, and no more paths.
        k23 = Graph(5, [(s, w) for s in (0, 1) for w in (2, 3, 4)])
        assert [_disjoint_paths(k23, 0, 1, k) for k in (3, 4)] == [3, 3]

    def test_orbit_minima(self):
        rotation = tuple((v + 1) % 6 for v in range(6))
        reflection = tuple(-v % 6 for v in range(6))
        assert graphs._orbit_minima(0b111111, [rotation]) == 0b1
        assert graphs._orbit_minima(0b111110, [reflection]) == 0b1110
        assert graphs._orbit_minima(0b101010, []) == 0b101010
        # Only the vertices of the mask count: 5 is the least of {3, 5}.
        assert graphs._orbit_minima(0b100000, [reflection]) == 0b100000

    def test_screen_pairs_meet_every_pair_orbit(self, tf_levels_8):
        # As the screen calls it: every unordered pair of V is the image of
        # a yielded pair under the automorphism group, and no pair is
        # yielded twice.  The whole group, where it is small, gives the full
        # stabiliser of x, so the y > x rule runs; the generators alone
        # often fix no vertex.
        from hadwiger2.generation import connected_alpha2_graphs

        hosts = [g for n in range(1, 9) for g in connected_alpha2_graphs(n, tf_levels_8)]
        for g in hosts + [complement(h) for h in hosts]:
            if g.n < 2:
                continue
            gens = search(complement(g).rows()).generators
            every = {frozenset(pair) for pair in combinations(range(g.n), 2)}
            whole = _group(gens, g.n)
            for perms in (gens,) if len(whole) > 500 else (gens, whole):
                got = list(graphs._orbit_pairs(g.full_mask, lambda x: g.full_mask & ~(1 << x), perms))
                assert all(x < y for x, y in got) and len(set(got)) == len(got), g.edges()
                images = {frozenset((p[x], p[y])) for x, y in got for p in whole}
                assert images == every, g.edges()

    def test_named_hosts_and_complements_match_networkx(self, steiner_system):
        hosts = [petersen(), clebsch(), kneser(7, 3), kneser(8, 3), hoffman_singleton(),
                 gewirtz(steiner_system), mesner(steiner_system), higman_sims(steiner_system)]
        hosts += [complement(h) for h in hosts] + [cycle(12), complete(6)]
        for g in hosts:
            if g.n > 70 and g.degree(0) > g.n // 2:
                # networkx takes 8 and 26 s on the Mesner and Higman-Sims
                # complements.  Both are connected strongly regular graphs,
                # whose connectivity is their degree (Brouwer & Mesner, 1985).
                assert srg_parameters(g) is not None
                kappa = g.degree(0)
            else:
                kappa = nx.node_connectivity(_to_nx(g), flow_func=shortest_augmenting_path)
            _kappa_with_automorphisms(g, kappa)

    def test_random_graphs_match_networkx(self):
        rng = SplitMix64(30)
        for _ in range(300):
            g = random_graph(2 + rng.randrange(29), 10 + rng.randrange(80), rng)
            _kappa_with_automorphisms(g, nx.node_connectivity(_to_nx(g)))

    def test_solved_pairs_meet_every_pair_orbit_of_the_reduction(self, tf_levels_8, monkeypatch):
        # Without automorphisms the flows run on the Esfahanian-Hakimi pairs
        # around v in order.  With them, every such pair is the image of a
        # solved one under the automorphisms fixing v.
        solved = []

        def recorded(g, s, t, limit):
            solved.append((s, t))
            return _disjoint_paths(g, s, t, limit)

        monkeypatch.setattr(graphs, "_disjoint_paths", recorded)
        # Z_13 and Z_17 joined by the units of order 4: the stabiliser of 0
        # turns N(0) as a 4-cycle, so fixing a neighbour x fixes all of N(0),
        # and x has two orbits of partners y there.
        cyclotomic = [Graph(p, [(u, (u + c) % p) for u in range(p) for c in units])
                      for p, units in ((13, (1, 5, 8, 12)), (17, (1, 4, 13, 16)))]
        hosts = [petersen(), clebsch(), complement(kneser(7, 3)), cycle(12)] + cyclotomic
        for level in tf_levels_8.values():
            hosts += level
        for g in hosts + [complement(h) for h in hosts]:
            if g.n < 2 or not is_connected(g):
                continue
            v = min(range(g.n), key=g.degree)
            nbrs = g.neighbors(v)
            reduction = [(v, t) for t in range(g.n) if t != v and not g.has_edge(v, t)]
            reduction += [(x, y) for i, x in enumerate(nbrs) for y in nbrs[i + 1:] if not g.has_edge(x, y)]
            solved.clear()
            vertex_connectivity(g)
            assert solved == reduction
            gens = search(g.rows()).generators
            # The whole group gives the full stabiliser of v, so every rule
            # that picks pairs runs; the generators alone often fix no vertex.
            group = _group(gens, g.n, most=500)
            for automorphisms in (gens,) if group is None else (gens, group):
                solved.clear()
                vertex_connectivity(g, automorphisms=automorphisms)
                stabiliser = _group([p for p in automorphisms if p[v] == v], g.n)
                images = {frozenset(p[u] for u in pair) for pair in solved for p in stabiliser}
                assert {frozenset(p) for p in reduction} <= images, g.edges()

    @pytest.mark.parametrize("name, flows", [("mesner", (376, 2)), ("kneser", (58, 4))])
    def test_one_flow_per_pair_orbit(self, name, flows, steiner_system, monkeypatch):
        # As the screen calls it: capped at max(chi, 7) = 39 on the
        # 77-vertex Mesner complement, uncapped on the Kneser(7,3) complement.
        if name == "mesner":
            g, cap = complement(mesner(steiner_system)), 39
        else:
            g, cap = complement(kneser(7, 3)), None
        calls = []

        def counted(*args):
            calls.append(args)
            return _disjoint_paths(*args)

        monkeypatch.setattr(graphs, "_disjoint_paths", counted)
        got = []
        for gens in ((), search(g.rows()).generators):
            calls.clear()
            assert vertex_connectivity(g, at_least=cap, automorphisms=gens) == (39 if cap else 30)
            got.append(len(calls))
        assert tuple(got) == flows


class TestTwins:
    def test_examples(self):
        assert adjacent_twins(complete(3)) == [(0, 1), (0, 2), (1, 2)]
        assert twins(cycle(4)) == [(0, 2), (1, 3)]
        assert adjacent_twins(cycle(5)) == []

    @given(graphs_strategy(max_n=8))
    @settings(max_examples=50, deadline=None)
    def test_twin_duality(self, g):
        # adjacent-twin-free iff the complement is twin-free
        assert (adjacent_twins(g) == []) == (twins(complement(g)) == [])
        assert sorted(adjacent_twins(g)) == sorted(twins(complement(g)))


class TestInflationHFreeness:
    def test_adjacent_twin_free_patterns_survive_inflation(self):
        # For adjacent-twin-free h, h-freeness is preserved by inflation.
        rng = SplitMix64(23)
        hs = []
        while len(hs) < 4:
            h = random_graph(4 + rng.randrange(2), 50, rng)
            if adjacent_twins(h) == [] and h.edge_count:
                hs.append(h)
        checked = 0
        while checked < 12:
            g = random_graph(4 + rng.randrange(4), 50, rng)
            for h in hs:
                if has_induced_subgraph(g, h):
                    continue
                mult = tuple(1 + rng.randrange(2) for _ in range(g.n))
                expanded = inflate(InflationSpec(g, mult))
                assert not has_induced_subgraph(expanded, h)
                checked += 1


def _relabel(g: Graph, perm) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def _switch_edges(g: Graph, rng: SplitMix64) -> Graph:
    """Replace edges ab, cd by ad, cb where that keeps the graph simple: the
    degree sequence stays, the isomorphism class usually does not."""
    edges = g.edges()
    for _ in range(20):
        (a, b), (c, d) = edges[rng.randrange(len(edges))], edges[rng.randrange(len(edges))]
        if len({a, b, c, d}) == 4 and not g.has_edge(a, d) and not g.has_edge(c, b):
            rest = [e for e in edges if e not in ((a, b), (c, d))]
            return Graph(g.n, rest + [(a, d), (c, b)])
    return g


def _cycle_union(lengths) -> Graph:
    edges, start = [], 0
    for k in lengths:
        edges += [(start + i, start + (i + 1) % k) for i in range(k)]
        start += k
    return Graph(start, edges)


# 2-regular, so refinement leaves one cell, which is not an orbit when the
# cycle lengths differ.
cycle_unions = st.lists(st.integers(min_value=3, max_value=6), max_size=2).map(_cycle_union)


class TestCanonicalForm:
    @given(st.one_of(graphs_strategy(), cycle_unions), st.data())
    @settings(max_examples=200, deadline=None)
    def test_relabelling_keeps_the_key(self, g, data):
        perm = data.draw(st.permutations(range(g.n)))
        key = canonical_form(g)
        assert canonical_form(_relabel(g, perm)) == key
        assert is_isomorphic(Graph.from_rows(key), g)

    def test_named_graphs(self):
        rng = SplitMix64(3)
        named = [
            Graph(0),
            Graph(5),
            complete(6),
            Graph(7, [(u, v) for u in range(3) for v in range(3, 7)]),
            petersen(),
            blow_up(InflationSpec(cycle(5), (2, 1, 3, 1, 2))),
            inflate(InflationSpec(cycle(5), (2, 1, 3, 1, 2))),
        ]
        for g in named:
            key = canonical_form(g)
            assert is_isomorphic(Graph.from_rows(key), g)
            for _ in range(5):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_form(_relabel(g, perm)) == key

    def test_regular_pairs_with_equal_refinement_differ(self):
        # Colour refinement cannot split a regular graph, so only the
        # individualisation tree tells these apart.
        prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
        k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert canonical_form(cycle(6)) != canonical_form(two_triangles)
        assert canonical_form(prism) != canonical_form(k33)

    def test_equal_keys_exactly_when_networkx_finds_isomorphism(self):
        rng = SplitMix64(41)
        same = differ = 0
        for _ in range(400):
            n = 6 + rng.randrange(4)
            g = random_graph(n, 20 + rng.randrange(60), rng)
            h = _switch_edges(g, rng) if rng.randrange(2) else g
            perm = list(range(n))
            rng.shuffle(perm)
            h = _relabel(h, perm)
            iso = nx.is_isomorphic(_to_nx(g), _to_nx(h))
            assert (canonical_form(g) == canonical_form(h)) == iso, g.edges()
            same += iso
            differ += not iso
        assert same > 50 and differ > 50


class TestSearch:
    def _check(self, g, orbits=None):
        found = search(g.rows())
        assert found.orbits == (brute_orbits(g) if orbits is None else orbits), g.edges()
        relabelled = [0] * g.n
        for v in range(g.n):
            relabelled[found.labelling[v]] = sum(1 << found.labelling[w] for w in g.neighbors(v))
        assert tuple(relabelled) == found.key
        for perm in found.generators:
            assert sorted(perm) == list(range(g.n))
            assert all(
                sum(1 << perm[w] for w in g.neighbors(v)) == g.row(perm[v]) for v in range(g.n)
            )

    def test_orbits_match_brute_force_on_triangle_free_graphs(self, tf_levels_8):
        assert [len(tf_levels_8[n]) for n in range(1, 9)] == [1, 2, 3, 7, 14, 38, 107, 410]
        for level in tf_levels_8.values():
            for g in level:
                self._check(g)

    def test_orbits_of_vertex_transitive_graphs(self, steiner_system):
        # Graph(6) and K_{3,3} are all twins: only the twin transpositions
        # join their orbits.  The cocktail party graph K_{2x20} has twenty
        # twin pairs, joined by the automorphisms its leaves find.
        k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        cocktail = complement(Graph(40, [(2 * i, 2 * i + 1) for i in range(20)]))
        for g in (Graph(6), k33, petersen(), clebsch(), cocktail):
            self._check(g)
            assert set(search(g.rows()).orbits) == {0}
        # The Mesner graph is vertex-transitive (its group, M22:2, is
        # transitive on the 77 blocks of S(3,6,22)); brute_orbits ran for
        # ten minutes on its 60-regular complement without finishing.
        self._check(complement(mesner(steiner_system)), (0,) * 77)

    def test_set_orbits_match_the_whole_group(self, tf_levels_8):
        # Every permutation is tried, as brute_orbits does up to 7 vertices.
        for n in range(1, 7):
            for g in tf_levels_8[n]:
                nbrs = [list(bits(g.row(v))) for v in range(n)]
                group = [p for p in permutations(range(n))
                         if all(sum(1 << p[w] for w in nbrs[v]) == g.row(p[v]) for v in range(n))]
                gens = search(g.rows()).generators
                for mask in independent_set_masks(g):
                    images = {sum(1 << p[v] for v in bits(mask)) for p in group}
                    assert graphs._set_orbit(mask, gens) == images, (g.edges(), mask)

    def test_found_automorphisms_prune_the_tree(self):
        # |Aut| is 120 for Petersen and 1920 for Clebsch; a search that
        # visited one leaf per automorphism would add |Aut| - 1 generators.
        for g in (petersen(), clebsch()):
            assert len(search(g.rows()).generators) < 64


class TestRefinementOrder:
    """Contract that ``generation._settle`` rests on: refinement and the
    search keep the order of colours, so the canonical labelling orders
    vertices of different root ranks as the root refinement does."""

    def _graphs(self, seed):
        rng = SplitMix64(seed)
        for _ in range(150):
            yield random_graph(1 + rng.randrange(16), 10 + rng.randrange(80), rng), rng

    def test_refine_keeps_colour_order(self):
        for g, rng in self._graphs(31):
            colors = [rng.randrange(2 * g.n) for _ in range(g.n)]
            ranks = _refine([g.neighbors(v) for v in range(g.n)], colors, len(set(colors)))
            for u in range(g.n):
                for v in range(g.n):
                    if colors[u] < colors[v]:
                        assert ranks[u] < ranks[v], (g.edges(), colors)

    def test_labelling_keeps_root_rank_order(self, tf_levels_8):
        graphs = [g for g, _ in self._graphs(37)] + tf_levels_8[8]
        for g in graphs:
            degrees = [g.degree(v) for v in range(g.n)]
            root = _refine([g.neighbors(v) for v in range(g.n)], degrees, len(set(degrees)))
            labelling = search(g.rows()).labelling
            for u in range(g.n):
                for v in range(g.n):
                    if root[u] < root[v]:
                        assert labelling[u] < labelling[v], g.edges()


class TestPartitionRefinement:
    """The ordered-partition refinement gives exactly the ranks and the
    searches of the full signature rounds it replaced (``refine_reference``
    and ``search_rounds_reference``, frozen in conftest)."""

    def test_refine_matches_reference_on_random_colourings(self):
        for seed in (31, 37):
            for g, rng in TestRefinementOrder()._graphs(seed):
                nbrs = [g.neighbors(v) for v in range(g.n)]
                for spread in (2, 3, 2 * g.n):
                    colors = [rng.randrange(spread) for _ in range(g.n)]
                    ncolors = len(set(colors))
                    assert _refine(nbrs, colors, ncolors) == refine_reference(nbrs, colors, ncolors)

    def test_refine_matches_reference_on_individualised_colourings(self):
        # Down the first branch of the search tree: at each node, every
        # vertex of the least non-singleton cell is individualised in turn.
        for seed in (31, 37):
            for g, _ in TestRefinementOrder()._graphs(seed):
                nbrs = [g.neighbors(v) for v in range(g.n)]
                degrees = [len(nb) for nb in nbrs]
                ranks = refine_reference(nbrs, degrees, len(set(degrees)))
                while len(set(ranks)) < g.n:
                    least = min(c for c in ranks if ranks.count(c) > 1)
                    cell = [v for v in range(g.n) if ranks[v] == least]
                    for v in cell:
                        colors = [2 * c + (u != v) for u, c in enumerate(ranks)]
                        ncolors = len(set(ranks)) + 1
                        want = refine_reference(nbrs, colors, ncolors)
                        assert _refine(nbrs, colors, ncolors) == want, (g.edges(), v)
                    colors = [2 * c + (u != cell[0]) for u, c in enumerate(ranks)]
                    ranks = refine_reference(nbrs, colors, len(set(ranks)) + 1)

    def test_search_matches_reference(self, tf_levels_8, steiner_system):
        from hadwiger2.steiner import mesner

        hosts = [clebsch(), andrasfai(6), kneser(7, 3), hoffman_singleton(),
                 gewirtz(steiner_system), mesner(steiner_system)]
        graphs = [g for level in tf_levels_8.values() for g in level]
        graphs += hosts + [petersen()] + [cycle(n) for n in range(5, 61)]
        rng = SplitMix64(43)
        for _ in range(200):
            graphs.append(random_graph(1 + rng.randrange(30), 5 + rng.randrange(90), rng))
        graphs += [complement(g) for g in graphs]
        for g in graphs:
            assert search(g.rows()) == search_rounds_reference(g.rows()), (g.n, g.edges())

    def test_long_cycle_in_seconds(self):
        # With full signature rounds after each individualisation this took
        # about 8.5 s (Python 3.11, 2 cores): C_n needs about n/2 rounds.
        with deadline(5, "the search of C_1501"):
            found = search(cycle(1501).rows())
        assert set(found.orbits) == {0}
        assert len(found.generators) == 2


def _named_hosts_and_complements(steiner_system):
    hosts = [petersen(), clebsch(), andrasfai(6), kneser(7, 3), hoffman_singleton(),
             gewirtz(steiner_system)]
    return hosts + [complement(h) for h in hosts]


class TestBackjumping:
    """The search backjumps after each automorphism found at a leaf; the
    reference search carries on through the rest of that leaf's subtree."""

    def test_matches_reference_on_triangle_free_graphs(self, tf_levels_9):
        assert sum(len(level) for level in tf_levels_9.values()) == 2479
        for level in tf_levels_9.values():
            for g in level:
                assert search(g.rows())[:3] == search_reference(g.rows())[:3], g.edges()

    def test_matches_reference_on_named_hosts(self, steiner_system):
        for g in _named_hosts_and_complements(steiner_system):
            assert search(g.rows())[:3] == search_reference(g.rows())[:3], g.n

    def test_fewer_generators_than_vertices(self, steiner_system):
        from hadwiger2.steiner import higman_sims, mesner

        hosts = _named_hosts_and_complements(steiner_system)
        hosts += [mesner(steiner_system), higman_sims(steiner_system)]
        hosts += [complement(h) for h in hosts[-2:]]
        for g in hosts:
            assert len(search(g.rows()).generators) < g.n, g.n

    def test_higman_sims_complement_in_seconds(self, steiner_system):
        # Without backjumping this search takes about 32 s (Python 3.11) and
        # adds 6,116 generators.
        from hadwiger2.steiner import higman_sims

        g = complement(higman_sims(steiner_system))
        with deadline(10, "the Higman-Sims complement search"):
            found = search(g.rows())
        assert set(found.orbits) == {0}

    def test_is_isomorphic_on_a_relabelled_kneser_complement(self):
        # Comparing by backtracking embeddings did not finish here within 20 s.
        g = complement(kneser(7, 3))
        perm = list(range(g.n))
        SplitMix64(5).shuffle(perm)
        k = _relabel(kneser(7, 3), perm)
        h, switched = complement(k), complement(_switch_edges(k, SplitMix64(6)))

        def common_neighbours(f: Graph) -> list[int]:
            return sorted((f.row(u) & f.row(v)).bit_count() for u, v in f.edges())

        # Same degrees, yet not isomorphic: the edges' common neighbourhoods differ.
        assert switched.degree_sequence() == g.degree_sequence()
        assert common_neighbours(switched) != common_neighbours(g)
        with deadline(10, "is_isomorphic on the Kneser(7, 3) complement"):
            assert is_isomorphic(g, h)
            assert not is_isomorphic(g, switched)
