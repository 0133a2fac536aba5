"""Counterexample-profile screening."""

from itertools import combinations, permutations

import networkx as nx
import pytest

from hadwiger2.cliques import colour_classes
from hadwiger2.conjectures import connected_dominating_matching, dominating_edge
from hadwiger2.constructions import andrasfai, cayley_abelian, clebsch, complete, cycle, wheel5
from hadwiger2.generation import connected_alpha2_graphs
from hadwiger2.graphs import (
    Graph,
    _orbit_pairs,
    bits,
    complement,
    diameter,
    independence_number_is_2,
    induced_subgraph,
    is_connected,
    is_triangle_free,
)
from hadwiger2.iso import search
from hadwiger2.rng import SplitMix64
from hadwiger2.screening import BLOCKS, PROPERTIES, table1_screen

import conftest
from conftest import (
    all_matchings,
    brute_chromatic_number,
    brute_is_hamiltonian,
    brute_matching_number,
    pairs_reference,
    table1_screen_reference,
)


class TestHelpers:
    def test_colourable(self):
        assert colour_classes(list(cycle(5).rows()), 3) is not None
        assert colour_classes(list(cycle(5).rows()), 2) is None
        assert colour_classes(list(complete(4).rows()), 4) is not None
        assert colour_classes(list(complete(4).rows()), 3) is None

    def test_hamiltonian(self):
        from hadwiger2.constructions import petersen
        from hadwiger2.graphs import induced_subgraph

        assert brute_is_hamiltonian(cycle(6))
        assert brute_is_hamiltonian(complete(4))
        assert not brute_is_hamiltonian(Graph(4, [(0, 1), (1, 2), (2, 3)]))
        # Petersen is the classic hypohamiltonian graph: not Hamiltonian
        # itself, every single-vertex deletion is.
        assert not brute_is_hamiltonian(petersen())
        assert brute_is_hamiltonian(induced_subgraph(petersen(), range(9)))


class TestScreen:
    def test_c5_profile(self):
        rep = table1_screen(cycle(5))
        failed = set(rep.failed())
        # C5 has a connected dominating matching, so P6 fails; the literal
        # pair-deletion criticality P4 fails (C5 minus a non-adjacent pair
        # is K2+K1); connectivity falls short of chi at P8.
        assert failed & set(PROPERTIES[:8]) == {"P4", "P6", "P8"}
        for p in ("P1", "P2", "P3", "P5", "P7"):
            assert rep.verdicts[p].status == "pass"
        assert not rep.survives("minimal-hc")

    def test_w5_profile(self):
        rep = table1_screen(wheel5())
        # the hub makes the complement disconnected: decomposable
        assert rep.verdicts["P2"].status == "fail"
        assert not rep.survives("minimal-shc")

    def test_requires_alpha_2_connected(self):
        with pytest.raises(ValueError):
            table1_screen(complete(4))
        with pytest.raises(ValueError):
            table1_screen(cycle(6))
        two_cliques = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            table1_screen(two_cliques)

    def test_clebsch_complement_fails_order_parity(self):
        from hadwiger2.constructions import clebsch

        rep = table1_screen(complement(clebsch()))
        assert rep.verdicts["P3"].status == "fail"
        assert "chi" in rep.verdicts["P1"].detail

    def test_blocks_nesting(self):
        assert set(BLOCKS["minimal-shc"]) < set(BLOCKS["minimal-hc"]) < set(
            BLOCKS["minimum-hc"]
        )

    def test_report_accessors(self):
        rep = table1_screen(cycle(5))
        assert set(rep.verdicts) == set(PROPERTIES)
        assert rep.unevaluated() == []
        assert rep.fully_evaluated("minimal-hc")

    def test_p6_not_evaluated_when_the_budget_runs_out(self, steiner_system, monkeypatch):
        # The CDM search of the Mesner complement needs 20 nodes; with 5 it
        # stops undecided, and only P6 says so.  No edge dominates this
        # host, so P7 and P12 still pass.
        from hadwiger2 import screening
        from hadwiger2.steiner import mesner

        g = complement(mesner(steiner_system))
        full = table1_screen(g)
        monkeypatch.setattr(screening, "NODE_BUDGET", 5)
        cut = table1_screen(g)
        assert cut.verdicts["P6"] == screening.Verdict("not-evaluated", "CDM search budget exhausted")
        assert full.verdicts["P6"].status != "not-evaluated"
        assert cut.unevaluated() == ["P6"]
        assert cut.verdicts["P7"].status == cut.verdicts["P12"].status == "pass"
        assert {p: v for p, v in cut.verdicts.items() if p != "P6"} == {
            p: v for p, v in full.verdicts.items() if p != "P6"
        }


@pytest.fixture(scope="module")
def alpha2_upto_7(tf_levels_8):
    """Every connected graph with independence number exactly 2 on <= 7 vertices."""
    return [
        g
        for n in range(2, 8)
        for g in connected_alpha2_graphs(n, tf_levels_8)
        if independence_number_is_2(g)
    ]


def _minus(g: Graph, *drop: int) -> Graph:
    return induced_subgraph(g, [v for v in range(g.n) if v not in drop])


def _brute_vertex_critical(g: Graph) -> bool:
    chi = brute_chromatic_number(g)
    return all(brute_chromatic_number(_minus(g, v)) < chi for v in range(g.n))


def _brute_factor_critical(g: Graph) -> bool:
    return all(2 * brute_matching_number(_minus(g, v)) == g.n - 1 for v in range(g.n))


def _brute_is_cdm(g: Graph, m) -> bool:
    """m is non-empty, its edges are pairwise joined by an edge, and every
    uncovered vertex is adjacent to an endpoint of every edge of m."""
    covered = 0
    for u, v in m:
        covered |= (1 << u) | (1 << v)
    for i, (u, v) in enumerate(m):
        reach = g.row(u) | g.row(v)
        if g.full_mask & ~covered & ~reach:
            return False
        if any(not (reach >> x & 1 or reach >> y & 1) for x, y in m[i + 1:]):
            return False
    return bool(m)


def _brute_has_cdm(g: Graph) -> bool:
    return any(_brute_is_cdm(g, m) for m in all_matchings(g))


class TestScreenKernelsAgainstDefinitions:
    def test_matching_based_verdicts(self, alpha2_upto_7):
        assert len(alpha2_upto_7) > 100
        for g in alpha2_upto_7:
            rep = table1_screen(g)
            chi = brute_chromatic_number(g)
            p4 = all(
                brute_chromatic_number(_minus(g, x, y)) == chi - 1
                and _brute_vertex_critical(_minus(g, x, y))
                for x in range(g.n)
                for y in range(x + 1, g.n)
                if not g.has_edge(x, y)
            )
            want = {
                "P1": _brute_vertex_critical(g),
                "P4": p4,
                "P5": _brute_factor_critical(complement(g)),
                "P11": _brute_factor_critical(g),
                "P6": not _brute_has_cdm(g),
                "P22": all(
                    brute_chromatic_number(Graph(g.n, set(g.edges()) - {e})) < chi
                    for e in g.edges()
                ),
            }
            got = {p: rep.verdicts[p].status == "pass" for p in want}
            assert got == want, g.edges()

    def test_cdm_search_matches_brute_force(self, alpha2_upto_7):
        for g in alpha2_upto_7:
            got = connected_dominating_matching(g)
            assert got.status == ("found" if _brute_has_cdm(g) else "refuted"), g.edges()
            if got.status == "found":
                cdm = got.witness
                assert cdm.is_matching_of(g)
                assert _brute_is_cdm(g, cdm.edges), (g.edges(), cdm.edges)


def _random_triangle_free(n: int, keep: int, rng: SplitMix64) -> Graph:
    """Pairs in shuffled order, each added with probability keep/100 when
    it closes no triangle."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    rows = [0] * n
    for u, v in pairs:
        if not rows[u] & rows[v] and rng.randrange(100) < keep:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph.from_rows(rows)


def _nx_matching_number(gc: Graph, keep) -> int:
    h = nx.Graph()
    h.add_nodes_from(keep)
    h.add_edges_from((u, v) for u, v in gc.edges() if u in keep and v in keep)
    return len(nx.max_weight_matching(h, maxcardinality=True))


def _brute_p4(g: Graph) -> bool:
    """mu(gc - x - y) = mu - 1 and mu(gc - x - y - v) = mu(gc - x - y) for
    every v, over every edge xy of the complement gc."""
    gc = complement(g)
    mu = _nx_matching_number(gc, set(range(g.n)))
    for x, y in gc.edges():
        rest = set(range(g.n)) - {x, y}
        mu_rest = _nx_matching_number(gc, rest)
        if mu_rest != mu - 1:
            return False
        if any(_nx_matching_number(gc, rest - {v}) != mu_rest for v in rest):
            return False
    return True


def _circulant_complements() -> list[Graph]:
    """Connected complements of the triangle-free circulants of order 11,
    13 and 15 with connection set {1} plus at most two more offsets."""
    hosts = []
    for n in (11, 13, 15):
        for k in (0, 1, 2):
            for rest in combinations(range(2, n // 2 + 1), k):
                conn = (1, *rest)
                gc = cayley_abelian((n,), [(c,) for c in conn] + [(n - c,) for c in conn])
                if is_triangle_free(gc) and is_connected(complement(gc)):
                    hosts.append(complement(gc))
    return hosts


class TestWarmStartedP4:
    def test_p4_matches_networkx_on_10_to_16_vertices(self):
        # Seeded random hosts mostly fail P4; complements of triangle-free
        # circulants of odd order often pass it.
        rng = SplitMix64(20261018)
        hosts = []
        while len(hosts) < 12:
            gc = _random_triangle_free(10 + rng.randrange(7), 50 + rng.randrange(51), rng)
            if gc.edge_count and is_connected(complement(gc)):
                hosts.append(complement(gc))
        hosts += _circulant_complements()
        verdicts = []
        for g in hosts:
            got = table1_screen(g).verdicts["P4"].status == "pass"
            assert got == _brute_p4(g), g.edges()
            verdicts.append(got)
        assert 0 < sum(verdicts) < len(verdicts)


@pytest.fixture(scope="module")
def alpha2_upto_8(tf_levels_8):
    """Every connected graph with independence number exactly 2 on <= 8
    vertices, with its screen."""
    return [
        (g, table1_screen(g))
        for n in range(3, 9)
        for g in connected_alpha2_graphs(n, tf_levels_8)
        if independence_number_is_2(g)
    ]


def _random_alpha2_hosts(count: int, seed: int) -> list[Graph]:
    """Connected complements of seeded random triangle-free graphs with at
    least one edge, on 10 to 24 vertices."""
    rng = SplitMix64(seed)
    hosts = []
    while len(hosts) < count:
        gc = _random_triangle_free(10 + rng.randrange(15), 30 + rng.randrange(71), rng)
        if gc.edge_count and is_connected(complement(gc)):
            hosts.append(complement(gc))
    return hosts


def _colouring_p22(g: Graph, chi: int) -> bool:
    """Every edge deletion is (chi - 1)-colourable, by the DSATUR kernel."""
    for u, v in g.edges():
        rows = list(g.rows())
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        if colour_classes(rows, chi - 1) is None:
            return False
    return True


class TestExactP10AndP22:
    def test_p10_is_hamiltonicity(self, alpha2_upto_8):
        assert len(alpha2_upto_8) > 400
        verdicts = []
        for g, rep in alpha2_upto_8:
            got = rep.verdicts["P10"]
            assert got.status == ("pass" if brute_is_hamiltonian(g) else "fail"), g.edges()
            assert got.detail == ""
            verdicts.append(got.status == "pass")
        assert 0 < sum(verdicts) < len(verdicts)

    def test_p12_is_p7_and_complement_diameter_2(self, alpha2_upto_8):
        verdicts = []
        for g, rep in alpha2_upto_8:
            p12 = rep.verdicts["P12"].status
            assert p12 == rep.verdicts["P7"].status, g.edges()
            assert (p12 == "pass") == (diameter(complement(g)) == 2), g.edges()
            verdicts.append(p12 == "pass")
        assert 0 < sum(verdicts) < len(verdicts)

    def test_p7_is_no_dominating_edge(self, alpha2_upto_8, steiner_system):
        from hadwiger2.constructions import hoffman_singleton, kneser
        from hadwiger2.steiner import gewirtz, mesner

        screened = [(g, rep) for g, rep in alpha2_upto_8]
        for h in (clebsch(), andrasfai(6), kneser(7, 3), hoffman_singleton(),
                  gewirtz(steiner_system), mesner(steiner_system)):
            screened.append((complement(h), table1_screen(complement(h))))
        verdicts = []
        for g, rep in screened:
            p7 = rep.verdicts["P7"].status == "pass"
            assert p7 == (dominating_edge(g) is None), g.edges()
            verdicts.append(p7)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_p22_matches_colouring_up_to_8(self, alpha2_upto_8):
        verdicts = []
        for g, rep in alpha2_upto_8:
            chi = g.n - _nx_matching_number(complement(g), set(range(g.n)))
            want = _colouring_p22(g, chi)
            assert (rep.verdicts["P22"].status == "pass") == want, g.edges()
            verdicts.append(want)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_p22_matches_colouring_on_10_to_24_vertices(self):
        # Random hosts almost always fail P22; the complements of
        # Andrasfai(4) and Andrasfai(6) pass it.
        hosts = _random_alpha2_hosts(40, 20261019)
        hosts += [complement(andrasfai(k)) for k in (4, 5, 6, 7)]
        verdicts = []
        for g in hosts:
            chi = g.n - _nx_matching_number(complement(g), set(range(g.n)))
            want = _colouring_p22(g, chi)
            assert (table1_screen(g).verdicts["P22"].status == "pass") == want, g.edges()
            verdicts.append(want)
        assert 0 < sum(verdicts) < len(verdicts)


def _pair_parts(g: Graph, x: int, y: int) -> tuple[set, set, set]:
    """A = N(x) - N[y], B = N(x) & N(y), C = N(y) - N[x], as sets."""
    nx_, ny = set(bits(g.row(x))), set(bits(g.row(y)))
    return nx_ - ny - {y}, nx_ & ny, ny - nx_ - {x}


def _in_induced_c5(g: Graph, x: int, y: int) -> bool:
    """Some induced 5-cycle x-a-c-y-b-x through the non-adjacent x, y."""
    others = [v for v in range(g.n) if v not in (x, y)]
    e = g.has_edge
    return any(
        e(x, a) and e(a, c) and e(c, y) and e(y, b) and e(b, x)
        and not (e(x, c) or e(a, y) or e(a, b) or e(c, b))
        for a, c, b in permutations(others, 3)
    )


def _brute_pair_properties(g: Graph, chi: int) -> dict[str, bool]:
    """P13-P16 and P21 from their definitions over the non-adjacent pairs.

    P14 asks that no b in B is adjacent to all of A or to all of C; P15
    that a ~ c iff some b in B misses both, for a in A and c in C (pairs
    with empty B already fail P13 and are not scored by P15).
    """
    e = g.has_edge
    pairs = [(x, y) for x in range(g.n) for y in range(x + 1, g.n) if not e(x, y)]
    parts = {p: _pair_parts(g, *p) for p in pairs}
    return {
        "P13": all(b_set for _, b_set, _ in parts.values()),
        "P14": all(
            b_set
            and not any(all(e(b, a) for a in a_set) for b in b_set)
            and not any(all(e(b, c) for c in c_set) for b in b_set)
            for a_set, b_set, c_set in parts.values()
        ),
        "P15": all(
            e(a, c) == any(not e(b, a) and not e(b, c) for b in b_set)
            for a_set, b_set, c_set in parts.values()
            if b_set
            for a in a_set
            for c in c_set
        ),
        "P16": all(_in_induced_c5(g, x, y) for x, y in pairs),
        "P21": all(
            2 <= len(a_set) <= chi - 4
            and 2 <= len(c_set) <= chi - 4
            and 5 <= len(b_set) <= 2 * chi - 7
            for a_set, b_set, c_set in parts.values()
        ),
    }


class TestPairPropertiesAgainstDefinitions:
    def test_p13_to_p16_and_p21(self, alpha2_upto_7):
        # In this labelling no pair x < y has a b in B adjacent to all of
        # A, but one has a b adjacent to all of C: P14 fails through C only.
        c_side = complement(
            Graph(7, [(0, 2), (0, 5), (1, 5), (1, 6), (2, 4), (2, 6), (3, 4), (3, 6), (4, 5)])
        )
        hosts = alpha2_upto_7 + _circulant_complements() + [complement(clebsch()), c_side]
        seen = {p: set() for p in ("P13", "P14", "P15", "P16", "P21")}
        for g in hosts:
            chi = g.n - _nx_matching_number(complement(g), set(range(g.n)))
            want = _brute_pair_properties(g, chi)
            rep = table1_screen(g)
            got = {p: rep.verdicts[p].status == "pass" for p in want}
            assert got == want, g.edges()
            for p, ok in got.items():
                seen[p].add(ok)
        assert seen["P14"] == seen["P15"] == {True, False}


class TestOrbitScreen:
    """The pair properties are scanned on the pairs that meet an orbit
    representative; the reference screen scans every pair.  Status and
    detail must agree on every property."""

    @staticmethod
    def _agree(hosts) -> None:
        for g in hosts:
            assert table1_screen(g).verdicts == table1_screen_reference(g).verdicts, g.edges()

    def test_small_alpha2_graphs(self, tf_levels_9):
        hosts = [
            g
            for n in range(3, 10)
            for g in connected_alpha2_graphs(n, tf_levels_9)
            if independence_number_is_2(g)
        ]
        assert len(hosts) == 2450
        self._agree(hosts)

    def test_random_hosts(self):
        self._agree(_random_alpha2_hosts(320, 20261019))

    def test_paper_hosts_and_asymmetric_process_hosts(self, steiner_system, monkeypatch):
        # The first seven are vertex-transitive; the triangle-free process
        # complements have no non-trivial automorphism.  The reference's
        # P22 cap is lifted, so every cell is compared.
        from hadwiger2.constructions import hoffman_singleton, kneser, triangle_free_process
        from hadwiger2.steiner import gewirtz, higman_sims, mesner

        monkeypatch.setattr(conftest, "_COLOURING_CAP", 1 << 30)
        hosts = [clebsch(), andrasfai(6), kneser(7, 3), hoffman_singleton(), gewirtz(steiner_system),
                 mesner(steiner_system), higman_sims(steiner_system)]
        hosts += [triangle_free_process(101, seed) for seed in (0, 1)]
        self._agree([complement(h) for h in hosts])

    def test_p22_is_decided_on_large_hosts(self, steiner_system):
        from hadwiger2.constructions import hoffman_singleton, kneser, triangle_free_process
        from hadwiger2.steiner import gewirtz, higman_sims, mesner

        failing = [kneser(7, 3), hoffman_singleton(), gewirtz(steiner_system),
                   higman_sims(steiner_system)]
        passing = [mesner(steiner_system)] + [triangle_free_process(101, s) for s in (0, 1)]
        for hosts, want in ((failing, "fail"), (passing, "pass")):
            for h in hosts:
                assert table1_screen(complement(h)).verdicts["P22"].status == want, h.n

    def test_relabelling_keeps_every_verdict(self, steiner_system):
        from hadwiger2.constructions import hoffman_singleton, kneser
        from hadwiger2.steiner import gewirtz, mesner

        hosts = [complement(h) for h in (clebsch(), andrasfai(6), kneser(7, 3),
                                         hoffman_singleton(), gewirtz(steiner_system),
                                         mesner(steiner_system))]
        hosts += _random_alpha2_hosts(20, 20261020)
        rng = SplitMix64(20261020)
        for g in hosts:
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabelled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert table1_screen(relabelled).verdicts == table1_screen(g).verdicts, g.edges()


class TestOnePairScan:
    """The screen's one pair scan, split by adjacency, gives the
    non-adjacent and the adjacent pairs that its two scans took from
    ``pairs_reference``, each in the same order, less those with y below
    x, on the hosts of ``TestOrbitScreen``."""

    @staticmethod
    def _agree(hosts) -> None:
        for g in hosts:
            found = search(complement(g).rows())
            got = list(_orbit_pairs(g.full_mask, lambda x: g.full_mask & ~(1 << x), found.generators))
            for adjacent in (False, True):
                want = [(x, y) for x, y in pairs_reference(g, adjacent, found) if y > x]
                assert [(x, y) for x, y in got if g.has_edge(x, y) == adjacent] == want, g.edges()

    def test_small_alpha2_graphs(self, tf_levels_9):
        hosts = [
            g
            for n in range(3, 10)
            for g in connected_alpha2_graphs(n, tf_levels_9)
            if independence_number_is_2(g)
        ]
        self._agree(hosts)

    def test_random_hosts(self):
        self._agree(_random_alpha2_hosts(320, 20261019))

    def test_paper_hosts_and_asymmetric_process_hosts(self, steiner_system):
        from hadwiger2.constructions import hoffman_singleton, kneser, triangle_free_process
        from hadwiger2.steiner import gewirtz, higman_sims, mesner

        hosts = [clebsch(), andrasfai(6), kneser(7, 3), hoffman_singleton(), gewirtz(steiner_system),
                 mesner(steiner_system), higman_sims(steiner_system)]
        hosts += [triangle_free_process(101, seed) for seed in (0, 1)]
        self._agree([complement(h) for h in hosts])
