"""Conjecture checkers: dominating edges, connected (dominating) matchings,
small-branch-set models, seagulls, unavoidable scans."""

from functools import partial
from itertools import combinations
from types import SimpleNamespace

import networkx as nx
import pytest

from hadwiger2 import conjectures
from hadwiger2.conjectures import (
    KModel,
    Outcome,
    builtin_patterns,
    connected_dominating_matching,
    connected_matching_max,
    connected_matching_number,
    connected_perfect_matching_search,
    dominating_edge,
    eberhard_model,
    format_model,
    girth5_cdm_construct,
    had2,
    half_order_model_search,
    is_cdm,
    k_model_size2_max,
    parse_model,
    seagull_conditions,
    seagull_pack_exact,
    unavoidable_scan,
    verify_k_model,
)
from hadwiger2.constructions import (
    andrasfai,
    clebsch,
    complete,
    cycle,
    eberhard,
    hoffman_singleton,
    kneser,
    petersen,
    triangle_free_process,
    wheel5,
)
from hadwiger2.generation import connected_alpha2_graphs
from hadwiger2.graphs import Graph, InflationSpec, bits, complement, inflate
from hadwiger2.matching import Matching
from hadwiger2.rng import SplitMix64
from hadwiger2.steiner import gewirtz, mesner

from conftest import (
    _dominating_edge_reference,
    _is_connected_matching,
    _recursion_headroom,
    all_cliques_reference,
    all_matchings,
    brute_connected_matching_number,
    cdm_reference,
    clique_search_reference,
    connected_perfect_matching_reference,
    deadline,
    girth5_cdm_construct_reference,
    half_order_reference,
    is_cdm_reference,
    maximal_cliques_reference,
    random_graph,
    small_branch_sets_reference,
)

TWO_TRIANGLES = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
# The clique {1, 2, 3} of H6 is not maximal, yet 6 - 3 + 0 < 4 breaks the
# seagull clique condition at k = 2.
H6 = Graph(6, [(0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5)])


class TestDominatingEdge:
    def test_examples(self):
        assert dominating_edge(complete(3)) == (0, 1)
        assert dominating_edge(cycle(5)) is None
        star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert dominating_edge(star) == (0, 1)

    def test_matches_the_edge_scan(self, steiner_system):
        # The first edge by non-neighbourhood cuts equals the first edge of
        # the per-edge scan it replaced, on every small graph, on random
        # graphs of every density and on the screen's hosts.
        graphs = [Graph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()]
        assert len(graphs) == 1253
        rng = SplitMix64(2026)
        graphs += [random_graph(1 + rng.randrange(24), rng.randrange(101), rng) for _ in range(500)]
        hosts = [clebsch(), andrasfai(6), kneser(7, 3), hoffman_singleton()]
        hosts += [gewirtz(steiner_system), mesner(steiner_system)]
        graphs += [complement(h) for h in hosts]
        found = 0
        for g in graphs:
            want = _dominating_edge_reference(g)
            assert dominating_edge(g) == want, g.edges()
            found += want is not None
        # Both answers occur often.
        assert 300 < found < len(graphs) - 300, found


class TestConnectedMatching:
    def test_examples(self):
        assert connected_matching_number(TWO_TRIANGLES) == 1
        assert connected_matching_number(complete(4)) == 2
        # C5 admits {01, 23}: the edges see each other through 1-2.
        assert connected_matching_number(cycle(5)) == 2
        assert brute_connected_matching_number(cycle(5)) == 2

    def test_matches_brute_force_randomised(self, tf_levels_8):
        rng = SplitMix64(31)
        graphs = [random_graph(2 + rng.randrange(6), 30 + rng.randrange(50), rng) for _ in range(40)]
        graphs += [g for n in range(2, 9) for g in connected_alpha2_graphs(n, tf_levels_8)]
        for g in graphs:
            got = connected_matching_max(g)
            assert got.status == "found" and _is_connected_matching(g, got.witness.edges)
            assert got.witness.size == brute_connected_matching_number(g), g.edges()

    def test_budget_flag(self):
        got = connected_matching_max(complete(8), budget=3)
        assert got.status == "unknown"
        assert _is_connected_matching(complete(8), got.witness.edges)

    def test_clebsch_complement_is_exact(self):
        # A perfect connected matching: the bound closes the search at once.
        got = connected_matching_max(complement(clebsch()), budget=500_000)
        assert got.status == "found" and got.witness.size == 8
        assert _is_connected_matching(complement(clebsch()), got.witness.edges)


class TestCDM:
    def test_c5(self):
        got = connected_dominating_matching(cycle(5))
        assert got.status == "found"
        assert got.witness.edges == ((0, 1), (2, 3))
        assert is_cdm(cycle(5), got.witness.edges)

    def test_is_cdm_accepts_an_iterator(self):
        assert not is_cdm(cycle(5), [(0, 1)])
        assert not is_cdm(cycle(5), iter([(0, 1)]))
        assert is_cdm(cycle(5), iter([(0, 1), (2, 3)]))

    def test_is_cdm_matches_reference(self, tf_levels_8):
        # Every alpha <= 2 graph on at most 7 vertices, and every set of one
        # or two vertex pairs: non-edges, loops and overlaps included.
        def answer(check, g, edges):
            try:
                return check(g, edges)
            except ValueError:
                return "ValueError"

        seen = set()
        for n in range(1, 8):
            pairs = [(u, v) for u in range(n) for v in range(u, n)]
            sets = [[p] for p in pairs] + [[p, q] for p, q in combinations(pairs, 2)]
            sets += [[(v, u), (y, x)] for (u, v), (x, y) in combinations(pairs, 2)]
            for g in map(complement, tf_levels_8[n]):
                for edges in sets:
                    want = answer(is_cdm_reference, g, edges)
                    assert answer(is_cdm, g, edges) == want, (g.edges(), edges)
                    seen.add(want)
        assert seen == {True, False, "ValueError"}

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            connected_dominating_matching(TWO_TRIANGLES)

    def test_complete_host_answered_by_dominating_edge(self):
        got = connected_dominating_matching(complete(4))
        assert got.status == "found" and got.witness.edges == ((0, 1),)
        assert connected_dominating_matching(complete(1)) == Outcome("refuted")

    def test_inflations_of_petersen_complement(self):
        base = complement(petersen())
        rng = SplitMix64(3)
        for _ in range(10):
            mult = tuple(1 + rng.randrange(2) for _ in range(10))
            g = inflate(InflationSpec(base, mult))
            got = connected_dominating_matching(g)
            assert got.status == "found" and is_cdm(g, got.witness.edges)

    def test_budget_exhaustion_is_unknown(self, steiner_system):
        from hadwiger2.steiner import mesner

        # The search finds a CDM of this host after 20 nodes.
        g = complement(mesner(steiner_system))
        assert connected_dominating_matching(g, budget=10) == Outcome("unknown")

    def test_mesner_complement_found(self, steiner_system):
        from hadwiger2.steiner import mesner

        g = complement(mesner(steiner_system))
        got = connected_dominating_matching(g, budget=500_000)
        assert got.status == "found" and is_cdm(g, got.witness.edges)

    def test_triangle_free_process_complement_found(self):
        g = complement(triangle_free_process(101, 7))
        got = connected_dominating_matching(g, budget=20_000)
        assert got.status == "found" and is_cdm(g, got.witness.edges)


class TestGirth5Construct:
    def test_uniform_two_inflation_of_c5_complement(self):
        # base = complement(C5) = C5 again; matching saturates two cliques
        spec = InflationSpec(complement(cycle(5)), (2,) * 5)
        m = girth5_cdm_construct(spec)
        assert m.size == 4
        assert is_cdm(inflate(spec), m.edges)

    def test_petersen_complement_random_multiplicities(self):
        base = complement(petersen())
        rng = SplitMix64(8)
        for _ in range(10):
            mult = tuple(1 + rng.randrange(3) for _ in range(10))
            spec = InflationSpec(base, mult)
            m = girth5_cdm_construct(spec)
            assert is_cdm(inflate(spec), m.edges)

    def test_hoffman_singleton_complement(self):
        spec = InflationSpec(complement(hoffman_singleton()), (1,) * 50)
        m = girth5_cdm_construct(spec)
        assert is_cdm(inflate(spec), m.edges)

    def test_c5_free_support_falls_back_to_dominating_edge(self):
        # complement(base) = P4 path has girth inf >= 5; support is C5-free.
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        base = complement(p4)
        spec = InflationSpec(base, (2, 1, 1, 2))
        m = girth5_cdm_construct(spec)
        assert m.size == 1
        assert is_cdm(inflate(spec), m.edges)

    def test_rejects_low_girth_base(self):
        with pytest.raises(ValueError):
            girth5_cdm_construct(InflationSpec(complement(complete(3)), (1, 1, 1)))

    def test_matches_reference(self):
        # Multiplicities 0-3 reach all three outcomes: an induced C5 in the
        # support, a C5-free support (a dominating edge), and an expanded
        # graph the construction rejects.
        def outcome(construct, spec):
            try:
                return construct(spec)
            except ValueError as exc:
                return str(exc)

        rng = SplitMix64(20261027)
        kinds = set()
        for h in (petersen(), cycle(5), cycle(7), cycle(11), hoffman_singleton()):
            base = complement(h)
            for _ in range(15):
                spec = InflationSpec(base, tuple(rng.randrange(4) for _ in range(base.n)))
                got = outcome(girth5_cdm_construct, spec)
                assert got == outcome(girth5_cdm_construct_reference, spec), (h.n, spec.mult)
                kinds.add(got.size > 1 if isinstance(got, Matching) else got)
        assert {True, False} <= kinds and len(kinds) > 2


class TestKModels:
    def test_verify_examples(self):
        g = complete(4)
        good = KModel(((0, 1), (2, 3)), 2)
        assert verify_k_model(g, good)
        assert not verify_k_model(TWO_TRIANGLES, KModel(((0, 1), (3, 4)), 2))

    def test_verify_rejects_overlap_and_order_mismatch(self):
        g = complete(4)
        assert not verify_k_model(g, KModel(((0, 1), (1, 2)), 2))
        assert not verify_k_model(g, KModel(((0, 1),), 2))
        assert not verify_k_model(g, KModel(((0, 2), (1, 3)), 1))

    def test_verify_rejects_an_empty_branch_set(self):
        # Without the emptiness test one empty set would pass: it meets no
        # other set, is disjoint from all, and its order matches.
        assert not verify_k_model(complete(4), KModel(((),), 1))

    def test_had2_examples(self):
        assert had2(cycle(7)) == 2
        assert had2(complete(3)) == 3
        # {0,1},{2,3},{4} is a K3 model of C5 with sets of size <= 2
        assert had2(cycle(5)) == 3

    def test_had2_brute_small(self, tf_levels_8):
        rng = SplitMix64(12)
        graphs = [random_graph(2 + rng.randrange(5), 40 + rng.randrange(40), rng) for _ in range(15)]
        graphs += [g for n in range(2, 9) for g in connected_alpha2_graphs(n, tf_levels_8)]
        for g in graphs:
            model = k_model_size2_max(g)
            assert verify_k_model(g, model) or model.order == 0
            assert model.order == _brute_had2(g), g.edges()


def _brute_had2(g: Graph) -> int:
    """Independent exhaustive search over families of 1/2-sets: every
    matching as the pairs, with every set of unmatched vertices, largest
    first, as the singletons."""
    best = 0
    for pairs in all_matchings(g):
        covered = {v for e in pairs for v in e}
        free = [v for v in range(g.n) if v not in covered]
        for mask in sorted(range(1 << len(free)), key=int.bit_count, reverse=True):
            sets = list(pairs) + [(v,) for i, v in enumerate(free) if mask >> i & 1]
            if len(sets) <= best:
                break
            masks = [sum(1 << v for v in b) for b in sets]
            reaches = [g.row(b[0]) | g.row(b[-1]) for b in sets]  # b has 1 or 2 vertices
            if all(reaches[i] & masks[j] for i in range(len(sets)) for j in range(i)):
                best = len(sets)
                break
    return best


class TestEberhardModel:
    def test_p11(self):
        model = eberhard_model(11)
        assert model.order == 65 == (11 * 11 + 11 - 2) // 2
        assert verify_k_model(complement(eberhard(11)), model)

    def test_type_counts(self):
        model = eberhard_model(11)
        sizes = sorted(len(b) for b in model.branch_sets)
        assert sizes.count(1) == 11 - 2
        assert sizes.count(2) == 1 + 11 * ((11 - 1) // 2 - 1) + 11


class TestConnectedPerfectMatching:
    def test_k4(self):
        got = connected_perfect_matching_search(complete(4))
        assert got.status == "found" and got.witness.order == 2
        assert verify_k_model(complete(4), got.witness)

    def test_two_triangles_none(self):
        # No perfect matching exists, and the exact search proves it.
        got = connected_perfect_matching_search(TWO_TRIANGLES, budget=3000)
        assert got == Outcome("refuted")

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            connected_perfect_matching_search(cycle(5))

    def test_exhaustive_against_brute_force(self, tf_levels_8):
        # Every alpha <= 2 graph of even order up to 8.
        seen = {"found": 0, "refuted": 0}
        for n in range(2, 9, 2):
            for t in tf_levels_8[n]:
                g = complement(t)
                got = connected_perfect_matching_search(g)
                want = _brute_connected_perfect(g)
                assert got.status == ("found" if want else "refuted")
                seen[got.status] += 1
                if want:
                    assert got.witness.order == n // 2
                    assert verify_k_model(g, got.witness)
        assert seen["found"] > 0 and seen["refuted"] > 0

    def test_half_order_model_odd(self):
        got = half_order_model_search(cycle(5))
        assert got.status == "found" and got.witness.order == 3
        assert verify_k_model(cycle(5), got.witness)

    def test_half_order_model_respects_budget(self):
        # C5 needs 3 nodes: the root and one per pair.
        assert half_order_model_search(cycle(5), budget=2) == Outcome("unknown")
        assert half_order_model_search(cycle(5), budget=3).status == "found"

    def test_half_order_model_shares_one_budget(self):
        # Singletons 0 to 3 of this alpha = 2 graph leave no connected
        # perfect matching, so four refuted choices spend nodes before 4.
        g = Graph(
            7,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4)]
            + [(2, 6), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)],
        )
        got = half_order_model_search(g)
        assert got.status == "found" and got.witness.branch_sets[-1] == (4,)
        total = got.nodes
        for budget in range(total + 1):
            got = half_order_model_search(g, budget=budget)
            assert got.nodes <= budget
            assert got.status == ("found" if budget == total else "unknown")

    def test_half_order_model_without_a_budget(self):
        # None means no limit, as for connected_dominating_matching and
        # connected_matching_max: the search runs to the same model as an
        # ample budget, on C5 and on the alpha = 2 complement of C7.
        for g in (cycle(5), complement(cycle(7))):
            got = half_order_model_search(g, budget=None)
            assert got == half_order_model_search(g, budget=10**6)
            assert got.status == "found" and got.witness.order == (g.n + 1) // 2
            assert verify_k_model(g, got.witness)


def _brute_connected_perfect(g: Graph) -> bool:
    """Whether some perfect matching of g is pairwise adjacent."""
    return any(2 * len(m) == g.n and _is_connected_matching(g, m) for m in all_matchings(g))


class TestSeagulls:
    def test_c5_packs_one(self):
        rep = seagull_conditions(cycle(5), 1)
        assert rep.all_ok
        pack = seagull_pack_exact(cycle(5), 1)
        assert pack is not None and len(pack) == 1

    def test_two_triangles_fail(self):
        rep = seagull_conditions(TWO_TRIANGLES, 1)
        assert not rep.all_ok and not rep.connectivity_ok
        assert seagull_pack_exact(TWO_TRIANGLES, 1) is None

    def test_w5_is_the_exemption(self):
        # W5 fails the equivalence: conditions hold for k=2, no packing.
        w5 = wheel5()
        rep = seagull_conditions(w5, 2)
        assert rep.all_ok
        assert seagull_pack_exact(w5, 2) is None

    def test_alpha_check(self):
        with pytest.raises(ValueError):
            seagull_conditions(cycle(7), 1)

    def test_non_maximal_violator_of_an_inflation(self):
        # Tripling each vertex of H6 keeps a violating clique at k = 6 that
        # no maximal clique of the 18-vertex inflation reveals.
        g = inflate(InflationSpec(H6, (3,) * 6))
        assert min(map(partial(_clique_value, g), maximal_cliques_reference(g))) >= 12
        rep = seagull_conditions(g, 6)
        assert not rep.clique_condition_ok and not rep.all_ok


def _clique_value(g: Graph, c: int) -> int:
    """n - |C| + mixed(C), with mixed(C) the vertices outside the clique C
    that have both a neighbour and a non-neighbour in it."""
    rows = g.rows()
    return g.n - c.bit_count() + sum(1 for v in bits(g.full_mask & ~c) if rows[v] & c and c & ~rows[v])


class _RowReads:
    """Rows that count their reads: the clique search reads one row per
    clique it visits, the empty one aside."""

    def __init__(self, rows: tuple[int, ...]):
        self.rows, self.reads = rows, 0

    def __getitem__(self, v: int) -> int:
        self.reads += 1
        return self.rows[v]


def _clique_search_visits(g: Graph, k: int) -> tuple[bool, int]:
    """The answer of the clique-condition search and how many cliques it
    visits, the empty one included."""
    rows = _RowReads(g.rows())
    ok = conjectures._clique_condition_ok(SimpleNamespace(n=g.n, full_mask=g.full_mask, rows=lambda: rows), k)
    return ok, rows.reads + 1


def _clique_condition_agrees(g: Graph) -> None:
    """The clique condition at every k <= n/3 + 1 against a scan of every
    clique, the empty one included; and the cliques the search visits
    against the recursive reference, which pins the cut: a weaker cut gives
    the same answers after more visits."""
    least = min(map(partial(_clique_value, g), all_cliques_reference(g)))
    for k in range(1, g.n // 3 + 2):
        assert seagull_conditions(g, k).clique_condition_ok == (least >= 2 * k), (g.edges(), k)
        assert _clique_search_visits(g, k)[1] == len(clique_search_reference(g, k)), (g.edges(), k)


class TestCliqueConditionMatchesEveryClique:
    def test_every_connected_alpha2_graph_to_9(self, tf_levels_9):
        for n in range(1, 10):
            for g in connected_alpha2_graphs(n, tf_levels_9):
                _clique_condition_agrees(g)

    def test_inflations_of_small_violators(self, tf_levels_8):
        # The hosts on at most 7 vertices where a clique that is not
        # maximal scores below every maximal one, inflated with seeded
        # multiplicities 1 to 4 to 17-24 vertices.
        violators = [
            g
            for n in range(1, 8)
            for g in connected_alpha2_graphs(n, tf_levels_8)
            if min(map(partial(_clique_value, g), all_cliques_reference(g)))
            < min(map(partial(_clique_value, g), maximal_cliques_reference(g)))
        ]
        rng = SplitMix64(38)
        done = 0
        while done < 40:
            base = violators[rng.randrange(len(violators))]
            mult = tuple(1 + rng.randrange(4) for _ in range(base.n))
            if 17 <= sum(mult) <= 24:
                _clique_condition_agrees(inflate(InflationSpec(base, mult)))
                done += 1

    def test_visits_on_named_hosts(self, steiner_system):
        # Too many cliques to scan, so the answers and visits are compared
        # with the recursive reference only.
        hosts = [clebsch(), kneser(7, 3), hoffman_singleton()]
        hosts += [gewirtz(steiner_system), mesner(steiner_system)]
        for g in map(complement, hosts):
            for k in sorted({1, g.n // 6, g.n // 3}):
                visits = clique_search_reference(g, k)
                ok = all(_clique_value(g, c) >= 2 * k for c in visits)
                assert _clique_search_visits(g, k) == (ok, len(visits)), (g.n, k)


class TestUnavoidableScan:
    def test_c5_in_petersen(self):
        res = unavoidable_scan(petersen())
        assert res["C5"]
        assert not res["K8"]

    def test_k8_in_higman_sims_complement(self, steiner_system):
        from hadwiger2.steiner import higman_sims

        gc = complement(higman_sims(steiner_system))
        res = unavoidable_scan(gc, [("K8", complete(8))])
        assert res["K8"]

    def test_patterns_have_alpha_at_most_2(self):
        from hadwiger2.graphs import alpha_at_most_2

        for name, pat in builtin_patterns():
            assert alpha_at_most_2(pat), name

    def test_external_pattern_list(self):
        res = unavoidable_scan(cycle(4), [("C4", cycle(4)), ("C5", cycle(5))])
        assert res == {"C4": True, "C5": False}


class TestModelText:
    def test_roundtrip(self):
        model = KModel(((0, 1), (2,), (3, 4)), 3)
        text = format_model(model)
        assert text.splitlines()[0] == "model 3"
        assert parse_model(text) == model

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_model("nonsense")

    def test_parse_rejects_a_header_without_an_order(self):
        with pytest.raises(ValueError, match="'model' line"):
            parse_model("model \nB 0 1\n")

    def test_parse_rejects_an_order_that_is_not_an_integer(self):
        with pytest.raises(ValueError, match="model order .*'model x'"):
            parse_model("model x\n")

    def test_parse_rejects_a_vertex_that_is_not_an_integer(self):
        with pytest.raises(ValueError, match="model line: 'B 0 x'"):
            parse_model("model 2\nB 0 x\n")



BUDGETS = (0, 1, 2, 3, 5, 8, 13, None)


def _agree_with_recursion(g: Graph, had2_budgets) -> None:
    """Status, witness and node count of every search on g match the
    recursive kernels at each budget; had2's search runs at
    ``had2_budgets``."""

    def seen(got: Outcome):
        return got.status, got.witness, got.nodes

    for budget in BUDGETS:
        assert seen(connected_dominating_matching(g, budget)) == cdm_reference(g, budget)
        if g.n % 2 == 0:
            got = connected_perfect_matching_search(g, budget)
            assert seen(got) == connected_perfect_matching_reference(g, budget)
        assert seen(half_order_model_search(g, budget)) == half_order_reference(g, budget)
        sets, done, nodes = small_branch_sets_reference(g, False, budget)
        want = ("found" if done else "unknown", Matching(tuple(sets)), nodes)
        assert seen(connected_matching_max(g, budget)) == want
    for budget in had2_budgets:
        sets, done, nodes = small_branch_sets_reference(g, True, budget)
        want = ("found" if done else "unknown", KModel(tuple(sets), len(sets)), nodes)
        assert seen(conjectures._small_branch_sets(g, True, budget)) == want
        if budget is None:
            assert had2(g) == len(sets)


class TestStackKernelsMatchRecursion:
    def test_every_connected_alpha2_graph_to_8(self, tf_levels_8):
        for n in range(1, 9):
            for g in connected_alpha2_graphs(n, tf_levels_8):
                _agree_with_recursion(g, BUDGETS)

    def test_screen_hosts_and_process_complements(self, steiner_system):
        hosts = [clebsch(), andrasfai(6), kneser(7, 3), hoffman_singleton()]
        hosts += [gewirtz(steiner_system), mesner(steiner_system)]
        hosts += [triangle_free_process(101, s) for s in range(3)]
        for h in hosts:
            # had2 runs to the end only on small hosts: finite budgets here.
            _agree_with_recursion(complement(h), BUDGETS[:-1] + (2000,))


class TestDeepSearches:
    # Each search goes 110 to 1,200 levels deep, past 100 frames of
    # headroom.

    def test_connected_perfect_matching_of_k400(self):
        with _recursion_headroom(100):
            got = connected_perfect_matching_search(complete(400))
        assert got.status == "found" and verify_k_model(complete(400), got.witness)

    def test_half_order_model_of_k401(self):
        with _recursion_headroom(100):
            got = half_order_model_search(complete(401))
        assert got.status == "found" and verify_k_model(complete(401), got.witness)

    def test_connected_matching_of_c400_complement(self):
        g = complement(cycle(400))
        with _recursion_headroom(100):
            got = connected_matching_max(g)
        assert got.witness.size == 200 and _is_connected_matching(g, got.witness.edges)

    def test_had2_of_k400(self):
        with _recursion_headroom(100):
            assert had2(complete(400)) == 400

    def test_seagull_conditions_of_k1200(self):
        with _recursion_headroom(100):
            rep = seagull_conditions(complete(1200), 1)
        assert not rep.clique_condition_ok

    def test_seagull_packing_of_c330_complement(self):
        g = complement(cycle(330))
        with _recursion_headroom(100):
            pack = seagull_pack_exact(g, 110)
        assert len(pack) == 110 and len({v for s in pack for v in s}) == 330
        assert all(g.has_edge(a, c) and g.has_edge(c, b) and not g.has_edge(a, b) for a, c, b in pack)

    def test_budgeted_connected_matching_of_c2500_complement(self):
        g = complement(cycle(2500))
        with deadline(30, "connected_matching_max on the complement of C2500"):
            got = connected_matching_max(g, budget=2000)
        assert got.status == "unknown" and got.witness.size == 1250

    def test_connected_perfect_matching_of_k1500_is_not_cubic(self):
        # Masking each must-match vertex by every chosen reach that misses it
        # is cubic on deep searches (48 s at K_2000); one common reach per
        # vertex, kept as the search goes down, takes about 2 s here.
        with deadline(8, "connected_perfect_matching_search of K1500"):
            got = connected_perfect_matching_search(complete(1500))
        assert got.status == "found" and got.nodes == 751
        assert verify_k_model(complete(1500), got.witness)

    def test_half_order_model_of_c1501_complement_is_not_cubic(self):
        g = complement(cycle(1501))
        with deadline(8, "half_order_model_search of the complement of C1501"):
            got = half_order_model_search(g)
        assert got.status == "found" and got.nodes == 751 and verify_k_model(g, got.witness)

    def test_had2_of_k1000_is_not_cubic(self):
        # Testing each partner against every chosen reach is cubic here and
        # takes about 15 s; one mask per node keeps it well under the bound.
        with deadline(8, "had2 of K1000"):
            assert had2(complete(1000)) == 1000


class TestWitnessesAreVerified:
    """Each search checks its own witness: a forged kernel result raises
    instead of reaching the caller."""

    @pytest.mark.parametrize("search", [connected_dominating_matching, conjectures._cdm])
    def test_cdm_from_the_search(self, monkeypatch, search):
        # C5 has no dominating edge, and 01 leaves vertex 3 undominated.
        monkeypatch.setattr(conjectures, "_grow_matching", lambda *a: Outcome("found", ((0, 1),)))
        with pytest.raises(RuntimeError, match="fails verification"):
            search(cycle(5), None)

    def test_cdm_from_the_dominating_edge(self, monkeypatch):
        monkeypatch.setattr(conjectures, "dominating_edge", lambda g: (0, 1))
        with pytest.raises(RuntimeError, match="fails verification"):
            connected_dominating_matching(cycle(5))

    def test_half_order_model(self, monkeypatch):
        # 14 is no edge of C5, so that branch set is not connected.
        forged = Outcome("found", ((0,), (1, 4), (2, 3)))
        monkeypatch.setattr(conjectures, "_grow_matching", lambda *a: forged)
        with pytest.raises(RuntimeError, match="fails verification"):
            half_order_model_search(cycle(5))

    def test_half_order_model_of_the_wrong_order(self, monkeypatch):
        # A connected matching of C5 that covers only four vertices is a
        # K2 model; the search promises a K3.
        forged = Outcome("found", ((0, 1), (2, 3)))
        monkeypatch.setattr(conjectures, "_grow_matching", lambda *a: forged)
        with pytest.raises(RuntimeError, match="fails verification"):
            half_order_model_search(cycle(5))

    def test_k_model_size2_max(self, monkeypatch):
        # 0 and 2 are not adjacent in C5, so the singletons are no K2 model.
        forged = Outcome("found", KModel(((0,), (2,)), 2))
        monkeypatch.setattr(conjectures, "_small_branch_sets", lambda *a, **k: forged)
        with pytest.raises(RuntimeError, match="fails verification"):
            k_model_size2_max(cycle(5))
        with pytest.raises(RuntimeError, match="fails verification"):
            had2(cycle(5))

    def test_connected_perfect_matching(self, monkeypatch):
        # The edges of C6 are the non-edges of its complement.
        forged = Outcome("found", ((0, 1), (2, 3), (4, 5)))
        monkeypatch.setattr(conjectures, "_grow_matching", lambda *a: forged)
        with pytest.raises(RuntimeError, match="fails verification"):
            connected_perfect_matching_search(complement(cycle(6)))

    def test_connected_perfect_matching_that_is_not_perfect(self, monkeypatch):
        # One edge of K4 is a connected matching, but it leaves 2 and 3 bare.
        monkeypatch.setattr(conjectures, "_grow_matching", lambda *a: Outcome("found", ((0, 1),)))
        with pytest.raises(RuntimeError, match="fails verification"):
            connected_perfect_matching_search(complete(4))

    def test_seagull_that_is_no_path(self, monkeypatch):
        # 02 is no edge of C5, so 0-2-1 is not a path.
        monkeypatch.setattr(conjectures, "_induced_seagulls", lambda g: [(0, 2, 1)])
        with pytest.raises(RuntimeError, match="fails verification"):
            seagull_pack_exact(cycle(5), 1)

    def test_seagulls_that_cover_too_few_vertices(self, monkeypatch):
        # 0-3-0 passes the edge tests but has two vertices, so the two
        # seagulls cover five vertices, not six.
        monkeypatch.setattr(conjectures, "_induced_seagulls", lambda g: [(0, 3, 0), (1, 4, 2)])
        with pytest.raises(RuntimeError, match="fails verification"):
            seagull_pack_exact(complement(cycle(6)), 2)
