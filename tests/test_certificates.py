"""Clique-cover certificates: verification, named builders, lifting, covers."""

from fractions import Fraction
from itertools import combinations_with_replacement, product

import networkx as nx
import pytest

from hadwiger2 import certificates
from hadwiger2.certificates import (
    CliqueFamilyCertificate,
    aktf_bound,
    clebsch_certificate,
    classify_good_bad_outcome,
    four_cover_check,
    good_bad_partition,
    intersecting_family_size,
    kneser_certificate,
    lift_certificate,
    lift_cover,
    mesner_certificate,
    theta_f_lower_via_omega,
    theta_f_upper,
    verify_certificate,
    vertex_multiplicities,
)
from hadwiger2.cliques import is_clique, max_clique
from hadwiger2.conjectures import Outcome
from hadwiger2.constructions import (
    clebsch,
    complete,
    cycle,
    generalized_kneser_geq,
    hoffman_singleton,
    hypercube,
    kneser_labels,
)
from hadwiger2.generation import connected_alpha2_graphs
from hadwiger2.graphs import Graph, InflationSpec, complement, induced_subgraph, inflate
from hadwiger2.matching import matching_number
from hadwiger2.rng import SplitMix64
from hadwiger2.steiner import gewirtz, higman_sims, mesner

from conftest import (
    brute_clique_number,
    brute_max_t_intersecting,
    check_good_bad_reference,
    classify_good_bad_reference,
    four_cover_reference,
    grow_matching_reference,
    maximal_cliques_reference,
    milp_cover4,
    random_graph,
)


class TestVerify:
    def test_k3_trivial(self):
        cert = CliqueFamilyCertificate(((0, 1, 2),), Fraction(1))
        assert verify_certificate(complete(3), cert)

    def test_c5_edge_cliques(self):
        edges = tuple(cycle(5).edges())
        good = CliqueFamilyCertificate(edges, Fraction(5, 2))
        assert verify_certificate(cycle(5), good)
        tight = CliqueFamilyCertificate(edges, Fraction(2))
        assert not verify_certificate(cycle(5), tight)

    def test_rejects_non_clique(self):
        cert = CliqueFamilyCertificate(((0, 1, 2),), Fraction(1))
        assert not verify_certificate(cycle(5), cert)

    def test_out_of_range_vertex(self):
        cert = CliqueFamilyCertificate(((0, 9),), Fraction(1))
        with pytest.raises(ValueError):
            verify_certificate(complete(3), cert)

    def test_bound_below_one_rejected(self):
        with pytest.raises(ValueError):
            CliqueFamilyCertificate(((0,),), Fraction(1, 2))

    def test_empty_family_only_on_the_empty_host(self):
        # With no cliques the threshold r/k is 0, which every vertex meets.
        empty = CliqueFamilyCertificate((), Fraction(1))
        assert not verify_certificate(cycle(5), empty)
        assert verify_certificate(Graph(0, []), empty)


class TestClebschCertificate:
    def test_structure(self):
        g = complement(clebsch())
        cert = clebsch_certificate(g)
        assert cert.bound == Fraction(16, 5)
        assert cert.size == 16
        assert all(len(c) == 5 for c in cert.cliques)
        assert vertex_multiplicities(g, cert) == [5] * 16
        assert verify_certificate(g, cert)

    def test_rejects_other_graphs(self):
        with pytest.raises(ValueError):
            clebsch_certificate(clebsch())
        with pytest.raises(ValueError):
            clebsch_certificate(complete(16))

    def test_pins_theta_f(self):
        g = complement(clebsch())
        assert theta_f_upper(g, clebsch_certificate(g)) == Fraction(16, 5)
        assert theta_f_lower_via_omega(g) == Fraction(16, 5)


class TestMesnerCertificate:
    def test_structure(self, steiner_system):
        g = complement(mesner(steiner_system))
        cert = mesner_certificate(g, steiner_system)
        assert cert.bound == Fraction(22, 6)
        assert cert.size == 22
        assert all(len(c) == 21 for c in cert.cliques)
        assert vertex_multiplicities(g, cert) == [6] * 77
        assert verify_certificate(g, cert)

    def test_rejects_mismatched_host(self, steiner_system):
        with pytest.raises(ValueError):
            mesner_certificate(mesner(steiner_system), steiner_system)


class TestKneserCertificate:
    def test_petersen_complement_case(self):
        cert = kneser_certificate(5, 2, 1, 0)
        host = generalized_kneser_geq(5, 2, 1)
        assert cert.size == 5
        assert all(len(c) == 4 for c in cert.cliques)
        assert cert.bound == Fraction(5, 2)
        assert verify_certificate(host, cert)

    def test_7_3_1_0(self):
        cert = kneser_certificate(7, 3, 1, 0)
        host = generalized_kneser_geq(7, 3, 1)
        assert verify_certificate(host, cert)

    def test_multiplicity_formula_matches_enumeration(self):
        n, k, t, r = 7, 3, 2, 1
        cert = kneser_certificate(n, k, t, r)
        host = generalized_kneser_geq(n, k, t)
        counts = vertex_multiplicities(host, cert)
        s = t + 2 * r
        labels = kneser_labels(n, k)
        from itertools import combinations

        for i, lab in enumerate(labels):
            direct = sum(
                1
                for sub in combinations(range(n), s)
                if len(set(sub) & set(lab)) >= t + r
            )
            assert counts[i] == direct

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            kneser_certificate(5, 2, 0, 0)
        with pytest.raises(ValueError):
            kneser_certificate(5, 2, 1, 3)

    def test_forged_family_size_fails_verification(self, monkeypatch):
        # The stars of K(5,2,>=1) hold each pair twice; a family of 5, not
        # 4, makes the bound 10/5 and asks for 5/2 memberships per vertex.
        monkeypatch.setattr(certificates, "intersecting_family_size", lambda n, k, t, r: 5)
        with pytest.raises(RuntimeError, match="fails verification"):
            kneser_certificate(5, 2, 1, 0)


class TestAktf:
    def test_examples(self):
        assert aktf_bound(5, 2, 1) == 4
        assert brute_max_t_intersecting(5, 2, 1) == 4
        assert aktf_bound(6, 3, 3) == 1

    def test_family_size_formula(self):
        assert intersecting_family_size(5, 2, 1, 0) == 4
        assert intersecting_family_size(7, 3, 1, 0) == 15

    def test_matches_brute_family_search_small(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                for t in range(1, k + 1):
                    assert aktf_bound(n, k, t) == brute_max_t_intersecting(n, k, t)

    def test_domain(self):
        with pytest.raises(ValueError):
            aktf_bound(5, 6, 1)


class TestThetaBounds:
    def test_complete_graph(self):
        g = complete(6)
        cert = CliqueFamilyCertificate((tuple(range(6)),), Fraction(1))
        assert theta_f_upper(g, cert) == 1
        assert theta_f_lower_via_omega(g) == 1

    def test_petersen_complement_pinned(self):
        host = generalized_kneser_geq(5, 2, 1)
        assert theta_f_lower_via_omega(host) == Fraction(5, 2)

    def test_failed_certificate_raises(self):
        with pytest.raises(ValueError):
            theta_f_upper(cycle(5), CliqueFamilyCertificate(((0, 1, 2),), Fraction(1)))


class TestLifting:
    def test_identity_inflation(self):
        spec = InflationSpec(cycle(5), (1,) * 5)
        cover = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        lifted = lift_cover(spec, cover)
        assert sorted(tuple(sorted(c)) for c in lifted) == sorted(cover)

    def test_c5_uniform_two(self):
        spec = InflationSpec(cycle(5), (2,) * 5)
        cover = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        lifted = lift_cover(spec, cover)
        assert len(lifted) == 5
        assert sum(len(c) for c in lifted) == 15
        g = inflate(spec)
        union = set()
        for c in lifted:
            assert is_clique(g, c)
            union.update(c)
        assert union == set(range(10))

    def test_single_vertex_base(self):
        spec = InflationSpec(Graph(1), (4,))
        lifted = lift_cover(spec, [(0,)])
        assert lifted == [(0, 1, 2, 3)]

    def test_non_proper_rejected(self):
        with pytest.raises(ValueError):
            lift_cover(InflationSpec(cycle(5), (2, 0, 1, 1, 1)), [(0, 1)])

    def test_non_cover_rejected(self):
        with pytest.raises(ValueError):
            lift_cover(InflationSpec(cycle(5), (1,) * 5), [(0, 1)])

    def test_size_identity_randomised(self):
        rng = SplitMix64(99)
        done = 0
        while done < 200:
            n = 2 + rng.randrange(7)
            base = random_graph(n, 30 + rng.randrange(60), rng)
            mult = tuple(1 + rng.randrange(3) for _ in range(n))
            spec = InflationSpec(base, mult)
            from hadwiger2.graphs import bits

            cliques = [tuple(bits(m)) for m in maximal_cliques_reference(base)]
            rng.shuffle(cliques)
            cover = []
            seen = set()
            for c in cliques:
                if not set(c) <= seen:
                    cover.append(c)
                    seen.update(c)
            if seen != set(range(n)):
                continue
            lifted = lift_cover(spec, cover)
            assert len(lifted) == len(cover)
            assert sum(map(len, lifted)) == spec.expanded_n - n + sum(map(len, cover))
            g = inflate(spec)
            union = set()
            for c in lifted:
                assert is_clique(g, c)
                union.update(c)
            assert union == set(range(spec.expanded_n))
            done += 1

    def test_certificate_lift_preserves_bound(self):
        host = generalized_kneser_geq(5, 2, 1)
        cert = kneser_certificate(5, 2, 1, 0)
        rng = SplitMix64(5)
        for _ in range(10):
            mult = tuple(1 + rng.randrange(3) for _ in range(10))
            spec = InflationSpec(host, mult)
            lifted = lift_certificate(spec, cert)
            assert lifted.bound == cert.bound
            assert verify_certificate(inflate(spec), lifted)

    def test_theta_f_invariance_uniform(self):
        # Uniform proper inflations keep both the certified upper bound and
        # the omega-based lower bound, pinning theta_f at the same value.
        for host, cert in [
            (cycle(5), CliqueFamilyCertificate(tuple(cycle(5).edges()), Fraction(5, 2))),
            (generalized_kneser_geq(5, 2, 1), kneser_certificate(5, 2, 1, 0)),
        ]:
            for m in (1, 2, 3):
                spec = InflationSpec(host, (m,) * host.n)
                g = inflate(spec)
                lifted = lift_certificate(spec, cert)
                assert verify_certificate(g, lifted)
                assert theta_f_lower_via_omega(g) == cert.bound

    def test_inflated_clique_ratio_bound(self):
        # omega/|V| of any inflation is at least 1/bound for certified hosts.
        host = generalized_kneser_geq(5, 2, 1)
        cert = kneser_certificate(5, 2, 1, 0)
        rng = SplitMix64(17)
        for _ in range(15):
            mult = tuple(rng.randrange(4) for _ in range(10))
            if sum(mult) == 0:
                continue
            g = inflate(InflationSpec(host, mult))
            assert Fraction(brute_clique_number(g), g.n) >= 1 / cert.bound


class TestFourCover:
    def test_k6(self):
        got = four_cover_check(complete(6))
        assert got.status == "found"
        assert sum(len(c) for c in got.witness) >= 8

    def test_c5(self):
        got = four_cover_check(cycle(5))
        assert got.status == "found"
        cover = got.witness
        assert sum(len(c) for c in cover) >= 7
        assert set().union(*[set(c) for c in cover]) == set(range(5))

    def test_higman_sims_complement_impossible(self, steiner_system):
        from hadwiger2.steiner import higman_sims

        gc = complement(higman_sims(steiner_system))
        assert four_cover_check(gc) == Outcome("refuted")

    def test_alpha_above_two_rejected(self):
        with pytest.raises(ValueError):
            four_cover_check(cycle(7))

    def test_c9_complement(self):
        got = four_cover_check(complement(cycle(9)))
        assert got.status == "found"
        assert sum(len(c) for c in got.witness) >= 11

    def test_refuted_exactly_when_brute_force_finds_no_cover(self, tf_levels_8):
        # Every connected alpha <= 2 graph on at most 7 vertices; a cover
        # can always use maximal cliques, so 4-multisets of them suffice.
        for n in range(1, 8):
            for g in connected_alpha2_graphs(n, tf_levels_8):
                maximal = _brute_maximal_cliques(g)
                exists = any(
                    set().union(*quad) == set(range(n)) and sum(map(len, quad)) >= n + 2
                    for quad in combinations_with_replacement(maximal, 4)
                )
                got = four_cover_check(g)
                assert got.status == ("found" if exists else "refuted"), g.edges()
                if exists:
                    cover = got.witness
                    assert len(cover) == 4 and all(is_clique(g, c) for c in cover)
                    assert set().union(*map(set, cover)) == set(range(n))
                    assert sum(map(len, cover)) >= n + 2

    def test_mycielski_complement_refuted(self):
        # n = 23 and 4 * omega = 44 >= 25, so only the colouring refutes:
        # the Mycielski graph M5 is 5-chromatic.
        g = complement(Graph(23, list(nx.mycielski_graph(5).edges())))
        assert 4 * brute_clique_number(g) >= g.n + 2
        assert four_cover_check(g) == Outcome("refuted")
        assert not milp_cover4(g)

    def test_vertex_deleted_mycielski_complements_found(self):
        # M5 is 5-vertex-critical, so each M5 - v is 4-colourable; the
        # searches for these covers have to backtrack.
        m5 = Graph(23, list(nx.mycielski_graph(5).edges()))
        for d in range(23):
            g = complement(induced_subgraph(m5, [v for v in range(23) if v != d]))
            got = four_cover_check(g)
            assert got.status == "found", d
            _assert_cover4(g, got.witness)

    def test_agrees_with_milp_on_random_hosts(self):
        rng = SplitMix64(2024)
        for _ in range(40):
            g = complement(_random_triangle_free(9 + rng.randrange(12), rng))
            got = four_cover_check(g)
            assert got.status == ("found" if milp_cover4(g) else "refuted"), g.edges()
            if got.status == "found":
                _assert_cover4(g, got.witness)

    def test_fallback_when_the_base_colouring_fits_no_pair(self, monkeypatch):
        # The fall colouring of Q3: vertex i gets (i1 ^ i3) + 2 (i2 ^ i3), so
        # each vertex sees the other three colours and none is free.  No
        # pair fits it, and only the per-pair searches find the cover.
        fall = [0] * 4
        for i in range(8):
            i1, i2, i3 = i & 1, i >> 1 & 1, i >> 2 & 1
            fall[(i1 ^ i3) + 2 * (i2 ^ i3)] |= 1 << i
        q3 = hypercube(3)
        for v in range(8):
            assert [c for c, m in enumerate(fall) if m & (q3.row(v) | 1 << v)] == [0, 1, 2, 3]
        real, calls = certificates.colour_classes, []

        def fall_first(rows, k):
            calls.append(len(rows))
            return list(fall) if len(calls) == 1 else real(rows, k)

        monkeypatch.setattr(certificates, "colour_classes", fall_first)
        g = complement(q3)
        got = four_cover_check(g)
        assert got.status == "found"
        _assert_cover4(g, got.witness)
        assert calls[0] == 8 and calls[1:] and set(calls[1:]) == {10}

    def test_refuted_when_every_twin_colouring_fails(self, monkeypatch):
        # No host is known to get here: every triangle-free complement
        # with n <= 11 that passes the omega gate and is 4-colourable is
        # found.  A base colouring with every colour at every vertex leaves
        # no free colour, and each of the 15 pair searches then fails.
        calls = []

        def forged(rows, k):
            calls.append(len(rows))
            return [(1 << len(rows)) - 1] * k if len(calls) == 1 else None

        monkeypatch.setattr(certificates, "colour_classes", forged)
        assert four_cover_check(cycle(5)) == Outcome("refuted")
        assert calls == [5] + [7] * 15

    def test_fallback_on_a_random_host(self, monkeypatch):
        # The 32nd host of this seed is the first of 400 random triangle-free
        # complements (15 <= n <= 34) whose base colouring fits no pair;
        # the searches refute (0, 0) and find (0, 1), as they did alone.
        rng = SplitMix64(99)
        for _ in range(32):
            g = complement(_random_triangle_free(15 + rng.randrange(20), rng))
        real, calls = certificates.colour_classes, []

        def counted(rows, k):
            calls.append(len(rows))
            return real(rows, k)

        monkeypatch.setattr(certificates, "colour_classes", counted)
        got = four_cover_check(g)
        assert g.n == 32 and calls == [32, 34, 34]
        monkeypatch.setattr(certificates, "colour_classes", real)
        assert got == four_cover_reference(g)
        _assert_cover4(g, got.witness)

    def test_statuses_match_reference(self, tf_levels_8, steiner_system):
        for g in _four_cover_hosts(tf_levels_8, steiner_system):
            got = four_cover_check(g)
            assert got.status == four_cover_reference(g).status, (g.n, g.edges())
            if got.status == "found":
                _assert_cover4(g, got.witness)
                assert sum(map(len, got.witness)) == g.n + 2


def _four_cover_hosts(tf_levels_8, steiner_system) -> list[Graph]:
    """The hosts of TestFourCover, then the Hoffman-Singleton, Gewirtz and
    Mesner complements."""
    m5 = Graph(23, list(nx.mycielski_graph(5).edges()))
    hosts = [complete(6), cycle(5), complement(higman_sims(steiner_system)), complement(cycle(9))]
    hosts += [g for n in range(1, 8) for g in connected_alpha2_graphs(n, tf_levels_8)]
    hosts.append(complement(m5))
    hosts += [complement(induced_subgraph(m5, [v for v in range(23) if v != d])) for d in range(23)]
    rng = SplitMix64(2024)
    hosts += [complement(_random_triangle_free(9 + rng.randrange(12), rng)) for _ in range(40)]
    hosts += [complement(h) for h in (hoffman_singleton(), gewirtz(steiner_system), mesner(steiner_system))]
    return hosts


def _random_triangle_free(n: int, rng: SplitMix64) -> Graph:
    """Edges offered in random order, kept unless they close a triangle,
    up to a random target count."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    target = rng.randrange(len(pairs) + 1)
    rows = [0] * n
    edges = []
    for u, v in pairs:
        if len(edges) == target:
            break
        if not rows[u] & rows[v]:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            edges.append((u, v))
    return Graph(n, edges)


def _assert_cover4(g: Graph, cover) -> None:
    assert len(cover) == 4 and all(is_clique(g, c) for c in cover)
    assert set().union(*map(set, cover)) == set(range(g.n))
    assert sum(map(len, cover)) >= g.n + 2


def _brute_maximal_cliques(g: Graph) -> list[frozenset[int]]:
    cliques = [
        frozenset(v for v in range(g.n) if mask >> v & 1)
        for mask in range(1, 1 << g.n)
        if is_clique(g, [v for v in range(g.n) if mask >> v & 1])
    ]
    return [c for c in cliques if not any(c < d for d in cliques)]


class TestGoodBad:
    def test_petersen_complement_partition(self):
        host = generalized_kneser_geq(5, 2, 1)
        cert = kneser_certificate(5, 2, 1, 0)
        part = good_bad_partition(host, cert)
        assert len(part.good) + len(part.bad) == host.edge_count
        assert classify_good_bad_outcome(host, part) == Outcome("found", "d")

    def test_no_perfect_good_matching_is_refuted(self, monkeypatch):
        # No host is known to reach the last line, which would contradict
        # the paper's case lemma; a matching one edge short of perfect
        # forges that case on the partition that otherwise gives 'd'.
        host = generalized_kneser_geq(5, 2, 1)
        part = good_bad_partition(host, kneser_certificate(5, 2, 1, 0))
        monkeypatch.setattr(certificates, "matching_number", lambda g: (g.n - 2) // 2)
        assert classify_good_bad_outcome(host, part) == Outcome("refuted")

    def test_k4_trivial_certificate(self):
        g = complete(4)
        cert = CliqueFamilyCertificate(((0, 1, 2, 3),), Fraction(1))
        part = good_bad_partition(g, cert)
        assert len(part.good) == 6 and not part.bad
        assert classify_good_bad_outcome(g, part) == Outcome("found", "a")

    def test_inflated_c5_has_a_bad_edge_and_a_small_cut(self):
        # C5 with vertex 4 doubled, covered by its five lifted edge-cliques:
        # the twin edge meets only two of them, so it is the one bad edge.
        spec = InflationSpec(cycle(5), (1, 1, 1, 1, 2))
        g = inflate(spec)
        cert = lift_certificate(spec, CliqueFamilyCertificate(tuple(cycle(5).edges()), Fraction(5, 2)))
        part = good_bad_partition(g, cert)
        assert len(part.good) == 7 and part.bad == {(4, 5)}
        assert nx.node_connectivity(nx.Graph(g.edges())) == 2 <= g.n // 2
        assert classify_good_bad_outcome(g, part) == Outcome("found", "b")

    def test_bound_three_rejected(self):
        g = complete(4)
        cert = CliqueFamilyCertificate(((0, 1, 2, 3),), Fraction(3))
        with pytest.raises(ValueError):
            good_bad_partition(g, cert)

    def test_odd_order_rejected(self):
        g = cycle(5)
        cert = CliqueFamilyCertificate(tuple(g.edges()), Fraction(5, 2))
        part = good_bad_partition(g, cert)
        with pytest.raises(ValueError):
            classify_good_bad_outcome(g, part)

    def test_hypotheses_hold_on_certified_small_hosts(self):
        # Certified bound < 3 partitions satisfy both structural hypotheses
        # (checked internally by good_bad_partition on every call).
        hosts = [
            (complete(6), CliqueFamilyCertificate((tuple(range(6)),), Fraction(1))),
            (generalized_kneser_geq(5, 2, 1), kneser_certificate(5, 2, 1, 0)),
            (
                generalized_kneser_geq(4, 2, 1),
                kneser_certificate(4, 2, 1, 0),
            ),
        ]
        for g, cert in hosts:
            part = good_bad_partition(g, cert)
            assert part.good | part.bad == frozenset(g.edges())


def _certified_inflations(base: Graph, cert: CliqueFamilyCertificate, most: int):
    """Every even-order inflation of base with multiplicities 1..most, with
    the lifted certificate."""
    for mult in product(range(1, most + 1), repeat=base.n):
        if sum(mult) % 2 == 0:
            spec = InflationSpec(base, mult)
            yield inflate(spec), lift_certificate(spec, cert)


def _raised(check, g: Graph, part) -> str | None:
    try:
        check(g, part)
    except RuntimeError as err:
        return str(err)
    return None


class TestGoodBadMatching:
    """Outcome 'd' is one maximum matching of the good edges, and the two
    hypotheses are mask tests; both give the answers of the searches and
    pair scans they replaced."""

    def test_outcomes_match_the_search(self):
        # C5 with multiplicities 1-3 under its lifted edge-cliques at 5/2,
        # and the Petersen complement with multiplicities 1-2 under the
        # lifted Kneser certificate: 121 + 512 even-order hosts.
        edge_cliques = CliqueFamilyCertificate(tuple(cycle(5).edges()), Fraction(5, 2))
        hosts = list(_certified_inflations(cycle(5), edge_cliques, 3))
        hosts += _certified_inflations(generalized_kneser_geq(5, 2, 1), kneser_certificate(5, 2, 1, 0), 2)
        assert len(hosts) == 633
        outcomes = {}
        perfect = {True: 0, False: 0}
        for g, cert in hosts:
            part = good_bad_partition(g, cert)
            got = classify_good_bad_outcome(g, part)
            assert got == classify_good_bad_reference(g, part)
            outcomes[got.witness] = outcomes.get(got.witness, 0) + 1
            # Hypothesis (1) makes every perfect matching of good edges connected.
            good = Graph(g.n, part.good)
            status, _, _ = grow_matching_reference(g, good.rows(), [], 0, g.full_mask, None)
            has_perfect = 2 * matching_number(good) == g.n
            assert has_perfect == (status == "found")
            perfect[has_perfect] += 1
        assert outcomes == {"b": 491, "c": 65, "d": 77}
        assert perfect == {True: 608, False: 25}

    def test_hypothesis_checks_match_the_pair_scans(self):
        # Seeded random good/bad splits of the edges of the 32 inflations of
        # C5 with multiplicities 1-2: each check raises exactly when the
        # pair scans do, with the same message.
        rng = SplitMix64(7)
        seen = {}
        for mult in product((1, 2), repeat=5):
            g = inflate(InflationSpec(cycle(5), mult))
            for _ in range(20):
                good = {e for e in g.edges() if rng.randrange(2)}
                part = certificates.GoodBadPartition(frozenset(good), frozenset(g.edges()) - good)
                got = _raised(certificates._check_good_bad, g, part)
                assert got == _raised(check_good_bad_reference, g, part)
                seen[got] = seen.get(got, 0) + 1
        assert len(seen) == 3 and sum(seen.values()) == 640

    def test_a_partition_that_breaks_hypothesis_one_is_not_classified(self):
        # Every edge of the doubled Petersen complement called good: no
        # 'a', 'b' or 'c', and two disjoint good edges that are not joined.
        spec = InflationSpec(generalized_kneser_geq(5, 2, 1), (2,) * 10)
        g = inflate(spec)
        part = good_bad_partition(g, lift_certificate(spec, kneser_certificate(5, 2, 1, 0)))
        assert classify_good_bad_outcome(g, part) == Outcome("found", "d")
        forged = certificates.GoodBadPartition(frozenset(g.edges()), frozenset())
        with pytest.raises(RuntimeError, match="hypothesis \\(1\\)"):
            classify_good_bad_outcome(g, forged)

    def test_outcome_c(self):
        # The Petersen complement with the last four vertices doubled: 14
        # vertices, no dominating edge, kappa = 8 > 7 and omega = 8 >= 7.
        spec = InflationSpec(generalized_kneser_geq(5, 2, 1), (1,) * 6 + (2,) * 4)
        g = inflate(spec)
        part = good_bad_partition(g, lift_certificate(spec, kneser_certificate(5, 2, 1, 0)))
        assert g.n == 14
        assert nx.node_connectivity(nx.Graph(g.edges())) == 8
        assert len(max_clique(g)) == 8
        assert classify_good_bad_outcome(g, part) == Outcome("found", "c")


class TestTextFormat:
    def test_certificate_roundtrip(self):
        from hadwiger2.certificates import format_certificate, parse_certificate

        cert = kneser_certificate(5, 2, 1, 0)
        text = format_certificate(cert)
        assert text.splitlines()[0] == "theta_f 5/2"
        assert parse_certificate(text) == cert

    def test_cover4_roundtrip(self):
        from hadwiger2.certificates import format_cover4, parse_cover4

        cover = four_cover_check(cycle(5)).witness
        text = format_cover4(cover)
        assert text.splitlines()[0] == "cover4"
        assert parse_cover4(text) == tuple(tuple(c) for c in cover)

    def test_parse_rejects_garbage(self):
        from hadwiger2.certificates import parse_certificate

        with pytest.raises(ValueError):
            parse_certificate("junk")

    def test_parse_rejects_a_header_without_a_bound(self):
        from hadwiger2.certificates import parse_certificate

        with pytest.raises(ValueError, match="'theta_f' line"):
            parse_certificate("theta_f \nX 0\n")

    def test_parse_rejects_a_bound_that_is_not_a_fraction(self):
        from hadwiger2.certificates import parse_certificate

        with pytest.raises(ValueError, match="certificate bound .*'theta_f 1'"):
            parse_certificate("theta_f 1\nX 0\n")

    def test_parse_rejects_a_zero_denominator(self):
        from hadwiger2.certificates import parse_certificate

        with pytest.raises(ValueError, match="non-zero denominator"):
            parse_certificate("theta_f 1/0\nX 0\n")
