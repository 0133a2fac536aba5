"""Acceptance checklist: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  C13b is expected to fail: it encodes a screening claim about the
5-cycle that is provably unattainable (see the test docstring).
"""

import math
import time
from fractions import Fraction
from math import comb

from hadwiger2.certificates import (
    CliqueFamilyCertificate,
    aktf_bound,
    clebsch_certificate,
    kneser_certificate,
    lift_certificate,
    lift_cover,
    mesner_certificate,
    theta_f_lower_via_omega,
    verify_certificate,
)
from hadwiger2.cliques import clique_number, is_clique
from hadwiger2.conjectures import (
    connected_dominating_matching,
    connected_perfect_matching_search,
    dominating_edge,
    eberhard_model,
    girth5_cdm_construct,
    is_cdm,
    seagull_conditions,
    seagull_pack_exact,
    verify_k_model,
)
from hadwiger2.constructions import (
    clebsch,
    cycle,
    eberhard,
    generalized_kneser_geq,
    generalized_kneser_leq,
    petersen,
    srg_parameters,
    SrgParams,
    wheel5,
)
from hadwiger2.generation import connected_alpha2_graphs
from hadwiger2.graphs import (
    Graph,
    InflationSpec,
    bits,
    complement,
    independence_number_is_2,
    inflate,
    odd_girth,
)
from hadwiger2.iso import is_isomorphic
from hadwiger2.matching import chromatic_number_alpha2
from hadwiger2.rng import SplitMix64
from hadwiger2.screening import PROPERTIES, table1_screen
from hadwiger2.steiner import gewirtz, higman_sims, mesner

from conftest import (
    brute_chromatic_number,
    brute_max_t_intersecting,
    maximal_cliques_reference,
    milp_clique_number,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


def test_c1_chromatic_shortcut_exhaustive(tf_levels_8):
    """chi via the matching shortcut equals brute-force chi, n <= 8."""
    t0 = time.time()
    mismatches = 0
    checked = 0
    graphs = [g for n in range(1, 9) for g in connected_alpha2_graphs(n, tf_levels_8)]
    for g in graphs:
        checked += 1
        if chromatic_number_alpha2(g) != brute_chromatic_number(g):
            mismatches += 1
    elapsed = time.time() - t0
    report(
        "C1",
        mismatches == 0 and elapsed < 600,
        f"{checked} graphs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_c2_cdm_reproduction_to_9(tf_levels_9, capsys):
    """Every connected alpha<=2 graph with n <= 9 has a verified CDM."""
    from hadwiger2.cli import main

    code = main(["enumerate", "--max-n", "9", "--check", "cdm"])
    cli_out = capsys.readouterr().out
    assert code == 0 and "violations_total=0" in cli_out
    violations = 0
    checked = 0
    graphs = [g for n in range(2, 10) for g in connected_alpha2_graphs(n, tf_levels_9)]
    for g in graphs:
        checked += 1
        if independence_number_is_2(g):
            got = connected_dominating_matching(g)
            edges = got.witness.edges if got.status == "found" else None
        else:
            edges = None
            e = dominating_edge(g)
            if e is not None:
                edges = (e,)
        if edges is None or not is_cdm(g, edges):
            violations += 1
            continue
        # independent re-verification straight from the definitions
        covered = set(v for e in edges for v in e)
        ok = all(g.has_edge(u, v) for u, v in edges)
        for i, (u, v) in enumerate(edges):
            for x, y in edges[i + 1:]:
                ok &= any(g.has_edge(a, b) for a in (u, v) for b in (x, y))
        for w in range(g.n):
            if w in covered:
                continue
            for u, v in edges:
                ok &= g.has_edge(w, u) or g.has_edge(w, v)
        if not ok:
            violations += 1
    report(
        "C2",
        violations == 0,
        f"cli run clean; {checked} graphs re-verified, {violations} violations",
    )


def test_c3_srg_self_checks(steiner_system):
    """Strong regularity parameters and the Steiner property."""
    from itertools import combinations

    checks = [
        (clebsch(), SrgParams(16, 5, 0, 2)),
        (mesner(steiner_system), SrgParams(77, 16, 0, 4)),
        (gewirtz(steiner_system), SrgParams(56, 10, 0, 2)),
        (higman_sims(steiner_system), SrgParams(100, 22, 0, 6)),
    ]
    ok = all(srg_parameters(g) == want for g, want in checks)
    masks = steiner_system.block_masks()
    triples = 0
    for triple in combinations(range(22), 3):
        tm = (1 << triple[0]) | (1 << triple[1]) | (1 << triple[2])
        if sum(1 for m in masks if m & tm == tm) != 1:
            ok = False
        triples += 1
    report("C3", ok and triples == 1540, f"4 srg checks, {triples} triples")


def test_c4_higman_sims_chromatic_and_clique(steiner_system):
    t0 = time.time()
    gc = complement(higman_sims(steiner_system))
    chi = chromatic_number_alpha2(gc)
    omega = clique_number(gc)
    elapsed = time.time() - t0
    report(
        "C4",
        chi == 50 and omega == 22 and elapsed < 600,
        f"chi={chi}, omega={omega}, {elapsed:.1f}s",
    )


def test_c5_higman_sims_half_order_model(steiner_system):
    t0 = time.time()
    gc = complement(higman_sims(steiner_system))
    got = connected_perfect_matching_search(gc, budget=2_000_000)
    model = got.witness
    elapsed = time.time() - t0
    ok = (
        got.status == "found"
        and model.order == 50
        and all(len(b) == 2 for b in model.branch_sets)
        and verify_k_model(gc, model)
        and elapsed < 600
    )
    report("C5", ok, f"order={getattr(model, 'order', None)}, {elapsed:.1f}s")


def test_c6_eberhard_models():
    t0 = time.time()
    ok = True
    details = []
    for p, want_chi in ((11, 61), (23, 265)):
        model = eberhard_model(p)
        gc = complement(eberhard(p))
        chi = chromatic_number_alpha2(gc)
        want_order = (p * p + p - 2) // 2
        ok &= model.order == want_order
        ok &= verify_k_model(gc, model)
        ok &= chi == want_chi == (p * p + 1) // 2
        details.append(f"p={p}: order={model.order}, chi={chi}")
    elapsed = time.time() - t0
    report("C6", ok and elapsed < 600, "; ".join(details) + f", {elapsed:.1f}s")


def test_c7_certificates_pinned(steiner_system):
    ok = True
    details = []
    g = complement(clebsch())
    cert = clebsch_certificate(g)
    ok &= verify_certificate(g, cert) and cert.bound == Fraction(16, 5)
    ok &= theta_f_lower_via_omega(g) == Fraction(16, 5)
    g = complement(mesner(steiner_system))
    cert = mesner_certificate(g, steiner_system)
    ok &= verify_certificate(g, cert) and cert.bound == Fraction(22, 6)
    ok &= theta_f_lower_via_omega(g) == Fraction(22, 6)
    cases = 0
    for k in range(1, 7):
        for n in range(2 * k, 3 * k):
            if comb(n, k) > 300:
                continue
            host = generalized_kneser_geq(n, k, 1)
            cert = kneser_certificate(n, k, 1, 0)
            good = (
                verify_certificate(host, cert)
                and cert.bound == Fraction(n, k)
                and theta_f_lower_via_omega(host) == Fraction(n, k)
            )
            ok &= good
            cases += 1
    report("C7", ok and cases == 10, f"clebsch+mesner+{cases} kneser hosts")


def test_c8_odd_girth_formula():
    mismatches = 0
    instances = 0
    for k in range(1, 13):
        n = k
        while comb(n, k) <= 500:
            for t in range(0, k):
                g = generalized_kneser_leq(n, k, t)
                og = odd_girth(g)
                d = k - t
                if n >= 2 * k - t and n > 2 * d:
                    want = 2 * math.ceil(d / (n - 2 * d)) + 1
                    if og != want:
                        mismatches += 1
                elif og != math.inf:
                    mismatches += 1
                instances += 1
            n += 1
    report("C8", mismatches == 0, f"{instances} instances, {mismatches} mismatches")


def test_c9_seagull_equivalence(tf_levels_9):
    mismatches = 0
    checked = 0
    graphs = [g for n in range(2, 10) for g in connected_alpha2_graphs(n, tf_levels_9)]
    for g in graphs:
        if not independence_number_is_2(g) or (g.n == 6 and is_isomorphic(g, wheel5())):
            continue
        for k in range(1, 4):
            rep = seagull_conditions(g, k)
            pack = seagull_pack_exact(g, k)
            if pack is not None:
                sets = set()
                for a, c, b in pack:
                    trip = {a, b, c}
                    assert (
                        g.has_edge(a, c)
                        and g.has_edge(c, b)
                        and not g.has_edge(a, b)
                    )
                    assert not sets & trip
                    sets |= trip
            if rep.all_ok != (pack is not None):
                mismatches += 1
            checked += 1
    report("C9", mismatches == 0, f"{checked} (graph,k) pairs")


def test_c10_intersecting_family_bound():
    ok = True
    combos = 0
    for n in range(1, 9):
        for k in range(1, n + 1):
            for t in range(1, k + 1):
                bound = aktf_bound(n, k, t)
                host = generalized_kneser_geq(n, k, t)
                ok &= bound == milp_clique_number(host)
                if n <= 7:
                    ok &= bound == brute_max_t_intersecting(n, k, t)
                combos += 1
    report("C10", ok, f"{combos} parameter triples")


def test_c11_girth5_constructive_cdm():
    rng = SplitMix64(777)
    bases = [complement(cycle(5)), complement(petersen())]
    failures = 0
    for i in range(100):
        base = bases[i % 2]
        mult = tuple(1 + rng.randrange(3) for _ in range(base.n))
        spec = InflationSpec(base, mult)
        m = girth5_cdm_construct(spec)
        g = inflate(spec)
        if not is_cdm(g, m.edges):
            failures += 1
    report("C11", failures == 0, "100 random proper inflations")


def test_c12_lifting_identities():
    rng = SplitMix64(4242)
    done = 0
    ok = True
    while done < 200:
        n = 2 + rng.randrange(7)
        base = Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.randrange(100) < 30 + rng.randrange(60)
            ],
        )
        mult = tuple(1 + rng.randrange(3) for _ in range(n))
        spec = InflationSpec(base, mult)
        cliques = [tuple(bits(m)) for m in maximal_cliques_reference(base)]
        rng.shuffle(cliques)
        cover, seen = [], set()
        for c in cliques:
            if not set(c) <= seen:
                cover.append(c)
                seen.update(c)
        if seen != set(range(n)):
            continue
        lifted = lift_cover(spec, cover)
        g = inflate(spec)
        ok &= len(lifted) == len(cover)
        ok &= sum(map(len, lifted)) == spec.expanded_n - n + sum(map(len, cover))
        union = set()
        for c in lifted:
            ok &= is_clique(g, c)
            union.update(c)
        ok &= union == set(range(spec.expanded_n))
        counts = [0] * n
        for c in cover:
            for v in c:
                counts[v] += 1
        cert = CliqueFamilyCertificate(
            tuple(cover), Fraction(len(cover), min(counts))
        )
        lifted_cert = lift_certificate(spec, cert)
        ok &= lifted_cert.bound == cert.bound
        ok &= verify_certificate(g, lifted_cert)
        done += 1
    report("C12", ok, "200 randomized instances")


def test_c13a_no_desk_scale_survivors(tf_levels_9):
    survivors = 0
    checked = 0
    graphs = [g for n in range(2, 10) for g in connected_alpha2_graphs(n, tf_levels_9)]
    for g in graphs:
        if not independence_number_is_2(g):
            continue
        rep = table1_screen(g)
        checked += 1
        if rep.survives("minimal-hc"):
            survivors += 1
    report("C13a", survivors == 0, f"{checked} graphs screened, {survivors} survivors")


def test_c13b_c5_fails_exactly_p8():
    """Checklist claim: the 5-cycle fails exactly P8 among P1-P8.

    This is provably unattainable: C5 has the connected dominating
    matching {01, 23} (vertex 4 is adjacent to both edges), so P6 fails,
    and C5 minus a non-adjacent pair is K2+K1, which is not 2-critical,
    so the literal pair-deletion criticality P4 fails as well.  The
    assertion is kept as stated to document the discrepancy; the test is
    expected to fail with actual failures {P4, P6, P8}.
    """
    rep = table1_screen(cycle(5))
    failed_low = set(rep.failed()) & set(PROPERTIES[:8])
    report("C13b", failed_low == {"P8"}, f"failures among P1-P8: {sorted(failed_low)}")
