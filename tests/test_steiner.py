"""S(3,6,22) and the Mesner, Gewirtz and Higman-Sims graphs."""

from itertools import combinations

import pytest

from hadwiger2 import steiner
from hadwiger2.constructions import ConstructionError, SrgParams, srg_parameters
from hadwiger2.graphs import complement, diameter, induced_subgraph, is_triangle_free
from hadwiger2.matching import chromatic_number_alpha2
from hadwiger2.steiner import (
    SteinerSystem,
    _hyperovals,
    _pg24_lines,
    _pg24_points,
    gewirtz,
    higman_sims,
    mesner,
)


def test_block_counts(steiner_system):
    assert len(steiner_system.blocks) == 77
    for b in steiner_system.blocks:
        assert len(b) == 6


def test_every_point_in_21_blocks(steiner_system):
    for p in range(22):
        assert sum(1 for b in steiner_system.blocks if p in b) == 21


def test_every_triple_in_exactly_one_block(steiner_system):
    masks = steiner_system.block_masks()
    for triple in combinations(range(22), 3):
        tm = sum(1 << x for x in triple)
        assert sum(1 for m in masks if m & tm == tm) == 1


def test_invalid_system_rejected(steiner_system):
    blocks = list(steiner_system.blocks)
    blocks[0] = tuple(sorted(set(blocks[1]) ^ {0, 1} | {0}))[:6]
    with pytest.raises(Exception):
        SteinerSystem(tuple(blocks))


def test_duplicated_block_rejected(steiner_system):
    blocks = list(steiner_system.blocks)
    blocks[0] = blocks[1]
    assert len(blocks) == 77
    with pytest.raises(ConstructionError, match="share three points"):
        SteinerSystem(tuple(blocks))


def test_blocks_sharing_a_triple_rejected(steiner_system):
    blocks = list(steiner_system.blocks)
    keep = set(blocks[1][:3])
    others = [x for x in range(22) if x not in blocks[1]][:3]
    blocks[0] = tuple(sorted(keep | set(others)))
    assert len(blocks) == 77 and len(set(blocks[0]) & set(blocks[1])) == 3
    with pytest.raises(ConstructionError, match="share three points"):
        SteinerSystem(tuple(blocks))


def test_hyperovals_match_brute_force():
    # Every 6-subset of PG(2,4) meeting each line in 0 or 2 points.
    lines = _pg24_lines(_pg24_points())
    brute = set()
    for six in combinations(range(21), 6):
        m = sum(1 << p for p in six)
        if all((m & lm).bit_count() in (0, 2) for lm in lines):
            brute.add(m)
    got = _hyperovals(lines)
    assert len(brute) == 168
    assert len(got) == 168 and set(got) == brute


def test_non_collineation_generator_rejected(monkeypatch):
    # Swapping the points (1,0,0) and (0,0,1) and fixing the rest maps the
    # line z = 0 onto a set that is no line.
    swap = {(1, 0, 0): (0, 0, 1), (0, 0, 1): (1, 0, 0)}
    monkeypatch.setattr(
        steiner, "_GENERATORS", steiner._GENERATORS + (lambda *p: swap.get(p, p),)
    )
    with pytest.raises(ConstructionError, match="PG\\(2,4\\) generator is not a collineation"):
        _hyperovals(_pg24_lines(_pg24_points()))


def test_mesner_parameters(steiner_system):
    g = mesner(steiner_system)
    assert srg_parameters(g) == SrgParams(77, 16, 0, 4)
    assert is_triangle_free(g)
    assert diameter(g) == 2


def test_gewirtz_parameters(steiner_system):
    g = gewirtz(steiner_system)
    assert srg_parameters(g) == SrgParams(56, 10, 0, 2)


def test_gewirtz_is_induced_in_mesner_for_every_point(steiner_system):
    m = mesner(steiner_system)
    for point in range(22):
        keep = [i for i, b in enumerate(steiner_system.blocks) if point not in b]
        sub = induced_subgraph(m, keep)
        g = gewirtz(steiner_system, point)
        assert sub == g
        assert g.n == 56


def test_higman_sims_parameters(steiner_system):
    g = higman_sims(steiner_system)
    assert srg_parameters(g) == SrgParams(100, 22, 0, 6)


def test_higman_sims_complement_chromatic_and_clique(steiner_system):
    from hadwiger2.cliques import clique_number

    gc = complement(higman_sims(steiner_system))
    assert chromatic_number_alpha2(gc) == 50
    assert clique_number(gc) == 22
