"""graph6 encoding: bit-exactness, round trips, cross-check with networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from hadwiger2.graph6 import read_graph6, write_graph6
from hadwiger2.graphs import Graph
from hadwiger2.constructions import complete, cycle, petersen
from hadwiger2.rng import SplitMix64

from conftest import random_graph, read_graph6_reference, write_graph6_reference
from test_graphs import graphs_strategy


def test_known_small_strings():
    # n is encoded as chr(n+63); K2's single bit leads the first data byte.
    assert write_graph6(Graph(0)) == "?"
    assert write_graph6(Graph(1)) == "@"
    assert write_graph6(Graph(2, [(0, 1)])) == "A_"
    assert write_graph6(complete(3)) == "Bw"


def test_header_and_bad_input():
    assert read_graph6(">>graph6<<A_") == Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        read_graph6("")
    with pytest.raises(ValueError):
        read_graph6("A")  # truncated body
    with pytest.raises(ValueError):
        read_graph6("A" + chr(200))


@given(graphs_strategy(max_n=12))
@settings(max_examples=80, deadline=None)
def test_roundtrip(g):
    assert read_graph6(write_graph6(g)) == g


@given(graphs_strategy(max_n=10))
@settings(max_examples=60, deadline=None)
def test_matches_networkx(g):
    ours = write_graph6(g)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
    assert ours == theirs
    back = nx.from_graph6_bytes(ours.encode())
    assert set(back.edges()) == {(u, v) for u, v in g.edges()} or set(
        (min(e), max(e)) for e in back.edges()
    ) == set(g.edges())


def test_roundtrip_up_to_70_vertices():
    rng = SplitMix64(6)
    for n in (0, 1, 2, 7, 13, 62, 63, 64, 70):
        for p in (0, 10, 50, 90, 100):
            g = random_graph(n, p, rng)
            assert read_graph6(write_graph6(g)) == g


def test_large_n_header():
    g = Graph(100, [(0, 99)])
    s = write_graph6(g)
    assert s[0] == chr(126)
    assert read_graph6(s) == g


def test_petersen_roundtrip():
    assert read_graph6(write_graph6(petersen())) == petersen()
    assert read_graph6(write_graph6(cycle(5))) == cycle(5)


@pytest.mark.parametrize("text", ["~", "~?", "~??", "~~", "~~?????"])
def test_truncated_extended_header_raises(text):
    # "~" needs 3 more header characters and "~~" 6 more; these once read
    # as the empty graph.
    with pytest.raises(ValueError, match="truncated graph6 header"):
        read_graph6(text)


def _assert_matches_reference(g):
    text = write_graph6(g)
    assert text == write_graph6_reference(g)
    assert read_graph6(text) == read_graph6_reference(text) == g


def test_matches_reference_around_the_header_boundary():
    # n = 62 is the last one-character header, n = 63 the first "~" one.
    rng = SplitMix64(20261019)
    for n in (0, 1, 2, 5, 62, 63, 64, 101, 300):
        for p in (0, 3, 50, 97, 100):
            _assert_matches_reference(random_graph(n, p, rng))


def test_matches_reference_on_random_graphs():
    rng = SplitMix64(42)
    for _ in range(500):
        _assert_matches_reference(random_graph(rng.randrange(41), rng.randrange(101), rng))


@pytest.mark.parametrize("text", ["", "  \n", ">>graph6<<", "A" + chr(200), "B w", "A", "Bww", "~??~", "~~????@?"])
def test_errors_match_reference(text):
    with pytest.raises(ValueError) as want:
        read_graph6_reference(text)
    with pytest.raises(ValueError) as got:
        read_graph6(text)
    assert str(got.value) == str(want.value)
