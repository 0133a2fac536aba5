"""The Steiner system S(3,6,22) and the graphs it generates.

The system is built from the projective plane PG(2,4): 21 points, 21
lines of 5 points, plus an extra point oo = 21.  Its 77 blocks are two
orbits under SL(3,4) (generated by ``_GENERATORS``, acting on point
indices through ``graphs._set_orbit``): the line z = 0, whose orbit is
the 21 lines, each extended by oo; and the conic y^2 = xz plus its
nucleus (0,1,0), a hyperoval whose orbit is one of the three
PSL(3,4)-orbits of 56 hyperovals (Hirschfeld, Projective Geometries over
Finite Fields, 1998).  Nothing in the build is checked on the way: the
result is certified by ``SteinerSystem`` alone, by counting.  77 blocks
of 6 points, no two sharing more than two points, hold 77 * C(6,3) =
1540 distinct triples, which is every one of the C(22,3) = 1540 triples
of the 22 points, so every triple lies in exactly one block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import ConstructionError, _check, verify_srg
from .graphs import Graph, _set_orbit, bits

# F4 in the polynomial basis with x^2 = x + 1: elements 0, 1, w=2, w^2=3.
# Addition is XOR; the multiplication table is fixed below.
_F4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


def _pg24_points() -> list[tuple[int, int, int]]:
    """Projective points over F4, normalised to leading coordinate 1."""
    return (
        [(1, b, c) for b in range(4) for c in range(4)]
        + [(0, 1, c) for c in range(4)]
        + [(0, 0, 1)]
    )


# Three linear maps of determinant 1 that generate SL(3,4): a
# transvection, the coordinate cycle and diag(w, w^2, 1).  The
# transvection's conjugates under the cycle and the diagonal (which scales
# its coefficient by w or w^2) give every elementary transvection, and
# those generate SL(3,4).
_GENERATORS = (
    lambda x, y, z: (x ^ y, y, z),
    lambda x, y, z: (y, z, x),
    lambda x, y, z: (_F4_MUL[2][x], _F4_MUL[3][y], z),
)


@dataclass(frozen=True)
class SteinerSystem:
    """The block set of S(3,6,22) over the point set 0..21."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check(len(self.blocks) == 77, "S(3,6,22) must have 77 blocks")
        for b in self.blocks:
            _check(len(b) == 6 and all(0 <= x <= 21 for x in b), "bad block")
        masks = self.block_masks()
        _check(all(m.bit_count() == 6 for m in masks), "block with repeated points")
        # Two blocks sharing at most two points share no triple, so the
        # 77 * C(6,3) = 1540 block triples are distinct; as there are
        # C(22,3) = 1540 point triples, each lies in exactly one block.
        for i, m in enumerate(masks):
            for j in range(i):
                if (m & masks[j]).bit_count() > 2:
                    raise ConstructionError(
                        f"blocks {self.blocks[j]} and {self.blocks[i]} share three points"
                    )

    def block_masks(self) -> list[int]:
        out = []
        for b in self.blocks:
            m = 0
            for x in b:
                m |= 1 << x
            out.append(m)
        return out


def steiner_3_6_22() -> SteinerSystem:
    """Build S(3,6,22) as two SL(3,4)-orbits of blocks; see the module docstring."""
    points = _pg24_points()
    index = {tuple(_F4_MUL[s][c] for c in p): i for i, p in enumerate(points) for s in (1, 2, 3)}
    perms = [[index[f(*p)] for p in points] for f in _GENERATORS]
    line = sum(1 << i for i, (x, y, z) in enumerate(points) if z == 0)
    oval = sum(1 << i for i, (x, y, z) in enumerate(points) if _F4_MUL[y][y] == _F4_MUL[x][z])
    oval |= 1 << index[(0, 1, 0)]
    blocks = [tuple(bits(m)) + (21,) for m in _set_orbit(line, perms)]
    blocks += [tuple(bits(m)) for m in _set_orbit(oval, perms)]
    return SteinerSystem(tuple(sorted(blocks)))


def _disjointness_graph(masks: list[int]) -> Graph:
    """The given blocks in order, adjacent iff disjoint."""
    return Graph(len(masks), [(i, j) for i, m in enumerate(masks) for j in range(i) if not m & masks[j]])


def mesner(sys: SteinerSystem) -> Graph:
    """Blocks of S(3,6,22), adjacent iff disjoint: srg(77,16,0,4)."""
    g = _disjointness_graph(sys.block_masks())
    verify_srg(g, 77, 16, 0, 4, "mesner")
    return g


def gewirtz(sys: SteinerSystem, point: int = 21) -> Graph:
    """Blocks avoiding one point, adjacent iff disjoint: srg(56,10,0,2).

    The blocks keep their order in the system, so this is the subgraph of
    the Mesner graph induced on them, with the same labels.
    """
    if not 0 <= point <= 21:
        raise ValueError("point must be in 0..21")
    keep = [m for m in sys.block_masks() if not m >> point & 1]
    _check(len(keep) == 56, "gewirtz: expected 56 blocks avoiding the point")
    g = _disjointness_graph(keep)
    verify_srg(g, 56, 10, 0, 2, "gewirtz")
    return g


def higman_sims(sys: SteinerSystem) -> Graph:
    """Mesner graph plus 22 point-vertices and one apex: srg(100,22,0,6).

    Vertices 0..76 are blocks, adjacent iff disjoint, 77..98 are the
    points 0..21, and 99 is the apex adjacent to the 22 point-vertices.
    A point-vertex is adjacent to the blocks containing it.  Only the
    whole graph's parameters are checked.
    """
    masks = sys.block_masks()
    edges = _disjointness_graph(masks).edges()
    for i, m in enumerate(masks):
        for x in bits(m):
            edges.append((i, 77 + x))
    for x in range(22):
        edges.append((77 + x, 99))
    g = Graph(100, edges)
    verify_srg(g, 100, 22, 0, 6, "higman_sims")
    return g
