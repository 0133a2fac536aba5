"""The Steiner system S(3,6,22) and the graphs it generates.

The system is built from the projective plane PG(2,4): 21 points, 21
lines of 5 points, plus an extra point oo = 21.  Blocks are the 21
extended lines (line plus oo) together with one of the three families of
56 pairwise-evenly-intersecting hyperovals; the 168 hyperovals are
generated as one PGL(3,4)-orbit (see ``_hyperovals``).  The Steiner
property (every triple of points in exactly one block) is verified by
counting: 77 blocks of 6 points, no two sharing more than two points,
hold 77 * C(6,3) = 1540 distinct triples, which is every one of the
C(22,3) = 1540 triples of the 22 points.
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


def _pg24_lines(points) -> list[int]:
    """Lines as point bitmasks: [a:b:c] selects points with ax+by+cz = 0."""
    lines = []
    for coeff in points:  # dual coordinates run over the same 21 triples
        a, b, c = coeff
        mask = 0
        for i, (x, y, z) in enumerate(points):
            if _F4_MUL[a][x] ^ _F4_MUL[b][y] ^ _F4_MUL[c][z] == 0:
                mask |= 1 << i
        assert mask.bit_count() == 5
        lines.append(mask)
    return lines


# Three linear maps that generate PGL(3,4): a transvection, the
# coordinate cycle and diag(w, 1, 1).  The transvection's conjugates under
# the other two give every elementary transvection, which generate
# SL(3,4); diag(w, 1, 1) has determinant w, a non-cube, so it adds the
# rest of GL(3,4).
_GENERATORS = (
    lambda x, y, z: (x ^ y, y, z),
    lambda x, y, z: (y, z, x),
    lambda x, y, z: (_F4_MUL[2][x], y, z),
)


def _hyperovals(lines: list[int]) -> list[int]:
    """All 6-point sets meeting every line in 0 or 2 points (as bitmasks).

    The 168 hyperovals of PG(2,4) form one PGL(3,4)-orbit, of the conic
    y^2 = xz plus its nucleus (0,1,0) (Hirschfeld, Projective Geometries
    over Finite Fields, 1998), so they are that orbit under the three
    generators, each acting on point indices (``graphs._set_orbit``).
    Verified here: the start meets every line in 0 or 2 points, and the
    orbit of one line is the set of lines, so each generator maps lines
    to lines and every set in the orbit is a hyperoval.  The count of
    168 is checked by ``_even_family``.
    """
    points = _pg24_points()
    index = {tuple(_F4_MUL[s][c] for c in p): i for i, p in enumerate(points) for s in (1, 2, 3)}
    perms = [[index[f(*p)] for p in points] for f in _GENERATORS]
    _check(_set_orbit(lines[0], perms) == set(lines), "PG(2,4) generator is not a collineation")
    start = sum(1 << i for i, (x, y, z) in enumerate(points) if _F4_MUL[y][y] == _F4_MUL[x][z])
    start |= 1 << index[(0, 1, 0)]
    _check(
        all((start & lm).bit_count() in (0, 2) for lm in lines),
        "conic plus nucleus is not a hyperoval",
    )
    return sorted(_set_orbit(start, perms))


def _even_family(hyperovals: list[int]) -> list[int]:
    """One maximal family of hyperovals pairwise meeting in 0 or 2 points.

    The hyperovals split into three such families of 56 (the components of
    even intersection); the one of the least hyperoval is those that meet
    it in an even number of points.  Once they are checked to number 56
    and to be pairwise even, the family is maximal: any other hyperoval
    meets the least one oddly.
    """
    hs = sorted(hyperovals)
    if len(hs) != 168:
        raise ConstructionError(f"expected 168 hyperovals in PG(2,4), got {len(hs)}")
    family = [h for h in hs if (h & hs[0]).bit_count() % 2 == 0]
    _check(len(family) == 56, "hyperoval family must have 56 members")
    _check(
        all((h & o).bit_count() % 2 == 0 for i, h in enumerate(family) for o in family[:i]),
        "hyperoval family must be pairwise even-intersecting",
    )
    return family


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
    """Build S(3,6,22) from PG(2,4) extended lines plus 56 hyperovals."""
    points = _pg24_points()
    lines = _pg24_lines(points)
    ovals = _even_family(_hyperovals(lines))
    oo = 21
    blocks = [tuple(sorted(bits(lm))) + (oo,) for lm in lines]
    blocks += [tuple(sorted(bits(om))) for om in ovals]
    blocks.sort()
    return SteinerSystem(tuple(blocks))


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
