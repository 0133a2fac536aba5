"""Fractional clique-cover certificates, lifting, and clique-ratio checks.

A certificate is a multiset of cliques X_1..X_r together with a rational
bound k; it is valid when every vertex lies in at least r/k of the
cliques (counted with multiplicity), which witnesses that the fractional
clique cover number is at most k.  All threshold comparisons are exact
rational arithmetic; no floating point is used anywhere here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .cliques import colour_classes, is_clique, max_clique
from .conjectures import Outcome, dominating_edge, read_vertex_sets, write_vertex_sets
from .constructions import _subset_masks, generalized_kneser_geq, srg_parameters
from .graphs import (
    Graph,
    InflationSpec,
    alpha_at_most_2,
    bits,
    complement,
    vertex_connectivity,
)
from .matching import matching_number


@dataclass(frozen=True)
class CliqueFamilyCertificate:
    """Cliques X_1..X_r (repetition allowed) with a rational bound k >= 1."""

    cliques: tuple[tuple[int, ...], ...]
    bound: Fraction

    def __post_init__(self):
        object.__setattr__(
            self,
            "cliques",
            tuple(tuple(sorted(set(c))) for c in self.cliques),
        )
        object.__setattr__(self, "bound", Fraction(self.bound))
        if self.bound < 1:
            raise ValueError("certificate bound must be at least 1")

    @property
    def size(self) -> int:
        return len(self.cliques)


def vertex_multiplicities(g: Graph, cert: CliqueFamilyCertificate) -> list[int]:
    counts = [0] * g.n
    for clique in cert.cliques:
        for v in clique:
            if not 0 <= v < g.n:
                raise ValueError(f"certificate references vertex {v} outside host")
            counts[v] += 1
    return counts


def verify_certificate(g: Graph, cert: CliqueFamilyCertificate) -> bool:
    """True iff every member is a clique and min multiplicity >= r/k (exact)."""
    counts = vertex_multiplicities(g, cert)
    if g.n and not cert.cliques:
        return False
    if any(not is_clique(g, c) for c in cert.cliques):
        return False
    threshold = Fraction(cert.size) / cert.bound
    return all(count >= threshold for count in counts)


def theta_f_upper(g: Graph, cert: CliqueFamilyCertificate) -> Fraction:
    if not verify_certificate(g, cert):
        raise ValueError("certificate does not verify on this host")
    return cert.bound


def theta_f_lower_via_omega(g: Graph) -> Fraction:
    """|V|/omega, valid for every graph since theta_f * omega >= |V|."""
    if g.n == 0:
        raise ValueError("empty graph has no clique ratio")
    return Fraction(g.n, len(max_clique(g)))


def clebsch_certificate(g: Graph) -> CliqueFamilyCertificate:
    """The 16 non-neighbourhood 5-cliques of the Clebsch complement, bound 16/5."""
    ok = (
        g.n == 16
        and g.is_regular()
        and g.degree(0) == 10
        and alpha_at_most_2(g)
        and srg_parameters(complement(g)) is not None
    )
    if not ok:
        raise ValueError("host is not the complement of the Clebsch graph")
    cliques = []
    for v in range(16):
        mask = g.full_mask & ~g.row(v) & ~(1 << v)
        cliques.append(tuple(bits(mask)))
    cert = CliqueFamilyCertificate(tuple(cliques), Fraction(16, 5))
    if not verify_certificate(g, cert):
        raise ValueError("host is not the complement of the Clebsch graph")
    return cert


def mesner_certificate(g: Graph, sys) -> CliqueFamilyCertificate:
    """22 point-cliques of the Mesner complement (blocks through a point), 22/6.

    The certificate is verified on the host g, whose vertices are the
    blocks of sys in order."""
    cliques = []
    for point in range(22):
        members = tuple(
            i for i, b in enumerate(sys.blocks) if point in b
        )
        cliques.append(members)
    cert = CliqueFamilyCertificate(tuple(cliques), Fraction(22, 6))
    if not verify_certificate(g, cert):
        raise ValueError("mesner certificate failed verification")
    return cert


def intersecting_family_size(n: int, k: int, t: int, r: int) -> int:
    """Size of the canonical t-intersecting family with parameter r."""
    s = t + 2 * r
    return sum(
        comb(s, i) * comb(n - s, k - i)
        for i in range(t + r, s + 1)
        if 0 <= k - i
    )


def aktf_bound(n: int, k: int, t: int) -> int:
    """Maximum size of a t-intersecting family of k-subsets of [n]."""
    if not 1 <= t <= k <= n:
        raise ValueError("need 1 <= t <= k <= n")
    return max(
        intersecting_family_size(n, k, t, r)
        for r in range(0, (n - t) // 2 + 1)
    )


def kneser_certificate(n: int, k: int, t: int, r: int) -> CliqueFamilyCertificate:
    """Certificate for K(n,k,>=t): one clique per (t+2r)-subset S.

    The clique of S consists of the k-sets meeting S in at least t+r
    elements.  The emitted bound is C(n,k) divided by the size of the
    canonical family with this r; when r maximises the family size this
    equals C(n,k)/aktf_bound(n,k,t).  The certificate is verified on
    K(n,k,>=t) before return.
    """
    if not (1 <= k <= n and t >= 1):
        raise ValueError("need 1 <= k <= n and t >= 1")
    if not (r >= 0 and t + 2 * r <= n):
        raise ValueError("need t >= 1, r >= 0, t+2r <= n, 1 <= k <= n")
    fam = intersecting_family_size(n, k, t, r)
    if fam < 1:
        raise ValueError("empty canonical family; no certificate for these parameters")
    s = t + 2 * r
    label_masks = _subset_masks(n, k)
    cliques = []
    for subset in combinations(range(n), s):
        sm = sum(1 << x for x in subset)
        members = tuple(
            i
            for i, am in enumerate(label_masks)
            if (am & sm).bit_count() >= t + r
        )
        cliques.append(members)
    cert = CliqueFamilyCertificate(tuple(cliques), Fraction(comb(n, k), fam))
    if not verify_certificate(generalized_kneser_geq(n, k, t), cert):
        raise RuntimeError("kneser certificate fails verification")
    return cert


def lift_certificate(
    spec: InflationSpec, cert: CliqueFamilyCertificate
) -> CliqueFamilyCertificate:
    """Certificate for the expanded graph: each clique becomes the union
    of the vertex-cliques it meets; multiplicities and bound are preserved."""
    if not spec.is_proper:
        raise ValueError("certificate lifting needs a proper inflation")
    lifted = []
    for clique in cert.cliques:
        members: list[int] = []
        for x in clique:
            members.extend(bits(spec.block(x)))
        lifted.append(tuple(sorted(members)))
    return CliqueFamilyCertificate(tuple(lifted), cert.bound)


def lift_cover(spec: InflationSpec, cover) -> list[tuple[int, ...]]:
    """Lift a covering collection of cliques to a proper inflation.

    Each base vertex donates its whole expanded clique to the first cover
    member containing it and a single representative to every other
    member, which keeps the cover property, the count, and the size
    identity  sum |Q'| = |V(G')| - |V(G)| + sum |Q|  exact.
    """
    if not spec.is_proper:
        raise ValueError("cover lifting needs a proper inflation")
    base = spec.base
    cover = [tuple(sorted(set(c))) for c in cover]
    covered = 0
    for c in cover:
        for x in c:
            if not 0 <= x < base.n:
                raise ValueError("cover references vertex outside the base graph")
            covered |= 1 << x
    if covered != base.full_mask:
        raise ValueError("input cliques do not cover the base graph")
    owner = [-1] * base.n
    for idx, c in enumerate(cover):
        for x in c:
            if owner[x] == -1:
                owner[x] = idx
    lifted = []
    for idx, c in enumerate(cover):
        members: list[int] = []
        for x in c:
            if owner[x] == idx:
                members.extend(bits(spec.block(x)))
            else:
                members.append(spec.offsets[x])
        lifted.append(tuple(sorted(members)))
    got = sum(len(q) for q in lifted)
    want = spec.expanded_n - base.n + sum(len(q) for q in cover)
    if got != want:
        raise RuntimeError("cover lifting violated the size identity")
    return lifted


def four_cover_check(g: Graph) -> Outcome:
    """Four cliques covering V with total size >= |V|+2, decided exactly.

    Cliques of G are the independent sets of the complement, so four
    cliques cover V exactly when the complement is 4-colourable.  The two
    extra memberships put one vertex in three cliques or two in two each:
    the complement must stay 4-colourable with closed twins of x and y
    added (two of x when x == y); twins of equal or adjacent vertices are
    adjacent.  "refuted" when 4 * omega < |V|+2, when the complement is not
    4-colourable, or when no pair x <= y works.

    The witness comes from the complement's own colouring ``base`` when it
    can: a colour is free at v when no vertex of N[v] has it, and the
    first pair x <= y (in index order) whose twins fit free colours of
    ``base`` - different ones when x == y or x, y are adjacent in the
    complement - is added to the lowest fitting classes.  Only when no
    pair fits does one exact search per pair colour the twin rows, and
    the first colouring found, each twin mapped back to its original, is
    the witness.  The witness is checked before return.  It certifies
    that every proper inflation has a clique of at least a quarter of its
    order plus a half, hence the half-order Hadwiger bound.
    """
    if not alpha_at_most_2(g):
        raise ValueError("four-clique covers are only used when alpha <= 2")
    n = g.n
    if 4 * len(max_clique(g)) < n + 2:
        return Outcome("refuted")
    rows = list(complement(g).rows())
    base = colour_classes(rows, 4)
    cover = None if base is None else _four_cover(g, rows, base)
    if cover is None:
        return Outcome("refuted")
    if not (
        len(cover) == 4
        and set().union(*cover) == set(range(n))
        and all(is_clique(g, c) for c in cover)
        and sum(map(len, cover)) >= n + 2
    ):
        raise RuntimeError("four-clique cover search returned a cover that fails verification")
    return Outcome("found", cover)


def _four_cover(g: Graph, rows: list[int], base) -> tuple[tuple[int, ...], ...] | None:
    """The cover of ``four_cover_check`` from the complement's ``rows`` and
    their 4-colouring ``base``, or None when no pair x <= y works."""
    n = g.n
    free = [sum(1 << c for c, m in enumerate(base) if not m & (r | 1 << v)) for v, r in enumerate(rows)]
    for x in range(n):
        if not free[x]:
            continue
        for y in range(x, n):
            fit = _free_pair(free[x], free[y], x != y and not rows[x] >> y & 1)
            if fit is not None:
                classes = list(base)
                classes[fit[0]] |= 1 << x
                classes[fit[1]] |= 1 << y
                return tuple(tuple(bits(m)) for m in classes)
    for x in range(n):
        for y in range(x, n):
            # Vertices n and n + 1 are closed twins of x and y.
            cx, cy = rows[x] | 1 << x, rows[y] | 1 << y
            twins = [r | (cx >> v & 1) << n | (cy >> v & 1) << n + 1 for v, r in enumerate(rows)]
            twins += [cx | (cx >> y & 1) << n + 1, cy | (cy >> x & 1) << n]
            classes = colour_classes(twins, 4)
            if classes is not None:
                return tuple(
                    tuple(bits(m & g.full_mask | (m >> n & 1) << x | (m >> n + 1 & 1) << y))
                    for m in classes
                )
    return None


def _free_pair(fx: int, fy: int, apart: bool) -> tuple[int, int] | None:
    """The lowest colours (cx, cy) in the free-colour masks fx and fy,
    different unless ``apart`` (the twins are non-adjacent), or None."""
    for cx in bits(fx):
        rest = fy if apart else fy & ~(1 << cx)
        if rest:
            return cx, (rest & -rest).bit_length() - 1
    return None


def format_certificate(cert: CliqueFamilyCertificate) -> str:
    """Text form: a 'theta_f num/den' line, then one 'X v1 v2 ...' per clique."""
    b = Fraction(cert.bound)
    return write_vertex_sets(f"theta_f {b.numerator}/{b.denominator}", "X", cert.cliques)


def parse_certificate(text: str) -> CliqueFamilyCertificate:
    first, cliques = read_vertex_sets(text, "certificate", "theta_f ", "X")
    try:
        num, den = (int(x) for x in first.split()[1].split("/"))
    except ValueError:
        raise ValueError(f"certificate bound must be 'num/den': {first!r}") from None
    if not den:
        raise ValueError("certificate bound needs a non-zero denominator")
    return CliqueFamilyCertificate(cliques, Fraction(num, den))


def format_cover4(cover) -> str:
    """Same clique-line format as certificates, under a 'cover4' header."""
    return write_vertex_sets("cover4", "X", cover)


def parse_cover4(text: str) -> tuple[tuple[int, ...], ...]:
    return read_vertex_sets(text, "cover", "cover4", "X")[1]


@dataclass(frozen=True)
class GoodBadPartition:
    """Edge partition where good edges pair up across the graph and bad
    edges close triangles at shared endpoints."""

    good: frozenset[tuple[int, int]]
    bad: frozenset[tuple[int, int]]


def good_bad_partition(g: Graph, cert: CliqueFamilyCertificate) -> GoodBadPartition:
    """Partition E(G) by clique support: uv is good iff n(uv) > r/2.

    n(uv) counts, with multiplicity, the certificate cliques meeting
    {u,v}.  Requires a verified certificate with bound < 3 and alpha <= 2;
    the two structural hypotheses (disjoint good edges are adjacent, bad
    edges sharing an endpoint close a triangle) are checked before return.
    """
    if cert.bound >= 3:
        raise ValueError("good/bad partition needs a certificate bound below 3")
    if not verify_certificate(g, cert):
        raise ValueError("certificate does not verify on this host")
    if not alpha_at_most_2(g):
        raise ValueError("good/bad partition requires alpha <= 2")
    r = cert.size
    incidence = [0] * g.n
    for idx, clique in enumerate(cert.cliques):
        for v in clique:
            incidence[v] |= 1 << idx
    good = set()
    bad = set()
    for u, v in g.edges():
        n_uv = (incidence[u] | incidence[v]).bit_count()
        if 2 * n_uv > r:
            good.add((u, v))
        else:
            bad.add((u, v))
    part = GoodBadPartition(frozenset(good), frozenset(bad))
    _check_good_bad(g, part)
    return part


def _check_good_bad(g: Graph, part: GoodBadPartition) -> None:
    """Raise ``RuntimeError`` unless (1) every two disjoint good edges are
    joined by an edge of g and (2) the bad neighbours of every vertex form
    a clique of g.  A good edge xy misses uv exactly when x and y lie in
    ``far``, the vertices outside N[u] | N[v]."""
    good, bad = Graph(g.n, part.good), Graph(g.n, part.bad)
    for u, v in part.good:
        far = g.full_mask & ~(g.row(u) | g.row(v) | 1 << u | 1 << v)
        if any(good.row(x) & far for x in bits(far)):
            raise RuntimeError("good/bad hypothesis (1) violated")
    if not all(is_clique(g, bad.neighbors(v)) for v in range(g.n)):
        raise RuntimeError("good/bad hypothesis (2) violated")


def classify_good_bad_outcome(g: Graph, part: GoodBadPartition) -> Outcome:
    """First conclusion that holds for an even-order host, as the witness:

    'a' dominating edge; 'b' connectivity at most n/2; 'c' clique of at
    least n/2; 'd' connected perfect matching of good edges, "refuted"
    when none of the four holds.  By hypothesis (1), checked here, any two
    disjoint good edges are joined, so every perfect matching of the good
    edges is connected and 'd' is one maximum matching (Edmonds 1965).
    """
    n = g.n
    if n % 2:
        raise ValueError("outcome classification needs an even-order host")
    if not alpha_at_most_2(g):
        raise ValueError("outcome classification requires alpha <= 2")
    if dominating_edge(g) is not None:
        return Outcome("found", "a")
    if n >= 2 and vertex_connectivity(g, at_least=n // 2 + 1) <= n // 2:
        return Outcome("found", "b")
    if len(max_clique(g)) >= n // 2:
        return Outcome("found", "c")
    _check_good_bad(g, part)
    if 2 * matching_number(Graph(n, part.good)) == n:
        return Outcome("found", "d")
    # The paper's case lemma says that (1), (2), alpha <= 2 and even order
    # force one of 'a'-'d', so reaching this line reports a failure of it.
    return Outcome("refuted")
