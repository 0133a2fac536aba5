"""Checkers and searchers for the conjecture objects: connected matchings,
connected dominating matchings, small-branch-set complete-graph models,
seagull packings, dominating edges, and unavoidable induced subgraphs.
Hosts have independence number at most 2 (alpha <= 2); the CDM, half-order
model and seagull searches check this and raise ``ValueError`` otherwise.

Two search kernels do the work.  ``_grow_matching`` is a fail-first search
for matchings with pairwise adjacent edges that must cover given vertices:
connected dominating matchings, connected perfect matchings and
half-order models.  ``_small_branch_sets`` is a branch and bound for the
largest complete-graph model whose branch sets are edges, or edges and
single vertices: the connected matching number and had2.  Both loop over
an explicit stack, so Python's recursion limit does not bound their depth,
and both report the nodes they expand in ``Outcome.nodes``.

All first-witness outputs break ties by vertex index, so results are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from .graphs import (
    Graph,
    InflationSpec,
    alpha_at_most_2,
    bits,
    complement,
    girth,
    inflate,
    is_connected,
    induced_subgraph,
    twin_classes,
    vertex_connectivity,
)
from .iso import find_induced_c5, has_induced_subgraph
from .matching import Matching, matching_number


@dataclass(frozen=True)
class Outcome:
    """What a search that may stop undecided reports.

    ``status`` is "found" (``witness`` is the answer), "refuted" (proved
    there is none) or "unknown" (stopped undecided; ``witness`` is the best
    partial answer, if there is one).  ``nodes`` counts the search nodes
    expanded (0 when no search ran); it takes no part in equality.
    """

    status: Literal["found", "refuted", "unknown"]
    witness: object = None
    nodes: int = field(default=0, compare=False)


# The node budget of every search that is not run to the end.
NODE_BUDGET = 500_000


# ---------------------------------------------------------------------------
# Dominating edges and connected (dominating) matchings


def dominating_edge(g: Graph) -> tuple[int, int] | None:
    """First edge (lexicographic) whose endpoint neighbourhoods cover V.

    uv covers V exactly when v is a neighbour of u and of every vertex
    outside N[u], so the candidates for v are N(u) above u, cut by one
    row per such vertex."""
    rows = g.rows()
    for u, ru in enumerate(rows):
        cand = ru & -(2 << u)
        for x in bits(g.full_mask & ~ru & ~(1 << u)):
            if not cand:
                break
            cand &= rows[x]
        if cand:
            return (u, (cand & -cand).bit_length() - 1)
    return None


def is_cdm(g: Graph, edges) -> bool:
    """True iff ``edges`` is a non-empty connected dominating matching of g.
    Edges that share a vertex or are loops raise ``ValueError``."""
    edges = tuple(edges)
    covered = 0
    for u, v in edges:
        pair = 1 << u | 1 << v
        if u == v or covered & pair:
            raise ValueError("matching edges must be vertex-disjoint")
        covered |= pair
    if not edges or not all(g.has_edge(u, v) for u, v in edges):
        return False
    uncovered = g.full_mask & ~covered
    for i, (u, v) in enumerate(edges):
        reach = g.row(u) | g.row(v)
        if uncovered & ~reach:
            return False
        for x, y in edges[i + 1:]:
            if not (reach >> x & 1 or reach >> y & 1):
                return False
    return True


def _grow_matching(g: Graph, roots, must: int, budget: int | None) -> Outcome:
    """Extend a matching whose edges are pairwise adjacent in g.

    Each root ``(low, reach, used, chosen)`` is a start: the branch sets
    ``chosen`` cover ``used`` and have the closed reach ``reach`` (N[a] |
    N[b] for an edge ab, N[s] for a singleton s, all of V for none), and
    new edges join two vertices above ``low``: for ``_cdm`` the first
    edge's least end, else -1.  The roots are searched in turn until one
    is "found".  A vertex must be matched when it lies in ``must`` or
    outside some chosen reach; once none is left, ``chosen`` plus the new
    edges is the witness.  Each node branches on the vertex w that must
    be matched with the fewest allowed partners (fail-first, Haralick &
    Elliott 1980): unused neighbours of w inside every reach that misses
    w.  A node keeps that common reach per unused vertex x, ``miss[x]``,
    the AND of the vertices above ``low`` (none for x <= low) and of the
    chosen reaches that miss x, so scoring a vertex is one mask; a child
    copies the list only when its new reach misses an unused vertex, and
    ANDs the reach into those entries.  A count of 0 backtracks.  Partners
    are tried by the size of the next must-match set, then by index, the
    least of each twin class (``twin_classes``) only: allowed twins x < y
    are unused and above ``low``, so swapping them is an automorphism that
    fixes ``used``, ``chosen``, every reach, ``must`` and ``miss``, and the
    subtree of y is the image of that of x, which ties with it and comes
    first; the first witness is kept.
    "refuted" is exhaustive over all roots; "unknown" once ``budget``
    nodes, if given, are spent, counted over all roots.  The search runs
    depth first on an explicit stack: a frame holds a node's sorted
    options, and each child is built when its frame reaches it.
    """
    full = g.full_mask
    rows = g.rows()
    twins = twin_classes(g)
    nodes = 0
    for low, reach, used, chosen in roots:
        chosen = list(chosen)
        base = len(chosen)
        stack: list = []
        miss = [0] * (low + 1) + [full & -(1 << low + 1)] * (g.n - low - 1)
        for x in bits(full & ~reach & ~used):
            miss[x] &= reach
        node = (miss, reach, used)
        while True:
            if node is not None:
                if budget is not None and nodes >= budget:
                    return Outcome("unknown", nodes=nodes)
                nodes += 1
                miss, common, used = node
                need = (must | full & ~common) & ~used
                if not need:
                    return Outcome("found", tuple(chosen), nodes)
                w, fewest, count = -1, 0, 0
                for x in bits(need):
                    allowed = rows[x] & ~used & miss[x]
                    c = allowed.bit_count()
                    if not c:
                        break
                    if w < 0 or c < count:
                        w, fewest, count = x, allowed, c
                else:
                    rw = g.row(w) | 1 << w
                    options = []
                    while fewest:
                        x = (fewest & -fewest).bit_length() - 1
                        fewest &= ~twins[x]
                        reach = rw | g.row(x) | 1 << x
                        now = used | 1 << w | 1 << x
                        left = (must | full & ~(common & reach)) & ~now
                        options.append((left.bit_count(), x, reach, now))
                    options.sort()
                    stack.append((iter(options), miss, common, w))
            if not stack:
                break
            pending, miss, common, w = stack[-1]
            option = next(pending, None)
            if option is None:
                stack.pop()
                node = None
                continue
            _, x, reach, now = option
            del chosen[base + len(stack) - 1:]
            chosen.append((min(w, x), max(w, x)))
            missed = full & ~reach & ~now
            if missed:
                miss = miss[:]
                for y in bits(missed):
                    miss[y] &= reach
            node = (miss, common & reach, now)
    return Outcome("refuted", nodes=nodes)


def connected_dominating_matching(g: Graph, budget: int | None = None) -> Outcome:
    """A non-empty connected dominating matching ("found"), or "refuted".

    A dominating edge answers at once, whatever the budget: the first one
    (lexicographic) is the one-edge witness.  Otherwise each edge uv in
    turn is a root of ``_grow_matching``, fixed as the least edge of the
    matching and extended with edges above u, so every CDM is reached from
    exactly one first edge.  This is exhaustive; with a node ``budget``,
    shared by all first edges, it stops with "unknown" instead.  A
    one-edge CDM is a dominating edge, so the outcome is "found" with one
    edge exactly when g has a dominating edge; callers may read that off
    the outcome.  Requires a connected host with independence number at
    most 2; a complete host K_n is answered by its dominating edge
    (0, 1), or refuted when n < 2.
    """
    _check_cdm_host(g)
    return _cdm(g, budget)


def _check_cdm_host(g: Graph) -> None:
    """Raise ``ValueError`` unless g is connected with independence number
    at most 2, the hosts of ``connected_dominating_matching``."""
    if not is_connected(g):
        raise ValueError("connected dominating matchings need a connected host")
    if not alpha_at_most_2(g):
        raise ValueError("host must have independence number at most 2")


def _cdm(g: Graph, budget: int | None) -> Outcome:
    """``connected_dominating_matching`` on a host known to meet
    ``_check_cdm_host``, without testing it again.  A witness is checked
    with ``is_cdm`` before return."""
    e = dominating_edge(g)
    edges, nodes = (e,), 0
    if e is None:
        roots = (
            (u, g.row(u) | g.row(v) | 1 << u | 1 << v, 1 << u | 1 << v, ((u, v),))
            for u in range(g.n)
            for v in bits(g.row(u) & -(2 << u))
        )
        got = _grow_matching(g, roots, 0, budget)
        if got.status != "found":
            return got
        edges, nodes = got.witness, got.nodes
    if not is_cdm(g, edges):
        raise RuntimeError("CDM search returned a matching that fails verification")
    return Outcome("found", Matching(edges), nodes)


def girth5_cdm_construct(spec: InflationSpec) -> Matching:
    """Constructive CDM for a connected inflation whose base has a
    complement of girth at least 5.

    If the support of the inflation is C5-free the dominating-edge path
    applies; otherwise an induced 5-cycle abcde of the support is
    oriented so the clique of a is smallest and the clique of c no larger
    than d's, and the matching saturating a into e plus c into d is a
    connected dominating matching.  The result is re-verified before
    return.
    """
    if girth(complement(spec.base)) < 5:
        raise ValueError("base complement must have girth at least 5")
    g = inflate(spec)
    if g.n < 2:
        raise ValueError("expanded graph needs at least 2 vertices")
    if not is_connected(g):
        raise ValueError("expanded graph must be connected")
    support = [x for x in range(spec.base.n) if spec.mult[x] > 0]
    h = induced_subgraph(spec.base, support)
    c5 = find_induced_c5(h)
    if c5 is None:
        e = dominating_edge(g)
        if e is None:
            raise RuntimeError("C5-free support must yield a dominating edge")
        result = Matching((e,))
    else:
        ring = [support[i] for i in c5]
        mult = spec.mult
        least = min(mult[x] for x in ring)
        # The five rotations of the cycle, then each read backwards from its start.
        turns = [ring[i:] + ring[:i] for i in range(5)]
        turns += [t[:1] + t[:0:-1] for t in turns]
        a, _, c, d, e = min(t for t in turns if mult[t[0]] == least and mult[t[2]] <= mult[t[3]])
        block = spec.block
        result = Matching(
            tuple(zip(bits(block(a)), bits(block(e)))) + tuple(zip(bits(block(c)), bits(block(d))))
        )
    if not is_cdm(g, result.edges):
        raise RuntimeError("constructed matching failed CDM verification")
    return result


# ---------------------------------------------------------------------------
# Complete-graph models with small branch sets


@dataclass(frozen=True)
class KModel:
    """Disjoint connected branch sets, pairwise joined by edges."""

    branch_sets: tuple[tuple[int, ...], ...]
    target_order: int

    def __post_init__(self):
        object.__setattr__(
            self,
            "branch_sets",
            tuple(tuple(sorted(b)) for b in self.branch_sets),
        )

    @property
    def order(self) -> int:
        return len(self.branch_sets)


def verify_k_model(g: Graph, model: KModel) -> bool:
    """Disjointness, per-set connectivity, pairwise adjacency, order; an
    empty branch set fails."""
    if model.order != model.target_order:
        return False
    masks = []
    used = 0
    for b in model.branch_sets:
        m = 0
        for v in b:
            if not 0 <= v < g.n or used >> v & 1 or m >> v & 1:
                return False
            m |= 1 << v
        if not b:
            return False
        used |= m
        if not is_connected(g, m):
            return False
        masks.append(m)
    reaches = []
    for m in masks:
        r = 0
        for v in bits(m):
            r |= g.row(v)
        reaches.append(r)
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if not reaches[i] & masks[j]:
                return False
    return True


def _small_branch_sets(g: Graph, singletons: bool, budget: int | None = None) -> Outcome:
    """Most disjoint branch sets, pairwise joined by an edge, where each set
    is an edge of g or, with ``singletons``, may also be one vertex.

    Branch and bound over vertices in increasing order: the least undecided
    vertex v is kept as a singleton, paired with an undecided neighbour (in
    index order) or left out, and a set is taken only if it meets the
    neighbourhood of every chosen set: as in ``_grow_matching``, the
    partner lies in every chosen reach that misses v.  A node is pruned
    when the chosen sets plus what the undecided vertices can still add
    (all of them, or half without singletons) cannot beat the best.  The
    search runs depth first on an explicit stack of frames, one per node
    whose options are still open; leaving v out is a node's last child and
    takes its frame's place.  "found" with the best sets, or "unknown" with
    the best so far once ``budget`` nodes, if given, are expanded.  The
    witness is a ``KModel`` with singletons, else a ``Matching``.
    """
    best: list[tuple[int, ...]] = []
    chosen: list[tuple[int, ...]] = []
    nodes = 0
    status = "found"
    stack: list = []
    node = (g.full_mask, [])
    while True:
        if node is not None:
            if budget is not None and nodes >= budget:
                status = "unknown"
                break
            nodes += 1
            avail, reaches = node
            if len(chosen) > len(best):
                best = chosen[:]
            left = avail.bit_count() if singletons else avail.bit_count() // 2
            if len(chosen) + left > len(best):
                v = avail & -avail
                vi = v.bit_length() - 1
                fit = g.full_mask
                for r in reaches:
                    if not r & v:
                        fit &= r
                # Partner vi itself stands for the singleton; it comes first.
                partners = bits((g.row(vi) & avail | (v if singletons else 0)) & fit)
                stack.append((partners, avail, reaches, v, vi))
        if not stack:
            break
        partners, avail, reaches, v, vi = stack[-1]
        w = next(partners, None)
        if w is None:
            stack.pop()
            del chosen[len(stack):]
            node = (avail & ~v, reaches)
        else:
            mask = v | 1 << w
            del chosen[len(stack) - 1:]
            chosen.append(tuple(bits(mask)))
            node = (avail & ~mask, reaches + [g.row(vi) | g.row(w)])
    sets = tuple(best)
    witness = KModel(sets, len(sets)) if singletons else Matching(sets)
    return Outcome(status, witness, nodes)


def k_model_size2_max(g: Graph) -> KModel:
    """Largest complete-graph model with branch sets of size 1 or 2: the
    exhaustive ``_small_branch_sets`` search with singletons, checked with
    ``verify_k_model`` before return."""
    model = _small_branch_sets(g, singletons=True).witness
    if not verify_k_model(g, model):
        raise RuntimeError("small branch set search returned a model that fails verification")
    return model


def had2(g: Graph) -> int:
    return k_model_size2_max(g).order


def connected_matching_max(g: Graph, budget: int | None = None) -> Outcome:
    """Largest connected matching: ``_small_branch_sets`` with edges only.

    A matching is connected when its edges are pairwise joined by an edge,
    i.e. a complete-graph model whose branch sets are all edges.  "found"
    with the maximum, or "unknown" with the best matching so far once
    ``budget`` nodes, if given, are expanded; either is checked with
    ``verify_k_model`` before return.
    """
    got = _small_branch_sets(g, singletons=False, budget=budget)
    if not verify_k_model(g, KModel(got.witness.edges, got.witness.size)):
        raise RuntimeError("connected matching search returned a matching that fails verification")
    return got


def connected_matching_number(g: Graph) -> int:
    return connected_matching_max(g).witness.size


def eberhard_model(p: int) -> KModel:
    """The explicit four-type partition model on the Eberhard complement.

    Type 1: singletons (i,0) for i outside {(p-1)/2, p-1}; Type 2: the
    pair {((p-1)/2,0), (p-1,0)}; Type 3: pairs {(j,i),(j,p-1-i)} for
    i in 1..(p-1)/2-1; Type 4: pairs {(j,(p-1)/2),(j,p-1)}.  The model
    is verified on the Eberhard complement, its order (p*p+p-2)/2 included.
    """
    from .constructions import eberhard

    half = (p - 1) // 2

    def idx(a: int, b: int) -> int:
        return (a % p) * p + (b % p)

    sets: list[tuple[int, ...]] = []
    for i in range(p):
        if i not in (half, p - 1):
            sets.append((idx(i, 0),))
    sets.append((idx(half, 0), idx(p - 1, 0)))
    for j in range(p):
        for i in range(1, half):
            sets.append((idx(j, i), idx(j, p - 1 - i)))
    for j in range(p):
        sets.append((idx(j, half), idx(j, p - 1)))
    model = KModel(tuple(sets), (p * p + p - 2) // 2)
    host = complement(eberhard(p))
    if not verify_k_model(host, model):
        raise RuntimeError("eberhard model failed verification")
    return model


def connected_perfect_matching_search(g: Graph, budget: int | None = NODE_BUDGET) -> Outcome:
    """A perfect matching whose edges are pairwise adjacent, as a KModel:
    ``_half_order_model`` of an even host.  Exact: "found", "refuted", or
    "unknown" when ``budget`` nodes, if given, are spent."""
    if g.n % 2:
        raise ValueError("perfect matchings need an even number of vertices")
    return _half_order_model(g, budget)


def half_order_model_search(g: Graph, budget: int | None = NODE_BUDGET) -> Outcome:
    """A K_{ceil(n/2)} model with branch sets of size at most 2:
    ``_half_order_model``, "found" or "unknown", never "refuted", since a
    model may use more singletons (two disjoint triangles have no
    connected perfect matching but hold a K3)."""
    got = _half_order_model(g, budget)
    return Outcome("unknown", nodes=got.nodes) if got.status == "refuted" else got


def _half_order_model(g: Graph, budget: int | None) -> Outcome:
    """A K_{ceil(n/2)} model of edges and, at odd order, one singleton s,
    tried for each s in turn with N[s] as one more chosen reach; all roots
    share the node ``budget`` (None: no limit).  A witness is checked with
    ``verify_k_model``, whose target order makes it cover every vertex."""
    if not alpha_at_most_2(g):
        raise ValueError("search is intended for hosts with alpha <= 2")
    odd = g.n % 2
    if odd:
        roots = ((-1, g.row(s) | 1 << s, 1 << s, ((s,),)) for s in range(g.n))
    else:
        roots = [(-1, g.full_mask, 0, ())]
    got = _grow_matching(g, roots, g.full_mask, budget)
    if got.status != "found":
        return got
    # An odd witness starts with the singleton root; the model lists it last.
    model = KModel(got.witness[odd:] + got.witness[:odd], (g.n + 1) // 2)
    if not verify_k_model(g, model):
        raise RuntimeError("half-order model search returned a model that fails verification")
    return Outcome("found", model, got.nodes)


# ---------------------------------------------------------------------------
# Seagulls


@dataclass(frozen=True)
class SeagullReport:
    size_ok: bool
    connectivity_ok: bool
    clique_condition_ok: bool
    matching_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.size_ok
            and self.connectivity_ok
            and self.clique_condition_ok
            and self.matching_ok
        )


def _clique_condition_ok(g: Graph, k: int) -> bool:
    """Whether every clique C of g, the empty one included, has
    n - |C| + mixed(C) >= 2k, where mixed(C) counts the vertices outside C
    with both a neighbour and a non-neighbour in C.

    A depth-first search over the cliques in index order, on an explicit
    stack: each clique is extended only by its common neighbours above its
    largest vertex (its candidates), so each is visited once.  A vertex
    mixed on C is no candidate, and stays outside and mixed on every
    extension of C by candidates; so no extension violates the condition
    when n - |C| - |candidates| + mixed(C) >= 2k, and the node is cut.
    """
    n, rows = g.n, g.rows()
    if n < 2 * k:
        return False
    # [clique, untried candidates, union of its rows, intersection of its rows]
    stack = [[0, g.full_mask, 0, g.full_mask]]
    while stack:
        frame = stack[-1]
        clique, cand, seen, common = frame
        if not cand:
            stack.pop()
            continue
        low = cand & -cand
        frame[1] = cand ^ low
        row = rows[low.bit_length() - 1]
        clique, cand, seen, common = clique | low, (cand ^ low) & row, seen | row, common & row
        # The vertices outside that see C, less those that see all of it.
        mixed = (seen & ~clique).bit_count() - common.bit_count()
        slack = n - clique.bit_count() + mixed - 2 * k
        if slack < 0:
            return False
        if slack < cand.bit_count():
            stack.append([clique, cand, seen, common])
    return True


def seagull_conditions(g: Graph, k: int) -> SeagullReport:
    """The four packing conditions for k vertex-disjoint seagulls
    (Chudnovsky and Seymour, "Packing seagulls"): n >= 3k, k-connectivity,
    the clique condition over every clique (``_clique_condition_ok``), and
    a matching of size k in the complement."""
    if not alpha_at_most_2(g):
        raise ValueError("seagull conditions require alpha <= 2")
    if k < 1:
        raise ValueError("k must be positive")
    n = g.n
    size_ok = n >= 3 * k
    connectivity_ok = n >= 2 and vertex_connectivity(g, at_least=k) >= k
    matching_ok = matching_number(complement(g)) >= k
    return SeagullReport(size_ok, connectivity_ok, _clique_condition_ok(g, k), matching_ok)


def _induced_seagulls(g: Graph) -> list[tuple[int, int, int]]:
    """All induced 3-vertex paths (a, c, b): c the centre, a < b, ab not an edge."""
    out = []
    for c in range(g.n):
        rc = g.row(c)
        for a in bits(rc):
            out.extend((a, c, b) for b in bits(rc & ~g.row(a) & -(2 << a)))
    return out


def seagull_pack_exact(g: Graph, k: int) -> list[tuple[int, int, int]] | None:
    """k vertex-disjoint induced 3-paths, or None: the lexicographically
    first choice of indices into ``_induced_seagulls``, by backtracking on
    an explicit stack, checked before return."""
    if not alpha_at_most_2(g):
        raise ValueError("seagull packing requires alpha <= 2")
    if k < 1:
        raise ValueError("k must be positive")
    seagulls = _induced_seagulls(g)
    masks = [(1 << a) | (1 << c) | (1 << b) for a, c, b in seagulls]
    chosen: list[int] = []  # indices of the seagulls taken so far
    i = used = 0  # the next index to try; the vertices taken
    while len(chosen) < k:
        if g.n - used.bit_count() < 3 * (k - len(chosen)):
            i = len(masks)
        while i < len(masks) and used & masks[i]:
            i += 1
        if i < len(masks):
            chosen.append(i)
            used |= masks[i]
        elif chosen:
            i = chosen.pop()
            used ^= masks[i]
        else:
            return None
        i += 1
    pack = [seagulls[i] for i in chosen]
    if len({v for s in pack for v in s}) != 3 * k or not all(
        g.has_edge(a, c) and g.has_edge(c, b) and not g.has_edge(a, b) for a, c, b in pack
    ):
        raise RuntimeError("seagull packing search returned a packing that fails verification")
    return pack


# ---------------------------------------------------------------------------
# Unavoidable induced subgraphs


def builtin_patterns() -> list[tuple[str, Graph]]:
    """The textually defined unavoidable patterns."""
    from .constructions import complete, cycle, wheel5

    c4 = cycle(4)
    c5 = cycle(5)
    w5 = wheel5()
    k8 = complete(8)
    # complement of the star K_{1,6}: a K6 plus one isolated vertex
    k16c = Graph(7, [(u, v) for u in range(1, 7) for v in range(u + 1, 7)])
    return [("C4", c4), ("C5", c5), ("W5", w5), ("K8", k8), ("K1_6_complement", k16c)]


def unavoidable_scan(
    g: Graph, patterns: list[tuple[str, Graph]] | None = None
) -> dict[str, bool]:
    """Induced-subgraph test for each pattern (built-ins by default)."""
    pats = patterns if patterns is not None else builtin_patterns()
    return {name: has_induced_subgraph(g, pat) for name, pat in pats}


# ---------------------------------------------------------------------------
# Witness text format


def write_vertex_sets(header: str, tag: str, sets) -> str:
    """The line ``header``, then one '<tag> v1 v2 ...' line per vertex set."""
    lines = [header] + [f"{tag} " + " ".join(map(str, c)) for c in sets]
    return "\n".join(lines) + "\n"


def read_vertex_sets(
    text: str, what: str, header: str, tag: str
) -> tuple[str, tuple[tuple[int, ...], ...]]:
    """The first line and the vertex sets of a ``write_vertex_sets`` text,
    blank lines skipped.  The first line must be ``header``, or start with
    it and go on when it ends in a space."""
    lines = [ln for ln in text.splitlines() if ln.strip()] or [""]
    if not (lines[0].startswith(header) and lines[0][len(header):].strip()
            if header.endswith(" ") else lines[0] == header):
        raise ValueError(f"{what} text must start with a '{header.strip()}' line")
    sets = []
    for ln in lines[1:]:
        parts = ln.split()
        try:
            if parts[0] != tag:
                raise ValueError
            sets.append(tuple(int(x) for x in parts[1:]))
        except ValueError:
            raise ValueError(f"unexpected {what} line: {ln!r}") from None
    return lines[0], tuple(sets)


def format_model(model: KModel) -> str:
    """Text form: a 'model <order>' line, then one 'B v1 ...' per branch set."""
    return write_vertex_sets(f"model {model.order}", "B", model.branch_sets)


def parse_model(text: str) -> KModel:
    first, sets = read_vertex_sets(text, "model", "model ", "B")
    try:
        order = int(first.split()[1])
    except ValueError:
        raise ValueError(f"model order must be an integer: {first!r}") from None
    return KModel(sets, order)
