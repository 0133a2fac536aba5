"""Table-style counterexample screening: which structural properties a
graph shares with a minimal or minimum counterexample profile.

Each property gets a tri-state verdict (pass / fail / not-evaluated); a
graph survives a profile block iff none of the block's properties fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cliques import colour_classes, max_clique
from .conjectures import connected_dominating_matching, dominating_edge
from .graphs import (
    Graph,
    bits,
    complement,
    diameter,
    independence_number_is_2,
    is_connected,
    vertex_connectivity,
)
from .matching import _gallai_edmonds, is_factor_critical

PROPERTIES = tuple(f"P{i}" for i in range(1, 23))

BLOCKS = {
    "minimum-hc": PROPERTIES,
    "minimal-hc": PROPERTIES[:21],
    "minimum-shc": PROPERTIES[:16],
    "minimal-shc": PROPERTIES[:16],
}

_HAMILTONIAN_CAP = 30
_COLOURING_CAP = 24


@dataclass(frozen=True)
class Verdict:
    status: str  # "pass" | "fail" | "not-evaluated"
    detail: str = ""


@dataclass(frozen=True)
class ScreeningReport:
    verdicts: dict[str, Verdict]

    def failed(self) -> list[str]:
        return [p for p in PROPERTIES if self.verdicts[p].status == "fail"]

    def unevaluated(self) -> list[str]:
        return [p for p in PROPERTIES if self.verdicts[p].status == "not-evaluated"]

    def survives(self, block: str) -> bool:
        return all(
            self.verdicts[p].status != "fail" for p in BLOCKS[block]
        )

    def fully_evaluated(self, block: str) -> bool:
        return all(
            self.verdicts[p].status != "not-evaluated" for p in BLOCKS[block]
        )


def is_hamiltonian(g: Graph) -> bool:
    """Hamiltonian cycle test: Dirac shortcut, then backtracking."""
    n = g.n
    if n < 3 or not is_connected(g):
        return False
    if any(g.degree(v) < 2 for v in range(n)):
        return False
    if all(2 * g.degree(v) >= n for v in range(n)):
        return True  # Dirac's theorem
    start = 0
    target = g.row(start)

    def extend(v: int, visited: int) -> bool:
        if visited == g.full_mask:
            return bool(g.row(v) >> start & 1)
        cand = g.row(v) & ~visited
        # A non-final vertex stripped of all unvisited neighbours is a dead end.
        for w in bits(~visited & g.full_mask):
            avail = g.row(w) & ~visited
            ends = avail | (g.row(w) & ((1 << v) | (1 << start)))
            if not ends:
                return False
        for w in bits(cand):
            if extend(w, visited | (1 << w)):
                return True
        return False

    return extend(start, 1 << start)


def _nonadjacent_pairs(g: Graph):
    for x in range(g.n):
        rx = g.row(x)
        for y in range(x + 1, g.n):
            if not rx >> y & 1:
                yield x, y


def table1_screen(g: Graph) -> ScreeningReport:
    """Evaluate the 22 desk-decidable counterexample properties.

    Requires a connected host with independence number exactly 2.  P4 is
    the literal pair-deletion criticality (chromatic drop by one and the
    remainder vertex-critical); P10 and P22 are capped by instance size
    and report not-evaluated beyond the cap.
    """
    if not is_connected(g):
        raise ValueError("screening requires a connected host")
    if not independence_number_is_2(g):
        raise ValueError("screening requires independence number exactly 2")
    n = g.n
    # alpha(g) = 2 makes chi = n - mu(gc); P1 (chi(g - v) < chi(g) for
    # every v) is D(gc) = V, and P5 is gc factor-critical.
    gc = complement(g)
    mu, d, host = _gallai_edmonds(gc, g.full_mask)
    chi = n - mu
    omega = len(max_clique(g))
    delta = min(g.degree(v) for v in range(n))
    verdicts: dict[str, Verdict] = {}

    def put(name: str, ok: bool, detail: str = ""):
        verdicts[name] = Verdict("pass" if ok else "fail", detail)

    put("P1", d == g.full_mask, f"chi={chi}")
    put("P2", is_connected(gc), "complement connected iff not decomposable")
    put("P3", n == 2 * chi - 1, f"n={n}, 2chi-1={2 * chi - 1}")

    # g - x - y inherits alpha <= 2, so both matching shortcuts run on gc
    # inside the mask of the remaining vertices.  Each starts from the host
    # matching minus x, y and their partners, at most two augmentations
    # short of maximum; mu and D do not depend on the matching found.
    p4_ok = True
    for x, y in _nonadjacent_pairs(g):
        rest = g.full_mask & ~(1 << x) & ~(1 << y)
        mu_rest, d_rest, _ = _gallai_edmonds(gc, rest, host)
        if n - 2 - mu_rest != chi - 1 or d_rest != rest:
            p4_ok = False
            break
    put("P4", p4_ok, "pair deletion leaves a (chi-1)-critical graph")

    put(
        "P5",
        2 * mu == n - 1 and d == g.full_mask,
        "complement minus any vertex has a perfect matching",
    )

    cdm = connected_dominating_matching(g, budget=None if n <= 16 else 500_000)
    if cdm.status == "unknown":
        verdicts["P6"] = Verdict("not-evaluated", "CDM search budget exhausted")
    else:
        put("P6", cdm.status == "refuted", "no non-empty CDM")
    put("P7", dominating_edge(g) is None, "every edge deletion creates a 3-independent set")

    # Above 40 vertices kappa is capped at the larger of the two thresholds
    # P8 and P18 compare it with, which decides both.
    if n <= 40:
        kappa = vertex_connectivity(g)
        kappa_detail = f"kappa={kappa}"
    else:
        kappa = vertex_connectivity(g, at_least=max(chi, 7))
        kappa_detail = "thresholded"
    put("P8", kappa >= chi, kappa_detail + f", chi={chi}")
    put("P9", delta >= chi, f"delta={delta}, chi={chi}")

    if n <= _HAMILTONIAN_CAP or 2 * delta >= n:
        put("P10", is_hamiltonian(g))
    else:
        verdicts["P10"] = Verdict("not-evaluated", f"n>{_HAMILTONIAN_CAP}")

    put("P11", is_factor_critical(g))
    put("P12", diameter(gc) == 2 if gc.edge_count else False)

    p13 = p14 = p15 = p16 = True
    for x, y in _nonadjacent_pairs(g):
        rx, ry = g.row(x), g.row(y)
        b_mask = rx & ry
        a_mask = rx & ~ry & ~(1 << y)
        c_mask = ry & ~rx & ~(1 << x)
        if not b_mask:
            p13 = False
            p14 = p16 = False
            continue
        for b in bits(b_mask):
            rb = g.row(b)
            if not a_mask & ~rb or not c_mask & ~rb:
                p14 = False
        for a in bits(a_mask):
            ra = g.row(a)
            for c in bits(c_mask):
                common_nonnbr = b_mask & ~ra & ~g.row(c)
                if bool(ra >> c & 1) != bool(common_nonnbr):
                    p15 = False
        found_c5 = False
        for b in bits(b_mask):
            rb = g.row(b)
            for a in bits(a_mask & ~rb):
                if g.row(a) & (c_mask & ~rb):
                    found_c5 = True
                    break
            if found_c5:
                break
        if not found_c5:
            p16 = False
    put("P13", p13)
    put("P14", p14)
    put("P15", p15)
    put("P16", p16, "every non-adjacent pair lies in an induced C5")

    put("P17", chi >= 7, f"chi={chi}")
    put("P18", kappa >= 7, "")
    put("P19", omega <= chi - 3, f"omega={omega}, chi={chi}")
    put("P20", delta >= chi + 1, f"delta={delta}, chi={chi}")

    p21 = True
    for x, y in _nonadjacent_pairs(g):
        rx, ry = g.row(x), g.row(y)
        a = (rx & ~ry & ~(1 << y)).bit_count()
        c = (ry & ~rx & ~(1 << x)).bit_count()
        b = (rx & ry).bit_count()
        if not (2 <= a <= chi - 4 and 2 <= c <= chi - 4 and 5 <= b <= 2 * chi - 7):
            p21 = False
            break
    put("P21", p21, "A/B/C size windows")

    if n <= _COLOURING_CAP:
        p22 = True
        for u, v in g.edges():
            rows = list(g.rows())
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
            if colour_classes(rows, chi - 1) is None:
                p22 = False
                break
        put("P22", p22, "edge-criticality (advisory for minimal profiles)")
    else:
        verdicts["P22"] = Verdict("not-evaluated", f"n>{_COLOURING_CAP}")

    return ScreeningReport(verdicts)
