"""Table-style counterexample screening: which structural properties a
graph shares with a minimal or minimum counterexample profile.

Each property gets a tri-state verdict (pass / fail / not-evaluated); a
graph survives a profile block iff none of the block's properties fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cliques import max_clique
from .conjectures import NODE_BUDGET, _cdm
from .graphs import (
    Graph,
    _orbit_pairs,
    bits,
    complement,
    independence_number_is_2,
    is_connected,
    vertex_connectivity,
)
from .iso import search
from .matching import _gallai_edmonds, is_factor_critical

PROPERTIES = tuple(f"P{i}" for i in range(1, 23))

BLOCKS = {
    "minimum-hc": PROPERTIES,
    "minimal-hc": PROPERTIES[:21],
    "minimum-shc": PROPERTIES[:16],
    "minimal-shc": PROPERTIES[:16],
}


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


def table1_screen(g: Graph) -> ScreeningReport:
    """Evaluate the 22 desk-decidable counterexample properties.

    Requires a connected host with independence number exactly 2.  P4 is
    the literal pair-deletion criticality (chromatic drop by one and the
    remainder vertex-critical); P10 is read off the vertex connectivity;
    P22 is a matching test per edge at every order.  The pair properties
    P4, P13-P16, P21 and P22 are checked in one scan, on the pairs that
    ``graphs._orbit_pairs`` takes from one ``iso.search`` of the
    complement; on an asymmetric host that is every pair.  P6 can stop
    undecided when its search budget runs out.
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
    # Aut(g) = Aut(gc).  Each per-pair property below (P4, P13-P16, P21,
    # P22) is symmetric in the pair, invariant under automorphisms and
    # reported with a constant detail, so one pair per orbit of pairs
    # decides it.
    found = search(gc.rows())
    verdicts: dict[str, Verdict] = {}

    def put(name: str, ok: bool, detail: str = ""):
        verdicts[name] = Verdict("pass" if ok else "fail", detail)

    put("P1", d == g.full_mask, f"chi={chi}")
    put("P2", is_connected(gc), "complement connected iff not decomposable")
    put("P3", n == 2 * chi - 1, f"n={n}, 2chi-1={2 * chi - 1}")

    # One scan of the pairs decides P4, P13-P16 and P21 on the non-adjacent
    # pairs and P22 on the edges: each property is tested until it fails,
    # and the scan stops once all have.
    # P4: g - x - y inherits alpha <= 2, so both matching shortcuts run on
    # gc inside the mask of the remaining vertices.  Each starts from the
    # host matching minus x, y and their partners, at most two augmentations
    # short of maximum; mu and D do not depend on the matching found.
    # A = N(x) - N[y], B = N(x) & N(y), C = N(y) - N[x].  An empty B fails
    # P13, P14 and P16, and P15 is not scored on it.  P14 fails iff some b
    # in B is adjacent to all of A or to all of C.  P15 asks, for every a in
    # A and c in C, that a ~ c iff some b in B misses both; for fixed a that
    # is C & N(a) equal to the part of C outside the common neighbourhood of
    # B - N(a).
    p4 = p13 = p14 = p15 = p16 = p21 = p22 = True
    for x, y in _orbit_pairs(g.full_mask, lambda x: g.full_mask & ~(1 << x), found.generators):
        if not (p4 or p13 or p14 or p15 or p16 or p21 or p22):
            break
        rx, ry = g.row(x), g.row(y)
        rest = g.full_mask & ~(1 << x) & ~(1 << y)
        if rx >> y & 1:
            # P22: a (chi - 1)-colouring of g - xy puts x and y in one class
            # (else it colours g), and alpha = 2 leaves room there for at
            # most one w, a common neighbour of x and y in gc.  The pair
            # class needs mu(gc - x - y) = mu; a triple class needs
            # mu(gc - x - y - w) = mu - 1, i.e. mu(gc - x - y) = mu - 1 and
            # w in D(gc - x - y), whose search can stop once it meets the
            # common neighbourhood.
            if p22:
                common = gc.row(x) & gc.row(y)
                mu_rest, d_rest, _ = _gallai_edmonds(gc, rest, host, common)
                p22 = mu_rest == mu or mu_rest == mu - 1 and bool(d_rest & common)
            continue
        b_mask = rx & ry
        a_mask = rx & ~ry & ~(1 << y)
        c_mask = ry & ~rx & ~(1 << x)
        if p4:
            mu_rest, d_rest, _ = _gallai_edmonds(gc, rest, host)
            p4 = n - 2 - mu_rest == chi - 1 and d_rest == rest
        if p21:
            p21 = (2 <= a_mask.bit_count() <= chi - 4 and 2 <= c_mask.bit_count() <= chi - 4
                   and 5 <= b_mask.bit_count() <= 2 * chi - 7)
        if not b_mask:
            p13 = p14 = p16 = False
        if p14:
            common_a = common_c = g.full_mask
            for a in bits(a_mask):
                common_a &= g.row(a)
            for c in bits(c_mask):
                common_c &= g.row(c)
            if b_mask & (common_a | common_c):
                p14 = False
        if p15 and b_mask:
            for a in bits(a_mask):
                ra = g.row(a)
                common = c_mask
                for b in bits(b_mask & ~ra):
                    common &= g.row(b)
                if c_mask & ra != c_mask & ~common:
                    p15 = False
                    break
        if p16:
            for b in bits(b_mask):
                rb = g.row(b)
                c_off_b = c_mask & ~rb
                if any(g.row(a) & c_off_b for a in bits(a_mask & ~rb)):
                    break
            else:
                p16 = False
    put("P4", p4, "pair deletion leaves a (chi-1)-critical graph")

    put(
        "P5",
        2 * mu == n - 1 and d == g.full_mask,
        "complement minus any vertex has a perfect matching",
    )

    # The host checks above are those of connected_dominating_matching.
    cdm = _cdm(g, NODE_BUDGET)
    if cdm.status == "unknown":
        verdicts["P6"] = Verdict("not-evaluated", "CDM search budget exhausted")
    else:
        put("P6", cdm.status == "refuted", "no non-empty CDM")
    # The CDM search answers with a dominating edge whenever g has one,
    # and a one-edge CDM is a dominating edge, so P7 fails exactly when it
    # found one edge.  uv dominates g iff u, v are non-adjacent in gc with
    # no common gc-neighbour; gc is triangle-free with n >= 3, so it is
    # not complete, and diam(gc) = 2 (P12) iff g has no dominating edge.
    p7 = not (cdm.status == "found" and cdm.witness.size == 1)
    put("P7", p7, "every edge deletion creates a 3-independent set")

    # Above 40 vertices kappa is capped at the larger of the two thresholds
    # P8 and P18 compare it with, which decides both.  The flows run on one
    # pair per orbit of the automorphisms found above.
    if n <= 40:
        kappa = vertex_connectivity(g, automorphisms=found.generators)
        kappa_detail = f"kappa={kappa}"
    else:
        kappa = vertex_connectivity(g, at_least=max(chi, 7), automorphisms=found.generators)
        kappa_detail = "thresholded"
    put("P8", kappa >= chi, kappa_detail + f", chi={chi}")
    put("P9", delta >= chi, f"delta={delta}, chi={chi}")

    # Hamiltonicity: kappa >= alpha = 2 gives a Hamiltonian cycle
    # (Chvatal-Erdos), and a Hamiltonian graph on n >= 3 vertices is
    # 2-connected; a connected host with alpha = 2 has n >= 3.
    put("P10", kappa >= 2)

    put("P11", is_factor_critical(g))
    put("P12", p7)

    put("P13", p13)
    put("P14", p14)
    put("P15", p15)
    put("P16", p16, "every non-adjacent pair lies in an induced C5")

    put("P17", chi >= 7, f"chi={chi}")
    put("P18", kappa >= 7, "")
    put("P19", omega <= chi - 3, f"omega={omega}, chi={chi}")
    put("P20", delta >= chi + 1, f"delta={delta}, chi={chi}")

    put("P21", p21, "A/B/C size windows")

    put("P22", p22, "edge-criticality (advisory for minimal profiles)")

    return ScreeningReport(verdicts)
